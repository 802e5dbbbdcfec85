// Coordinator-side MAC policing: slot-occupancy and identity
// surveillance over the decoded uplink.
//
// The framed-slotted-Aloha contract is one data frame per tag per
// round (its drawn slot), so the coordinator can police misbehavior
// with nothing but what it already decodes: a tag id heard more than
// once in one round is transmitting in slots it was never assigned
// (babbling idiot, slot thief), and an id whose sequence numbers keep
// jumping around the serial space is two physical tags sharing one
// identity (cloned provisioning) — honest ARQ streams move through the
// 8-bit space slowly, a window at a time, while interleaved clone
// streams ping-pong across it.
//
// SlotPolice turns those observations into per-round, per-tag
// *misbehavior evidence* counts. It never acts on its own: evidence
// feeds the health supervisor's EWMA misbehavior score
// (SupervisorConfig::policing_enabled), which quarantines repeat
// offenders with a derived detection bound — one glitched frame can
// never park a healthy tag. Identity-collision suspicion additionally
// latches per tag until the challenge/re-announce recovery completes
// (ResetIdentity, wired to the supervisor's readmission resync).
//
// Everything here is a pure fold over the decoded frame stream — no
// rng, no clock — so campaigns stay deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace freerider::mac {

struct PolicingConfig {
  /// Off by default: a disabled police observes nothing and every
  /// legacy consumer keeps bit-identical behaviour.
  bool enabled = false;
  /// Frames per round an id may legally put on the air. The probe
  /// keepalive rides the same single-slot budget, so 1 is the contract.
  std::size_t max_frames_per_round = 1;
  /// Identity-collision detector: an arrival whose serial distance
  /// from the same id's previous arrival exceeds this (in either
  /// direction) is a "jump"...
  std::size_t clone_jump_threshold = 32;
  /// ...and this many jumps within one sliding window of arrivals
  /// raises a collision suspicion. Honest streams jump at most once
  /// per resync; interleaved clone streams jump on nearly every
  /// arrival.
  std::size_t clone_jumps_to_suspect = 3;
  std::size_t clone_window_arrivals = 8;
  /// Evidence charged when a collision suspicion fires (a burst: the
  /// supervisor treats it like several bad rounds at once).
  std::size_t collision_evidence = 4;
};

struct TagPolicingStats {
  std::size_t extra_frames = 0;      ///< Frames past the per-round budget.
  std::size_t multi_fire_rounds = 0; ///< Rounds with budget exceeded.
  std::size_t seq_jumps = 0;         ///< Serial-space jump arrivals.
  std::size_t collision_suspicions = 0;
};

struct PolicingStats {
  std::size_t unattributed_frames = 0;  ///< CRC-valid, id out of range.
  std::size_t evidence_total = 0;       ///< Sum of all evidence charged.
};

class SlotPolice {
 public:
  SlotPolice(const PolicingConfig& config, std::size_t num_tags);

  bool enabled() const { return config_.enabled; }

  /// Start a round: clears the per-round occupancy counts.
  void BeginRound(std::size_t round);

  /// One CRC-valid frame attributed to `tag` (0-based) this round.
  void OnFrame(std::size_t tag, std::uint8_t seq);

  /// One CRC-valid frame whose id is outside [1, num_tags] — counted
  /// (never silently dropped) but unattributable to any tag.
  void OnUnattributedFrame();

  /// Close the round: per-tag evidence counts from occupancy plus any
  /// identity-collision suspicion raised this round. The caller adds
  /// transport-level evidence (replay/beyond-window deltas) and feeds
  /// the sum to the supervisor.
  std::vector<std::size_t> EndRound();

  /// Latched until the challenge/re-announce recovery for the tag
  /// completes.
  bool collision_suspected(std::size_t tag) const {
    return tags_[tag].collision_latched;
  }
  /// Challenge resolution: the supervisor readmitted the tag (probe
  /// answered, stream re-anchored) — arm the detector afresh.
  void ResetIdentity(std::size_t tag);

  const TagPolicingStats& tag_stats(std::size_t tag) const {
    return tags_[tag].stats;
  }
  const PolicingStats& stats() const { return stats_; }
  std::size_t num_tags() const { return tags_.size(); }

  /// Flight-recorder sink (optional, non-owning). Nonzero per-tag
  /// evidence is recorded at EndRound in virtual round time. Runtime
  /// wiring, not police state.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }

 private:
  struct TagState {
    std::size_t frames_this_round = 0;
    bool has_last_seq = false;
    std::uint8_t last_seq = 0;
    /// Ring of jump flags over the last clone_window_arrivals arrivals.
    std::uint32_t jump_bits = 0;
    std::size_t arrivals = 0;
    bool collision_latched = false;
    bool collision_this_round = false;
    TagPolicingStats stats;
  };

  PolicingConfig config_;
  std::vector<TagState> tags_;
  PolicingStats stats_;
  obs::TraceRing* trace_ = nullptr;
  std::size_t round_ = 0;  ///< Round passed to the last BeginRound.
};

}  // namespace freerider::mac
