// Time-varying link dynamics: the channel processes that make the
// supervisor's closed loop necessary.
//
// The static fault mixes in impair.h model *how* a single exchange
// breaks; this module models how a link's quality evolves across a
// campaign — the office-deployment story the paper implies but never
// simulates:
//
//  * Gilbert–Elliott burst errors — a per-tag two-state Markov chain
//    (Good/Bad) driving the per-slot frame-corruption probability.
//    Fades arrive in bursts, exactly the regime where per-frame i.i.d.
//    loss models flatter naive retransmission.
//  * Mobility traces — a piecewise-linear distance factor per tag
//    (people carrying tags walk away and come back); extra loss grows
//    with the excess over nominal distance.
//  * Scheduled blackouts — the excitation source goes quiet for whole
//    round windows (the WiFi AP the tags ride goes idle), so affected
//    tags hear no announcements *and* reflect nothing.
//
// Determinism contract: all randomness is counter-based via
// Rng::ForTrial(seed, tag, round) — a link's state at (tag, round) is
// a pure function of the dynamics seed, independent of thread count,
// task order, or what any other tag drew. The dynamics seed is its own
// config field, never drawn from the simulation's master stream, so
// enabling dynamics does not perturb the baseline simulation and a
// disabled config draws nothing at all.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace freerider::impair {

/// Two-state burst-error chain (Gilbert–Elliott). The chain steps once
/// per PLM round per tag.
struct GilbertElliottConfig {
  bool enabled = false;
  /// Per-round transition probabilities.
  double p_good_to_bad = 0.02;
  double p_bad_to_good = 0.15;
  /// Per-slot frame-corruption probability in each state.
  double good_loss = 0.02;
  double bad_loss = 0.85;
};

/// One knot of a piecewise-linear distance trace. Factors between
/// knots are linearly interpolated; before the first / after the last
/// knot the trace is flat.
struct MobilityWaypoint {
  std::size_t round = 0;
  /// Distance relative to the nominal link geometry (1.0 = where the
  /// static simulation puts the tag).
  double distance_factor = 1.0;
};

struct MobilityConfig {
  bool enabled = false;
  /// Shared trace shape; each tag walks it with a phase offset of
  /// `per_tag_phase_rounds × tag` so the fleet doesn't fade in lockstep.
  std::vector<MobilityWaypoint> waypoints;
  std::size_t per_tag_phase_rounds = 0;
  /// Extra per-slot loss per unit of distance factor above 1.0
  /// (clamped to max_loss). Linear in the excess: transparent to tune
  /// and monotone in distance, which is all the supervisor cares about.
  double loss_per_excess = 0.8;
  double max_loss = 0.98;
};

/// Excitation blackout: rounds in [begin_round, end_round) where the
/// affected tags hear nothing and reflect nothing.
struct BlackoutWindow {
  std::size_t begin_round = 0;
  std::size_t end_round = 0;
  /// 0-based tag indices; empty = every tag (the excitation source
  /// itself went dark).
  std::vector<std::size_t> tags;
};

struct DynamicsConfig {
  /// Dedicated stream seed — never drawn from the simulation master.
  std::uint64_t seed = 0x6C696E6B64796Eull;  // "linkdyn"
  GilbertElliottConfig gilbert;
  MobilityConfig mobility;
  std::vector<BlackoutWindow> blackouts;

  bool AnyEnabled() const {
    return gilbert.enabled || mobility.enabled || !blackouts.empty();
  }
};

/// The resolved channel state of one tag for one round.
struct LinkState {
  bool blackout = false;
  bool bad_state = false;       ///< Gilbert–Elliott chain in Bad.
  double distance_factor = 1.0;
  /// Combined per-slot frame-corruption probability (burst state +
  /// mobility, blackout excluded — blackout is absolute, not a draw).
  double loss_probability = 0.0;
};

class ChannelDynamics {
 public:
  ChannelDynamics(const DynamicsConfig& config, std::size_t num_tags);

  bool enabled() const { return config_.AnyEnabled(); }
  const DynamicsConfig& config() const { return config_; }

  /// Advance every tag's chain to `round` and resolve its LinkState.
  /// Must be called once per round in order (the chains are folds over
  /// the counter-based per-round draws, so the fold itself is
  /// deterministic and cheap to re-run).
  void BeginRound(std::size_t round);

  const LinkState& link(std::size_t tag) const { return links_[tag]; }
  std::size_t num_tags() const { return links_.size(); }

  /// Whether a frame transmitted by `tag` in `slot` of the current
  /// round survives the fade, given `repetitions` independent
  /// redundancy copies (one must survive). Draws come from the
  /// counter-based (tag, round) stream, offset by slot, so the result
  /// is a pure function of (seed, tag, round, slot, repetitions).
  bool FrameSurvives(std::size_t tag, std::size_t slot,
                     std::size_t repetitions);

  /// Rounds in blackout for the given tag over [0, horizon) — the
  /// stress harness uses this to normalize delivery by offered load.
  std::size_t BlackoutRounds(std::size_t tag, std::size_t horizon) const;

 private:
  double MobilityFactor(std::size_t tag, std::size_t round) const;
  bool InBlackout(std::size_t tag, std::size_t round) const;

  DynamicsConfig config_;
  std::vector<LinkState> links_;
  std::vector<bool> bad_;  ///< Gilbert–Elliott chain states.
  std::size_t round_ = 0;
  bool stepped_ = false;   ///< BeginRound called at least once.
};

}  // namespace freerider::impair
