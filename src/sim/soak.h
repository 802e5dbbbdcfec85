// Chaos-soak harness for the reliable tag-data transport.
//
// A soak drives the full-stack simulator (sim/multitag.h) for
// thousands of rounds under a *schedule* of impairment mixes — loss
// regimes switch mid-run, exactly the regime changes the selective-
// repeat machinery has to survive — and checks the transport's
// end-to-end invariants against every round's RoundReport:
//
//   * no duplicate   — each (tag, seq) is app-delivered at most once;
//   * no reorder     — per tag, deliveries (and explicit hole-skips)
//                      advance the sequence space strictly in order;
//   * eventual       — in strict mode, everything a tag accepted into
//     delivery         its queue is delivered by the end of the drain
//                      phase (no expiry, no receiver hole-skip);
//   * no stuck tag   — after the drain phase every queue is empty.
//
// Failures are the product here, so a violated soak emits a
// self-contained JSON *replay record*: the full config, the impairment
// schedule, the seed, and the run's outcome digest. tools/replay_soak
// re-runs a record and must land on a bit-identical digest — chaos
// findings that cannot be reproduced are noise.
//
// Determinism contract: everything derives from SoakConfig::seed via
// the repo's Rng; the sim is constructed with
// reserve_impairment_stream so mid-run schedule swaps never perturb
// the master stream. Same record ⇒ same digest, bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/campaign_audit.h"
#include "sim/multitag.h"

namespace freerider::sim {

/// One leg of the impairment schedule: from `start_round` (inclusive)
/// until the next segment takes over, the sim runs under `impairments`.
struct SoakSegment {
  std::size_t start_round = 0;
  impair::ImpairmentConfig impairments;
};

/// Applies a schedule sorted by start_round (ParseSoakReplay rejects
/// any other): call Apply before stepping each round, rounds ascending,
/// on a sim with reserve_impairment_stream.
struct SoakSegmentCursor {
  const std::vector<SoakSegment>& schedule;
  std::size_t next = 0;

  void Apply(std::size_t round, FullStackSim& sim) {
    for (; next < schedule.size() && schedule[next].start_round <= round;
         ++next) {
      sim.SetImpairments(schedule[next].impairments);
    }
  }
};

/// Offered load must sit below the channel's collision-limited capacity,
/// or eventual delivery is unachievable. The drain runs under the last
/// segment's mix; the no-stuck and eventual invariants are judged after.
struct SoakConfig : CampaignRoundsConfig {
  /// Strict mode: expiry, receiver hole-skips, and queue-full rejects
  /// are invariant violations (the acceptance posture). Non-strict
  /// soaks only police duplicates/reordering — for probing schedules
  /// beyond the transport's give-up envelope.
  bool strict = true;
  /// Impairment schedule, sorted by start_round (segment 0 should
  /// start at round 0; rounds before the first segment run clean).
  std::vector<SoakSegment> schedule;
};

struct SoakResult {
  bool passed = false;
  /// duplicate | reorder | skip | expired | queue-full | stuck | lost
  ViolationLog violations;
  FullStackStats stats;
  /// Canonical outcome string: every violation plus a stats digest,
  /// doubles in hex-float. Two runs agree iff their digests are equal
  /// byte-for-byte — this is the replay-verification currency.
  std::string digest;
};

/// Run one soak campaign. Deterministic in `config`.
SoakResult RunSoak(const SoakConfig& config);

/// Serialize a soak finding as a self-contained JSON replay record
/// (config + schedule + the digest the original run produced).
std::string SoakReplayJson(const SoakConfig& config, const SoakResult& result);

/// Parse a replay record back into the config (+ the recorded digest,
/// if present). Returns std::nullopt on malformed input — the parser
/// is strict; a record that does not round-trip is not a record.
struct SoakReplay {
  SoakConfig config;
  std::string expect_digest;
};
std::optional<SoakReplay> ParseSoakReplay(const std::string& json);

/// As above, but reports *why* a record was rejected (duplicate key,
/// out-of-range field, unsorted schedule, ...) in `error` — the
/// message tools/replay_soak prints.
std::optional<SoakReplay> ParseSoakReplay(const std::string& json,
                                          std::string* error);

/// Bit-exact SoakResult (de)serialization for checkpoint payloads:
/// verdict, every violation, the FullStackStats counters a soak
/// reports, and the digest round-trip byte-identically (doubles in
/// hex-float).
std::string SerializeSoakResult(const SoakResult& result);
bool DeserializeSoakResult(const std::string& payload, SoakResult* result);

}  // namespace freerider::sim
