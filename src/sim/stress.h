// Long-horizon stress harness for the self-healing link supervisor.
//
// A stress campaign drives the full-stack simulator for thousands of
// rounds under *time-varying* channel dynamics (impair/dynamics.h):
// Gilbert–Elliott burst fades, mobility drift, scheduled blackouts,
// and optionally one tag that dies mid-campaign and never returns.
// The same schedule runs with the supervisor on or off — the paired
// comparison bench_stress_supervisor reports — and every run is
// audited against the supervisor's contract:
//
//   * no duplicate / no reorder — per tag, transport deliveries
//     advance the sequence space strictly forward (the tracker is
//     re-anchored across an explicit stream resync, which is the only
//     place the transport itself allows a repeat);
//   * bounded quarantine detection — a tag configured to die must be
//     Quarantined within QuarantineDetectionBound() rounds of its
//     death (or already quarantined when it dies) and must never
//     leave Quarantined afterwards (supervisor-on runs only);
//   * healthy-tag isolation — a tag that was never quarantined must
//     never have its receive stream resynced or its OOO buffer
//     evicted: recovery actions are surgical, not global.
//
// Determinism contract: everything derives from StressConfig (seed,
// schedule, knobs); the dynamics run on counter-based per-(tag, round)
// streams, so RunStress is a pure function — the digest of a config
// is bit-stable across runs, thread counts, and checkpoint/resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/campaign_audit.h"
#include "sim/multitag.h"

namespace freerider::sim {

/// RunStress forces `transport.enabled` on and `supervisor.enabled` to
/// supervisor_on.
struct StressConfig : CampaignConfig {
  /// The paired A/B knob: same schedule, supervisor on or off.
  bool supervisor_on = true;
  /// Optional dead tag: 0-based index blacked out from `dead_round` to
  /// the end of the campaign (num_tags or larger = no dead tag). The
  /// quarantine-bound audit keys off this.
  std::size_t dead_tag = static_cast<std::size_t>(-1);
  std::size_t dead_round = 0;

  bool HasDeadTag() const { return dead_tag < num_tags; }
};

struct StressResult {
  /// All audited invariants held (the delivery target is the bench's
  /// call — it compares on vs off).
  bool passed = false;
  /// transport_delivered / transport_offered. Offers a blacked-out
  /// tag's queue refuses (capacity) never count as offered.
  double delivery_ratio = 0.0;
  std::size_t offered = 0;
  std::size_t delivered = 0;
  std::size_t expired = 0;
  std::size_t rejected_full = 0;
  std::size_t duplicates = 0;
  /// Frames the coordinator gave up waiting for (hole skip): the
  /// stream advanced past them, so they are permanently undelivered.
  std::size_t skipped = 0;
  std::size_t faded_frames = 0;
  std::size_t blackout_tag_rounds = 0;
  std::size_t quarantines = 0;
  std::size_t recoveries = 0;
  std::size_t probes_sent = 0;
  std::size_t boost_commands = 0;
  std::size_t resyncs = 0;
  std::size_t ooo_evicted = 0;
  // Quarantine-bound audit (dead-tag + supervisor-on runs only).
  bool dead_tag_audited = false;
  bool quarantine_bound_met = true;
  std::size_t quarantine_round = 0;   ///< Round the dead tag was quarantined.
  std::size_t detection_rounds = 0;   ///< Rounds from last heard to quarantine.
  std::size_t detection_bound = 0;    ///< QuarantineDetectionBound(config).
  /// duplicate | reorder | resync_healthy | no_quarantine | ...
  ViolationLog violations;
  /// Canonical outcome string (doubles in hex-float): two runs agree
  /// iff their digests are equal byte-for-byte.
  std::string digest;
  /// Serialized flight-recorder ring (obs::SerializeTrace, one named
  /// trace "stress"). Rides the checkpoint payload so a resumed task
  /// reproduces the export byte-for-byte; empty when tracing is off.
  std::string trace;
};

/// Run one stress campaign. Deterministic in `config`.
StressResult RunStress(const StressConfig& config);

/// The bench_stress_supervisor schedule, scaled to `rounds`: burst
/// fades, a two-excursion mobility trace, two transient blackouts, and
/// one dead tag. Lives in the sim library (not the bench) so the
/// distributed "stress_supervisor" body builds the *identical*
/// campaign on both sides of the worker pipe.
StressConfig MakeStressBenchConfig(std::uint64_t seed, bool supervisor_on,
                                   std::size_t rounds);

/// The stress bench's transport posture: a generous per-frame retry
/// budget over a tight queue. bench_adversarial_mac runs the same one.
transport::TransportConfig StressBenchTransport();

/// The bench's three campaign seeds — the points axis of its
/// seed×{on,off} grid.
const std::vector<std::uint64_t>& StressBenchSeeds();

/// Bit-exact StressResult (de)serialization for checkpoint payloads —
/// a restored result reproduces the bench row (and digest) exactly.
std::string SerializeStressResult(const StressResult& result);
bool DeserializeStressResult(const std::string& payload,
                             StressResult* result);

}  // namespace freerider::sim
