// Adversarial soak harness: Byzantine rogues vs the coordinator's
// defenses, end to end through the full-PHY simulator.
//
// A campaign plants rogue tags (impair/rogue.h) among honest victims
// and runs the full stack for hundreds of rounds, twice the same way:
// defenses on (slot police + misbehavior evidence channel + transport
// replay guard) and defenses off (supervisor still running, so the off
// arm is the strongest pre-policing baseline, not a strawman). Every
// run is audited against the defense contract:
//
//   * transport invariants — per audited id, deliveries advance the
//     sequence space strictly forward (sim/campaign_audit's SeqAudit,
//     shared with sim/stress and sim/soak);
//     with defenses on this must hold for *every* id including the
//     rogues' — a replayed frame that sneaks through the wrap shows up
//     here as a duplicate/reorder violation;
//   * bounded misbehavior detection — each frame-level offender
//     (babbler, slot thief, replayer, the cloned identity) must be
//     Quarantined within MisbehaviorDetectionBound() rounds, and a
//     clone's abandoned own identity within QuarantineDetectionBound();
//   * containment — every audited offender is still parked
//     (Quarantined) when the campaign ends: probe-cycle relapses must
//     strike it out, not readmit it;
//   * no-abort — the campaign itself completing with classified
//     counters (invalid ids, forged extensions, replay rejections) and
//     no crash is the receive-path robustness claim.
//
// Victim delivery is computed over honest tags only (rogues and the
// identities clones pollute are excluded): the bench's headline is the
// defended victims' floor vs the undefended collapse.
//
// Determinism contract: identical to sim/stress — everything derives
// from AdversarialConfig, the rogue engine runs on counter-based
// streams, and the result digest is bit-stable across runs, thread
// counts and checkpoint/resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/campaign_audit.h"
#include "sim/multitag.h"

namespace freerider::sim {

/// RunAdversarial forces `transport.enabled` and `supervisor.enabled`
/// on; `transport.replay_guard` and `supervisor.policing_enabled`
/// follow defenses_on. `dynamics` is an optional honest-channel
/// impairment running underneath the attack.
struct AdversarialConfig : CampaignConfig {
  /// The paired A/B knob: defenses on wires the police, the misbehavior
  /// evidence channel and the transport replay guard; defenses off
  /// leaves only the plain supervisor (both arms see the same rogues).
  bool defenses_on = true;
  /// Police knobs; `enabled` follows defenses_on.
  mac::PolicingConfig policing;
  /// The adversaries under test.
  impair::RogueConfig rogue;
};

/// One audited (rogue, identity) pair and its detection verdict.
struct RogueAudit {
  std::size_t tag = 0;        ///< 0-based rogue index.
  std::uint8_t wire_id = 0;   ///< The audited on-air identity (1-based).
  std::string model;          ///< RogueModelName + "" / "_own_id".
  /// The detection path this identity must fall to: true = misbehavior
  /// evidence (MisbehaviorDetectionBound), false = silence
  /// (QuarantineDetectionBound).
  bool via_misbehavior = true;
  bool quarantined = false;
  bool bound_met = false;
  bool parked_at_end = false;
  std::size_t quarantine_round = 0;  ///< First Quarantined transition.
  std::size_t bound = 0;             ///< The applicable derived bound.
};

struct AdversarialResult {
  /// Defense contract held: zero invariant violations and (defenses-on
  /// runs) every audit detected in bound and parked at the end. An
  /// undefended run with a replayer is *expected* to fail this — that
  /// failure is the demonstration.
  bool passed = false;
  /// Victim-only delivery: transport_delivered / offered over honest
  /// tags whose identity no rogue pollutes.
  double victim_delivery = 0.0;
  std::size_t victim_offered = 0;
  std::size_t victim_delivered = 0;
  std::size_t rogue_extra_frames = 0;
  std::size_t rx_invalid_id = 0;
  std::size_t replay_rejected = 0;
  std::size_t stale_rejected = 0;
  std::size_t police_evidence = 0;
  std::size_t collision_suspicions = 0;
  std::size_t misbehavior_quarantines = 0;
  std::size_t bans = 0;
  std::size_t forged_heard = 0;
  std::size_t forged_rejected = 0;
  std::size_t forged_accepted = 0;
  std::vector<RogueAudit> audits;
  /// First kMaxRecordedViolations violations verbatim; the total keeps
  /// counting past the cap.
  ViolationLog violations{kMaxRecordedViolations};
  /// Canonical outcome string (doubles in hex-float): two runs agree
  /// iff their digests are equal byte-for-byte.
  std::string digest;
  /// Serialized flight-recorder ring (obs::SerializeTrace, one named
  /// trace "adversarial"). Rides the checkpoint payload so a resumed
  /// task reproduces the export byte-for-byte; empty when tracing off.
  std::string trace;

  static constexpr std::size_t kMaxRecordedViolations = 64;
};

/// Run one adversarial campaign. Deterministic in `config`.
AdversarialResult RunAdversarial(const AdversarialConfig& config);

/// Bit-exact AdversarialResult (de)serialization for checkpoint
/// payloads — a restored result reproduces the bench row (and digest)
/// exactly.
std::string SerializeAdversarialResult(const AdversarialResult& result);
bool DeserializeAdversarialResult(const std::string& payload,
                                  AdversarialResult* result);

}  // namespace freerider::sim
