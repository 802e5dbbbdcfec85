// Coordinator-side self-healing link supervisor.
//
// FreeRider's evaluation runs against static link geometries, but the
// deployment story — tags riding ambient traffic in an office — implies
// links that fade, burst-error and black out as people move and
// interferers come and go (GuardRider, arXiv:1912.06493, adapts to
// exactly this). The supervisor closes that loop on the coordinator:
// it watches what each tag's link actually delivers, estimates link
// health with EWMAs, runs a per-tag state machine
//
//   Healthy ──loss↑──▶ Degraded ──sustained silence──▶ Probation
//      ▲                  │  ▲                            │    │
//      │  loss↓           │  │         probe answered     │    │ probe
//      └──────────────────┘  └──(back to data service)────┘    │ failures
//   Healthy ◀──hold──── Recovered ◀──probe answered── Quarantined
//                                      (slow re-probe)
//
// and drives three control levers through the version-2 PLM extension
// (health/wire.h): per-tag redundancy-ladder boost (reliability vs
// rate), per-tag admission (quarantined tags stop wasting uplink
// slots), and probe frames (bounded-cost liveness checks). All
// decisions are pure functions of the observation stream, so a
// campaign replayed from the same seed reproduces every transition
// bit-for-bit.
//
// The quarantine detection bound (asserted by sim/stress and
// bench_stress_supervisor): a tag that goes permanently silent is
// quarantined within
//
//   silent_to_probation
//     + probe_failures_to_quarantine × (probe_interval_rounds +
//                                       probe_response_rounds)
//
// PLM rounds of its last heard frame (QuarantineDetectionBound()).
#pragma once

#include <cstdint>
#include <vector>

#include "health/wire.h"
#include "obs/trace.h"

namespace freerider::health {

enum class TagHealth : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kProbation = 2,
  kQuarantined = 3,
  kRecovered = 4,
};

const char* TagHealthName(TagHealth state);

struct SupervisorConfig {
  /// Off by default: every consumer of the multitag simulator keeps
  /// bit-for-bit legacy behaviour unless it opts in.
  bool enabled = false;
  /// EWMA smoothing factor for all three estimators.
  double ewma_alpha = 0.25;
  /// Loss EWMA at or above this leaves Healthy for Degraded.
  double degrade_loss = 0.35;
  /// Loss EWMA at or below this returns Degraded to Healthy.
  double recover_loss = 0.15;
  /// Loss EWMA thresholds commanding 2 / 3 redundancy boost steps
  /// (one step is commanded for the whole Degraded/Recovered stay).
  double boost2_loss = 0.55;
  double boost3_loss = 0.80;
  /// Retransmit-pressure EWMA at or above this commands at least one
  /// boost step even while Healthy-adjacent loss looks fine.
  double retx_boost = 0.60;
  /// Consecutive expected-but-silent rounds before a Degraded (or
  /// Recovered) tag is moved to Probation and probed.
  std::size_t silent_to_probation = 6;
  /// Rounds between probes while in Probation.
  std::size_t probe_interval_rounds = 3;
  /// Rounds a probe may remain unanswered before it counts as failed.
  std::size_t probe_response_rounds = 2;
  /// Consecutive failed probes before Probation hardens to Quarantined.
  std::size_t probe_failures_to_quarantine = 3;
  /// Re-probe cadence while Quarantined (slow: a dead tag must cost
  /// almost nothing).
  std::size_t quarantine_reprobe_rounds = 25;
  /// Clean rounds a Recovered tag must hold before it is Healthy again.
  std::size_t recovered_hold_rounds = 8;
  /// Health command blocks per announcement (≤ kMaxHealthBlocks).
  std::size_t command_blocks_per_round = kMaxHealthBlocks;

  // Misbehavior policing (the Byzantine evidence channel; off by
  // default — every pre-policing consumer keeps bit-identical
  // behaviour). Evidence rounds drive a per-tag EWMA score toward 1;
  // clean rounds decay it. At or above `misbehavior_threshold` the tag
  // is quarantined from *any* state; the quarantine is sticky (probe
  // answers do not readmit) until the score decays to
  // `misbehavior_release`, and repeat offenses accumulate strikes
  // toward a permanent ban.
  bool policing_enabled = false;
  /// EWMA gain applied on rounds with misbehavior evidence.
  double misbehavior_alpha = 0.4;
  /// Score at or above this quarantines the tag (misbehavior edge).
  double misbehavior_threshold = 0.7;
  /// Probes (and therefore readmission) resume only below this.
  double misbehavior_release = 0.15;
  /// Per-round multiplicative decay on evidence-free rounds.
  double misbehavior_decay = 0.1;
  /// Evidence count in a single round that saturates the score
  /// immediately (a babbling idiot must not get n* grace rounds).
  std::size_t flagrant_evidence = 4;
  /// Misbehavior quarantines (entries + probe-cycle relapses) before
  /// the tag is banned: admit stays 0 and probing stops for good.
  std::size_t misbehavior_strikes_to_ban = 2;
};

/// Worst-case rounds from a tag's last heard frame to its Quarantined
/// transition under `config` (the documented detection bound).
std::size_t QuarantineDetectionBound(const SupervisorConfig& config);

/// Worst-case rounds from a tag's *first misbehavior evidence* to its
/// misbehavior quarantine, assuming evidence lands in at least every
/// other observed round (sub-flagrant offenders whose frames sometimes
/// collide). Derivation (DESIGN.md §10): continuous evidence crosses
/// the threshold after n* = ⌈ln(1−θ)/ln(1−α)⌉ rounds; half-duty
/// evidence doubles that, and 4 rounds of slack cover inter-evidence
/// decay plus the park command riding the next announcement. Flagrant
/// offenders saturate in one round and beat this bound trivially.
std::size_t MisbehaviorDetectionBound(const SupervisorConfig& config);

/// What the coordinator observed about one tag in one round.
struct TagRoundObservation {
  /// CRC-valid frames heard from this tag (before transport dedup).
  std::size_t frames_heard = 0;
  /// Transport-level duplicates among them (retransmit pressure).
  std::size_t duplicates = 0;
  /// Holes currently open in the tag's receive window (NACK pressure).
  std::size_t nacks_outstanding = 0;
  /// Misbehavior evidence charged this round (slot-occupancy police,
  /// replay rejections, identity-collision suspicion — mac/policing.h).
  /// Ignored unless policing_enabled.
  std::size_t misbehavior_evidence = 0;
};

struct RoundObservation {
  std::size_t round = 0;
  /// Slot-level classification of the round (CRC-failure-rate input:
  /// collisions are slots with energy that decoded nothing).
  std::size_t singles = 0;
  std::size_t collisions = 0;
  std::size_t empties = 0;
  std::vector<TagRoundObservation> tags;
};

/// One state-machine transition, for the bench's bounded-detection
/// audit and the model-based tests.
struct HealthTransition {
  std::size_t round = 0;
  std::uint8_t tag_id = 0;  ///< 1-based, as on the air.
  TagHealth from = TagHealth::kHealthy;
  TagHealth to = TagHealth::kHealthy;
  /// The transition was driven by the misbehavior evidence channel
  /// (the only way Quarantined is reachable from Healthy/Degraded/
  /// Recovered — the model-based test keys the legal-edge table on
  /// this flag).
  bool misbehavior = false;
};

struct SupervisorStats {
  std::size_t degradations = 0;
  std::size_t probations = 0;
  std::size_t quarantines = 0;
  std::size_t recoveries = 0;   ///< Probe answered from Probation/Quarantine.
  std::size_t readmissions = 0; ///< Recovered → Healthy completions.
  std::size_t probes_sent = 0;
  std::size_t probe_failures = 0;
  std::size_t boost_commands = 0;  ///< Rounds×tags with boost_steps > 0.
  // Misbehavior policing (all zero unless policing_enabled) ----------
  std::size_t evidence_rounds = 0;          ///< Tag-rounds with evidence.
  std::size_t misbehavior_quarantines = 0;  ///< Evidence-driven entries.
  std::size_t misbehavior_relapses = 0;     ///< Re-offenses while parked.
  std::size_t bans = 0;                     ///< Tags struck out for good.
};

class LinkSupervisor {
 public:
  LinkSupervisor(std::size_t num_tags, const SupervisorConfig& config);

  /// Feed one completed round. Updates every tag's estimators and runs
  /// the state machines; commands returned by `command()` and
  /// `BuildExtension()` reflect the post-round state.
  void ObserveRound(const RoundObservation& obs);

  /// The full desired command for a tag (0-based index), regardless of
  /// whether this round's extension has room to carry it.
  TagCommand command(std::size_t tag) const;

  /// Pick this round's command blocks: probes first, then tags whose
  /// command recently changed, then a round-robin refresh. Mutates the
  /// rotation cursor — call exactly once per announcement.
  HealthExtension BuildExtension();

  TagHealth health(std::size_t tag) const { return tags_[tag].state; }
  /// Loss EWMA (diagnostics / stress reporting).
  double loss_ewma(std::size_t tag) const { return tags_[tag].loss; }
  /// Misbehavior score EWMA (0 with policing disabled).
  double misbehavior_score(std::size_t tag) const {
    return tags_[tag].misbehavior_score;
  }
  /// The tag's current quarantine was evidence-driven (sticky until
  /// the score decays to misbehavior_release).
  bool misbehavior_quarantined(std::size_t tag) const {
    return tags_[tag].misbehaving;
  }
  std::size_t misbehavior_strikes(std::size_t tag) const {
    return tags_[tag].strikes;
  }
  bool banned(std::size_t tag) const { return tags_[tag].banned; }
  /// Global CRC-failure-rate EWMA (collisions / active slots).
  double crc_fail_ewma() const { return crc_fail_; }
  std::size_t num_tags() const { return tags_.size(); }
  /// Tags currently allowed to contend for data slots.
  std::size_t admitted_tags() const;

  const SupervisorStats& stats() const { return stats_; }
  /// Transition log, capped at kMaxTransitionLog entries (the count in
  /// stats keeps incrementing past the cap).
  const std::vector<HealthTransition>& transitions() const {
    return transitions_;
  }

  /// Tags that entered Quarantined during the last ObserveRound, and
  /// tags re-admitted (probe answered) during it. Consumed on read —
  /// the simulator uses these to evict / resync coordinator transport
  /// state exactly once per transition.
  std::vector<std::size_t> TakeFreshQuarantines();
  std::vector<std::size_t> TakeFreshReadmissions();

  /// Flight-recorder sink (optional, non-owning). FSM transitions and
  /// probe sends are recorded in virtual round time; a null ring
  /// disables recording with zero behavior change. The sink is runtime
  /// wiring, not supervisor state.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }

  static constexpr std::size_t kMaxTransitionLog = 4096;

 private:
  struct TagState {
    TagHealth state = TagHealth::kHealthy;
    double loss = 0.0;  ///< Frame-loss EWMA (1 = every round silent).
    double retx = 0.0;  ///< Retransmit-pressure EWMA.
    bool loss_primed = false;
    bool retx_primed = false;
    std::size_t silent_rounds = 0;  ///< Consecutive expected-but-silent.
    std::size_t clean_rounds = 0;   ///< Consecutive rounds heard from.
    std::size_t probe_failures = 0;
    bool probe_outstanding = false;
    std::size_t probe_sent_round = 0;
    std::size_t last_probe_round = 0;
    bool command_dirty = true;  ///< Command changed since last broadcast.
    TagCommand cmd;
    // Misbehavior policing state --------------------------------------
    double misbehavior_score = 0.0;  ///< Evidence EWMA (no priming: one
                                     ///< stray glitch never quarantines).
    bool misbehaving = false;   ///< Current quarantine is evidence-driven.
    std::size_t strikes = 0;    ///< Misbehavior quarantines + relapses.
    bool banned = false;        ///< Struck out: parked forever, no probes.
    /// Re-offense detector while quarantined: armed when the score has
    /// decayed to release (probing resumed), fires a strike when the
    /// score re-crosses the threshold.
    bool relapse_armed = false;
  };

  void Transition(TagState& tag, std::size_t index, std::size_t round,
                  TagHealth to, bool misbehavior = false);
  void RefreshCommand(TagState& tag, std::size_t index);
  std::uint8_t BoostFor(const TagState& tag) const;

  SupervisorConfig config_;
  std::vector<TagState> tags_;
  double crc_fail_ = 0.0;
  bool crc_primed_ = false;
  std::size_t round_ = 0;  ///< Rounds observed.
  std::size_t rotation_ = 0;
  SupervisorStats stats_;
  std::vector<HealthTransition> transitions_;
  std::vector<std::size_t> fresh_quarantines_;
  std::vector<std::size_t> fresh_readmissions_;
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace freerider::health
