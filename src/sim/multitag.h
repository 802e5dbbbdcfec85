// Full-stack multi-tag simulation: every layer of the paper's system in
// one loop, with no abstraction shortcuts.
//
// Per round:
//   1. The coordinator announces the round (slot count from the frame-
//      size scheduler) via packet-length modulation; each tag's
//      envelope detector measures the pulses and its controller FSM
//      (mac::TagController) either catches the announcement or sits the
//      round out — real PLM losses included. With the reliable
//      transport enabled the announcement also piggybacks the ACK
//      extension (transport/ack.h) that drives the tags' selective-
//      repeat queues.
//   2. Each slot carries one 802.11g excitation frame. Every tag whose
//      controller fires backscatters its framed payload (codeword
//      translation at the waveform level); concurrent reflections
//      superpose at the receiver.
//   3. The backscatter receiver runs the real PHY + XOR decode + tag
//      frame scan. The coordinator classifies the slot (empty / single
//      delivery / collision) from what it actually decoded and feeds
//      the observation back to the scheduler — it never peeks at the
//      tags' choices. Transport mode adds per-tag receive state on top:
//      duplicate rejection, in-order delivery, and NACK accounting.
//
// This validates that the abstract MAC simulator (slotted_aloha.h) and
// the paper's Fig. 17 behaviour follow from the real signal chain.
//
// The simulation is a stepping object (FullStackSim) so harnesses like
// the chaos soak (sim/soak.h) can observe every round and swap the
// impairment mix mid-run; RunFullStackCampaign wraps it with the
// original run-to-completion interface and, with the transport
// disabled, reproduces the pre-transport simulator bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "health/supervisor.h"
#include "impair/dynamics.h"
#include "impair/impair.h"
#include "impair/rogue.h"
#include "mac/policing.h"
#include "mac/slotted_aloha.h"
#include "mac/tag_mac.h"
#include "obs/trace.h"
#include "transport/arq.h"

namespace freerider::sim {

/// Coordinator-side recovery: when a round yields zero decodable slots
/// the coordinator cannot tell "nobody joined" from "everything
/// collided or was jammed", so it re-announces after an exponentially
/// growing idle gap — cheap when the outage is transient (an
/// interferer burst), and it stops the coordinator from spinning
/// full-rate announcements into a dead or jammed channel.
struct CoordinatorRecoveryConfig {
  bool enabled = true;
  /// Idle gap before the first re-announcement.
  double backoff_base_s = 2e-3;
  /// Backoff doubles per consecutive failed round, capped at
  /// base × 2^max_exponent.
  std::size_t max_exponent = 5;
};

struct FullStackConfig {
  std::size_t num_tags = 6;
  std::size_t rounds = 5;
  /// Backscatter receive power per reflecting tag.
  double backscatter_rx_dbm = -72.0;
  /// PLM pulse power at the tags (coordinator is close).
  double plm_power_at_tag_dbm = -38.0;
  /// Excitation frame payload per slot (sets tag-bit capacity).
  std::size_t excitation_payload_bytes = 800;
  /// Tag frame payload (id + sequence).
  std::size_t tag_payload_bytes = 2;
  /// Base translation redundancy (codewords per tag bit); 0 keeps the
  /// historical default of 4.
  std::size_t redundancy = 0;
  mac::SlotAdjustConfig adjust;
  CoordinatorRecoveryConfig recovery;
  /// Fault injection (default: everything off; off = bit-identical to
  /// the un-impaired simulator).
  impair::ImpairmentConfig impairments;
  /// Seed the fault injector's stream even when the initial impairment
  /// config is fully disabled — required by harnesses that enable
  /// faults mid-run (sim/soak.h). Off preserves the historical rng
  /// stream of fully-unimpaired campaigns.
  bool reserve_impairment_stream = false;
  /// Reliable delivery (selective-repeat ARQ). Disabled by default;
  /// a disabled transport leaves every legacy result bit-for-bit
  /// unchanged.
  transport::TransportConfig transport;
  /// Transport mode: frames the application enqueues per tag per round.
  std::size_t offered_per_round = 1;
  /// Closed-loop link supervisor (health/supervisor.h). Requires the
  /// transport; ignored otherwise. Disabled by default — off keeps
  /// every legacy result bit-for-bit unchanged (the announcement stays
  /// version 1 and no supervisor state exists).
  health::SupervisorConfig supervisor;
  /// Time-varying link dynamics (impair/dynamics.h): burst fades,
  /// mobility, blackouts. Runs on its own counter-based streams, so a
  /// fully-disabled config draws nothing and perturbs nothing.
  impair::DynamicsConfig dynamics;
  /// Byzantine participants (impair/rogue.h): babblers, slot thieves,
  /// replayers, forgers, clones, flappers. All-honest = no engine, no
  /// draws, bit-identical legacy behaviour.
  impair::RogueConfig rogue;
  /// Coordinator-side MAC policing (mac/policing.h). Requires the
  /// transport; evidence reaches the supervisor's misbehavior channel
  /// only when supervisor.policing_enabled is also set.
  mac::PolicingConfig policing;
  /// Flight-recorder sink (optional, non-owning; must outlive the sim).
  /// The sim records frame tx/rx/fade/skip and quarantine handling in
  /// virtual (round, slot) time and distributes the ring to the
  /// transport, supervisor and police layers. Null = no recording and
  /// bit-identical legacy behaviour.
  obs::TraceRing* trace = nullptr;
};

struct FullStackStats {
  std::size_t rounds = 0;
  std::size_t slots_total = 0;
  std::size_t deliveries = 0;       ///< CRC-valid tag frames received.
  std::size_t observed_collisions = 0;
  std::size_t observed_empties = 0;
  std::vector<std::size_t> per_tag_deliveries;
  double airtime_s = 0.0;
  double goodput_bps = 0.0;  ///< Tag payload bits delivered per second.
  double jain_fairness = 0.0;
  // Robustness accounting ------------------------------------------
  std::size_t faults_injected = 0;   ///< Total injected fault events.
  std::size_t desync_events = 0;     ///< Tag-side desync/resync events.
  std::size_t sequence_gaps = 0;     ///< Announcement gaps tags observed.
  std::size_t reannouncements = 0;   ///< Rounds entered under backoff.
  std::size_t rounds_recovered = 0;  ///< Deliveries resumed after failures.
  double backoff_airtime_s = 0.0;    ///< Idle time spent backing off.
  impair::FaultCounters fault_counters;
  // Transport accounting (all zero with the transport disabled) -----
  std::size_t transport_offered = 0;       ///< Frames entering the queues.
  std::size_t transport_delivered = 0;     ///< In-order app deliveries.
  std::size_t transport_duplicates = 0;    ///< Duplicate frames rejected.
  std::size_t transport_retransmissions = 0;
  std::size_t transport_expired = 0;       ///< Tag give-up drops.
  std::size_t transport_holes_skipped = 0; ///< Receiver give-up skips.
  std::size_t transport_acked = 0;
  std::size_t transport_escalations = 0;   ///< Sends above base redundancy.
  std::size_t transport_ext_rejected = 0;  ///< Corrupt ACK extensions seen.
  std::size_t transport_rejected_full = 0; ///< Enqueues refused (queue full).
  // Supervisor accounting (all zero with the supervisor disabled) ----
  std::size_t health_quarantines = 0;
  std::size_t health_recoveries = 0;
  std::size_t health_probes_sent = 0;
  std::size_t health_probe_failures = 0;
  std::size_t health_boost_commands = 0;   ///< Rounds×tags commanded >0 boost.
  std::size_t health_ooo_evicted = 0;      ///< OOO frames freed at quarantine.
  std::size_t health_resyncs = 0;          ///< Streams re-anchored on return.
  // Dynamics accounting (all zero with dynamics disabled) ------------
  std::size_t faded_frames = 0;            ///< Reflections lost to fades.
  std::size_t blackout_tag_rounds = 0;     ///< Tag-rounds spent blacked out.
  // Adversarial accounting (all zero with rogues/policing disabled) --
  std::size_t rogue_extra_frames = 0;      ///< Reflections rogues added.
  std::size_t rx_invalid_id = 0;           ///< CRC-valid, id out of range.
  std::size_t forged_ext_heard = 0;        ///< Forged downlinks tags parsed.
  std::size_t forged_ext_rejected = 0;     ///< ...killed by the codec.
  std::size_t forged_ext_accepted = 0;     ///< ...that survived (CRC-8
                                           ///< residual risk, never applied).
  std::size_t transport_replay_rejected = 0;  ///< Forward-alias rejections.
  std::size_t transport_stale_rejected = 0;   ///< Deep-stale rejections.
  /// Frames heard from a misbehavior-quarantined id: they still answer
  /// probes but are embargoed from the application stream until the
  /// identity is rehabilitated.
  std::size_t suspect_frames_dropped = 0;
  std::size_t police_evidence = 0;            ///< Evidence charged, total.
  std::size_t police_multi_fire_rounds = 0;   ///< Tag-rounds over budget.
  std::size_t police_collision_suspicions = 0;
  std::size_t misbehavior_quarantines = 0;
  std::size_t misbehavior_bans = 0;
};

/// What one simulated round did — the soak harness checks its
/// transport invariants against this, round by round.
struct RoundReport {
  std::size_t round = 0;
  std::size_t slots = 0;
  /// In-order transport deliveries, in delivery order.
  struct Delivery {
    std::uint8_t tag_id = 0;
    std::uint8_t seq = 0;
  };
  std::vector<Delivery> delivered;
  /// Sequences the receiver gave up waiting for (hole skips).
  std::vector<Delivery> skipped;
  /// Tags that backscattered this round (transport or legacy).
  std::vector<std::uint8_t> fired;
  std::size_t raw_frames = 0;   ///< CRC-valid frames before dedup.
  std::size_t duplicates = 0;   ///< Transport-rejected duplicates.
  /// Per-tag health state after this round (supervisor mode only,
  /// values are health::TagHealth) — the stress harness audits the
  /// quarantine detection bound against this.
  std::vector<std::uint8_t> health;
};

class FullStackSim {
 public:
  /// `rng` must outlive the simulation (it is the campaign's master
  /// stream, exactly as with RunFullStackCampaign).
  FullStackSim(const FullStackConfig& config, Rng& rng);
  ~FullStackSim();

  /// Simulate one round.
  RoundReport StepRound();

  /// Swap the live impairment mix (chaos schedules). With
  /// reserve_impairment_stream unset this must not be used to enable
  /// faults on a previously fault-free sim — the injector stream was
  /// never seeded.
  void SetImpairments(const impair::ImpairmentConfig& impairments);

  /// Change the offered load (frames enqueued per tag per round) for
  /// subsequent rounds — harnesses use 0 to drain the queues at the
  /// end of a campaign. Draws nothing from any rng stream.
  void SetOfferedPerRound(std::size_t offered) {
    config_.offered_per_round = offered;
  }

  /// Stop (or resume) offering load to one tag — harnesses use this
  /// when a device is known dead, the way real traffic sources stop
  /// addressing an unplugged node. Draws nothing from any rng stream.
  void SetTagOffering(std::size_t tag, bool offering) {
    if (tag < tag_offering_.size()) tag_offering_[tag] = offering ? 1 : 0;
  }

  /// Derived stats over everything stepped so far.
  FullStackStats Stats() const;

  std::size_t rounds_stepped() const { return round_; }
  /// Transport introspection (null when the transport is disabled).
  const transport::TagTransport* tag_transport(std::size_t tag) const;
  const transport::CoordinatorTransport* coordinator_transport() const {
    return coordinator_.get();
  }
  /// Supervisor / dynamics introspection (null when disabled).
  const health::LinkSupervisor* supervisor() const { return supervisor_.get(); }
  health::LinkSupervisor* supervisor() { return supervisor_.get(); }
  const impair::ChannelDynamics* dynamics() const { return dynamics_.get(); }
  impair::ChannelDynamics* dynamics() { return dynamics_.get(); }
  /// Rogue engine / MAC police introspection (null when disabled).
  const impair::RogueEngine* rogues() const { return rogue_.get(); }
  const mac::SlotPolice* police() const { return police_.get(); }

 private:
  struct SimTag;
  /// Draws one seed per tag from `rng` — must happen before the fault
  /// injector is seeded, preserving the legacy master-stream order.
  static std::vector<SimTag> MakeTags(const FullStackConfig& config,
                                      Rng& rng);

  FullStackConfig config_;
  Rng& rng_;
  std::vector<SimTag> tags_;
  mac::SlotScheduler scheduler_;
  impair::FaultInjector injector_;
  std::unique_ptr<transport::CoordinatorTransport> coordinator_;
  std::unique_ptr<health::LinkSupervisor> supervisor_;
  std::unique_ptr<impair::ChannelDynamics> dynamics_;
  std::unique_ptr<impair::RogueEngine> rogue_;
  std::unique_ptr<mac::SlotPolice> police_;
  /// Previous-round duplicate totals per tag (supervisor observation
  /// wants per-round deltas, the transport keeps running totals).
  std::vector<std::size_t> prev_duplicates_;
  /// Previous-round replay/stale/beyond-window totals per tag (the
  /// deltas are misbehavior evidence for the supervisor).
  std::vector<std::size_t> prev_replay_;
  std::vector<std::size_t> prev_stale_;
  std::vector<std::size_t> prev_beyond_;
  /// This round's rejection-class frames heard under the suspect
  /// embargo (classified, never run through the stream); consumed and
  /// zeroed by the supervisor observation each round.
  std::vector<std::size_t> embargo_evidence_;
  /// Per-tag offer gate (SetTagOffering); 1 = offered load flows.
  std::vector<std::uint8_t> tag_offering_;
  std::size_t round_ = 0;
  std::size_t consecutive_failed_rounds_ = 0;
  FullStackStats stats_;
};

FullStackStats RunFullStackCampaign(const FullStackConfig& config, Rng& rng);

}  // namespace freerider::sim
