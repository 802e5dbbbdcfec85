#include "sim/multitag.h"

#include <algorithm>
#include <set>

#include "common/bits.h"
#include "common/stats.h"
#include "core/tag_frame.h"
#include "health/wire.h"
#include "sim/slot_chain.h"
#include "tag/envelope_detector.h"
#include "transport/ack.h"

namespace freerider::sim {

/// One tag's firmware + identity (+ its transport queue when enabled).
struct FullStackSim::SimTag {
  SimTag(std::uint64_t seed, const mac::TagRecoveryConfig& recovery)
      : controller(seed, {}, recovery) {}

  /// The legacy slot payload: [id, sequence], framed, one fresh
  /// sequence per transmission (fire-and-forget — nothing ever
  /// retries).
  BitVector LegacySlotBits() {
    Bytes payload = {id, sequence};
    ++sequence;
    return core::EncodeTagFrame(payload);
  }

  mac::TagController controller;
  std::uint8_t id = 0;
  std::uint8_t sequence = 0;  ///< Legacy fire-and-forget counter.
  std::unique_ptr<transport::TagTransport> arq;
  /// Last health command heard (sticky: admit/boost persist until the
  /// next command block for this tag survives the air).
  health::TagCommand cmd;
  /// Probe is edge-triggered: respond in the round it was heard.
  bool probe_this_round = false;
};

namespace {

mac::TagRecoveryConfig RecoveryFor(const FullStackConfig& config) {
  mac::TagRecoveryConfig recovery;
  recovery.extended_announcements = config.transport.enabled;
  return recovery;
}

}  // namespace

std::vector<FullStackSim::SimTag> FullStackSim::MakeTags(
    const FullStackConfig& config, Rng& rng) {
  std::vector<SimTag> tags;
  tags.reserve(config.num_tags);
  const mac::TagRecoveryConfig recovery = RecoveryFor(config);
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    tags.emplace_back(rng.NextU64(), recovery);
    tags.back().id = static_cast<std::uint8_t>(t + 1);
    if (config.transport.enabled) {
      tags.back().arq =
          std::make_unique<transport::TagTransport>(config.transport);
    }
  }
  return tags;
}

FullStackSim::FullStackSim(const FullStackConfig& config, Rng& rng)
    : config_(config),
      rng_(rng),
      // Init order matters for stream compatibility: tag seeds are
      // drawn first (tags_ is declared before injector_), then the
      // injector's seed — exactly the legacy draw order.
      tags_(MakeTags(config, rng)),
      scheduler_(config.adjust),
      // Seed the injector from the master stream only when something is
      // enabled (or a harness reserved the stream for mid-run schedule
      // swaps): a disabled config must not advance `rng`, so un-impaired
      // campaigns stay bit-identical to the pre-impairment simulator.
      injector_(config.impairments,
                (config.impairments.AnyEnabled() ||
                 config.reserve_impairment_stream)
                    ? rng.NextU64()
                    : 0) {
  stats_.per_tag_deliveries.assign(config_.num_tags, 0);
  if (config_.transport.enabled) {
    coordinator_ = std::make_unique<transport::CoordinatorTransport>(
        config_.num_tags, config_.transport);
  }
  // Supervisor and dynamics are constructed off the master stream:
  // the supervisor is a pure function of observations and the dynamics
  // run on their own counter-based seed, so enabling neither perturbs
  // the legacy rng draw order above.
  if (config_.supervisor.enabled && config_.transport.enabled) {
    supervisor_ = std::make_unique<health::LinkSupervisor>(
        config_.num_tags, config_.supervisor);
    prev_duplicates_.assign(config_.num_tags, 0);
    for (SimTag& t : tags_) t.cmd.tag_id = t.id;
  }
  tag_offering_.assign(config_.num_tags, 1);
  if (config_.dynamics.AnyEnabled()) {
    dynamics_ = std::make_unique<impair::ChannelDynamics>(config_.dynamics,
                                                          config_.num_tags);
  }
  // Rogues and the police are also off the master stream (the engine
  // runs on its own counter-based seed, the police draws nothing), so
  // an all-honest config perturbs nothing.
  if (config_.rogue.AnyEnabled()) {
    rogue_ = std::make_unique<impair::RogueEngine>(config_.rogue,
                                                   config_.num_tags);
  }
  if (config_.policing.enabled && config_.transport.enabled) {
    police_ =
        std::make_unique<mac::SlotPolice>(config_.policing, config_.num_tags);
  }
  if (config_.transport.enabled) {
    prev_replay_.assign(config_.num_tags, 0);
    prev_stale_.assign(config_.num_tags, 0);
    prev_beyond_.assign(config_.num_tags, 0);
    embargo_evidence_.assign(config_.num_tags, 0);
  }
  // Distribute the flight-recorder ring (observation only: a null or
  // non-null ring never changes any decision above).
  if (config_.trace != nullptr) {
    for (SimTag& t : tags_) {
      if (t.arq != nullptr) t.arq->set_trace(config_.trace, t.id);
    }
    if (coordinator_ != nullptr) {
      for (std::size_t t = 0; t < config_.num_tags; ++t) {
        coordinator_->rx(t).set_trace(config_.trace,
                                      static_cast<std::uint8_t>(t + 1));
      }
    }
    if (supervisor_ != nullptr) supervisor_->set_trace(config_.trace);
    if (police_ != nullptr) police_->set_trace(config_.trace);
  }
}

FullStackSim::~FullStackSim() = default;

void FullStackSim::SetImpairments(const impair::ImpairmentConfig& impairments) {
  injector_.Reconfigure(impairments);
}

const transport::TagTransport* FullStackSim::tag_transport(
    std::size_t tag) const {
  return tag < tags_.size() ? tags_[tag].arq.get() : nullptr;
}

RoundReport FullStackSim::StepRound() {
  const bool arq = config_.transport.enabled;
  const bool sup = supervisor_ != nullptr;
  const bool dyn = dynamics_ != nullptr;
  const bool rogues = rogue_ != nullptr;
  RoundReport report;
  report.round = round_;

  if (rogues) rogue_->BeginRound(round_);
  if (police_) police_->BeginRound(round_);

  if (dyn) {
    dynamics_->BeginRound(round_);
    for (std::size_t t = 0; t < config_.num_tags; ++t) {
      if (dynamics_->link(t).blackout) ++stats_.blackout_tag_rounds;
    }
  }

  ++stats_.rounds;
  const std::size_t slots = scheduler_.current_slots();
  report.slots = slots;

  if (config_.recovery.enabled && consecutive_failed_rounds_ > 0) {
    // Last round decoded nothing: this announcement is a re-try
    // after an exponentially growing idle gap.
    const std::size_t exponent = std::min<std::size_t>(
        consecutive_failed_rounds_ - 1, config_.recovery.max_exponent);
    const double backoff = config_.recovery.backoff_base_s *
                           static_cast<double>(std::size_t{1} << exponent);
    stats_.backoff_airtime_s += backoff;
    stats_.airtime_s += backoff;
    ++stats_.reannouncements;
  }

  if (arq) {
    for (std::size_t ti = 0; ti < tags_.size(); ++ti) {
      SimTag& t = tags_[ti];
      t.arq->OnRoundStart(round_);
      if (!tag_offering_[ti]) continue;
      for (std::size_t i = 0; i < config_.offered_per_round; ++i) {
        t.arq->Enqueue(round_);
      }
    }
  }

  // 1. PLM announcement through each tag's envelope detector. With the
  // transport enabled the announcement carries the ACK extension; its
  // longer pulse train is real airtime, charged below.
  const tag::EnvelopeDetector detector;
  const mac::PlmConfig plm;
  mac::RoundAnnouncement announcement;
  announcement.slots = slots;
  announcement.sequence = static_cast<std::uint8_t>(round_);
  BitVector payload;
  if (sup) {
    // Version-2 extension: ACK blocks and health command blocks share
    // one announcement (the v2 ACK budget is tighter than v1's).
    const transport::AckExtension acks =
        coordinator_->BuildExtension(health::kMaxAckBlocksV2);
    payload = health::BuildAnnouncementHealth(announcement, acks,
                                              supervisor_->BuildExtension());
  } else if (arq) {
    payload = transport::BuildAnnouncementExtended(
        announcement, coordinator_->BuildExtension());
  } else {
    payload = mac::BuildAnnouncement(announcement);
  }
  const BitVector message = mac::BuildPlmMessage(payload);
  const auto pulses =
      mac::EncodePlm(message, 0.0, config_.plm_power_at_tag_dbm, plm);
  stats_.airtime_s +=
      pulses.back().start_s + pulses.back().duration_s + plm.gap_s;
  for (std::size_t ti = 0; ti < tags_.size(); ++ti) {
    SimTag& t = tags_[ti];
    // A blacked-out tag hears nothing at all: no excitation reaches it,
    // so no pulses, no announcement, no commands (they are sticky and
    // re-sent round-robin, so the loop catches up when the link does).
    if (dyn && dynamics_->link(ti).blackout) continue;
    // A flapper in its off-phase has left the cell: same deal.
    if (rogues && !rogue_->Joined(ti)) continue;
    // A clone listens under the identity it assumed — it hears (and
    // obeys, per the threat model) the commands addressed to its
    // victim's id.
    const std::uint8_t listen_id = rogues ? rogue_->WireId(ti) : t.id;
    // The physical detector model first (misses, jitter — main rng),
    // then the injected envelope faults (injector's own rng).
    std::vector<tag::MeasuredPulse> detected;
    detected.reserve(pulses.size());
    for (const auto& p : pulses) {
      if (auto m = detector.Detect(p, rng_)) detected.push_back(*m);
    }
    for (const auto& m : injector_.ImpairPulses(std::move(detected))) {
      t.controller.OnPulse(m);
    }
    // ACK blocks (if the round-robin included us and the extension
    // survived the air) feed the selective-repeat queue; health blocks
    // update the tag's sticky command state. The tag understands the
    // versions its coordinator's mode sends: a transport-only tag
    // rejects version 2 (DESIGN.md §9).
    if (!arq) continue;
    const auto heard = t.controller.TakeAnnouncementPayload();
    if (!heard.has_value()) continue;
    const auto parsed = health::ParseAnnouncementHealth(
        *heard, sup ? health::kHealthExtensionVersion
                    : transport::kAckExtensionVersion);
    if (!parsed.has_value()) continue;
    if (parsed->ext_rejected) ++stats_.transport_ext_rejected;
    if (parsed->acks.has_value()) {
      for (const transport::TagAck& ack : parsed->acks->acks) {
        if (ack.tag_id == listen_id) t.arq->OnAck(ack, round_);
      }
    }
    if (parsed->health.has_value()) {
      for (const health::TagCommand& cmd : parsed->health->commands) {
        if (cmd.tag_id != listen_id) continue;
        t.cmd = cmd;
        if (cmd.probe) t.probe_this_round = true;
      }
    }
  }

  // A forging rogue (a compromised second exciter) airs corrupted
  // version-2 extensions of its own: every present tag runs them
  // through the same codec as the genuine announcement. Structural
  // validation plus the CRC is the whole defense; the rare survivor is
  // counted (the CRC-8 residual-risk metric) but carries only bogus
  // sticky state that the genuine round-robin re-announce overwrites —
  // nothing crashes and nothing is silently dropped.
  if (rogues) {
    for (std::size_t f = 0; f < config_.num_tags; ++f) {
      if (!rogue_->ForgesThisRound(f)) continue;
      const BitVector forged = rogue_->ForgedExtension(f);
      for (std::size_t ti = 0; ti < tags_.size(); ++ti) {
        if (dyn && dynamics_->link(ti).blackout) continue;
        if (!rogue_->Joined(ti)) continue;
        ++stats_.forged_ext_heard;
        const auto parsed = health::ParseAnnouncementHealth(forged);
        if (!parsed.has_value() || parsed->ext_rejected) {
          ++stats_.forged_ext_rejected;
        } else {
          ++stats_.forged_ext_accepted;
        }
      }
    }
  }

  // Translation redundancy: base level, and the blind-decode candidate
  // set the receiver scans when tags may have escalated.
  core::TranslateConfig base_tcfg;
  if (config_.redundancy != 0) base_tcfg.redundancy = config_.redundancy;
  const std::size_t frame_bits = core::TagFrameBits(config_.tag_payload_bytes);

  // 2+3. Slots: real excitation, real reflections, real decode.
  std::size_t singles_observed = 0;
  std::size_t collisions_observed = 0;
  std::size_t empties_observed = 0;
  std::vector<std::size_t> raw_per_tag(sup ? config_.num_tags : 0, 0);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    ++stats_.slots_total;
    // The excitation's bytes are drawn now, but its waveform is built
    // only when the first reflection needs it: idle slots skip TX and
    // scaling. Its length (airtime, tag-bit capacity) follows from the
    // payload size alone.
    const Bytes excitation_payload =
        RandomBytes(rng_, config_.excitation_payload_bytes);
    const std::size_t waveform_samples = phy80211::FrameSamples(
        excitation_payload.size(), phy80211::Rate::k6Mbps);
    stats_.airtime_s +=
        static_cast<double>(waveform_samples) / phy80211::kSampleRateHz +
        60e-6;

    // One fault realization per slot: the excitation, the channel
    // burst, and the (shared) tag-oscillator drift for this exchange.
    const impair::FrameFaults faults = injector_.DrawFrame();
    core::TranslateConfig tcfg = base_tcfg;
    tcfg.tag_clock_ppm = faults.tag_clock_ppm;
    tcfg.start_slip_samples = faults.start_slip_samples;

    auto capacity_at = [&](std::size_t redundancy) {
      core::TranslateConfig probe = tcfg;
      probe.redundancy = redundancy;
      return core::TagBitCapacity(waveform_samples, probe);
    };

    // Superpose every firing tag's reflection (the coordinator's
    // capture has leading silence only).
    SlotChain<WifiSlot> chain(ThreadLocalSlotWorkspace(), WifiSlot::kPad, 0);
    for (std::size_t t = 0; t < config_.num_tags; ++t) {
      const bool honest_slot = tags_[t].controller.OnSlotBoundary();
      // No excitation reaches a blacked-out tag: nothing to reflect,
      // whatever its controller believes about the slot grid.
      if (dyn && dynamics_->link(t).blackout) continue;
      // A flapper in its off-phase has left the cell entirely.
      if (rogues && !rogue_->Joined(t)) continue;
      const bool is_rogue = rogues && rogue_->is_rogue(t);
      impair::RogueSlotAction ra;
      if (is_rogue) ra = rogue_->SlotAction(t, slot);
      if (sup && !tags_[t].cmd.admit && !tags_[t].probe_this_round &&
          !(is_rogue && !rogue_->spec(t).obeys_park)) {
        continue;  // parked by the supervisor: sit the round out
      }
      // A rogue "extra fire" is a reflection the honest MAC/ARQ path
      // would never have produced (babbler, slot thief, forger junk):
      // it overrides the firmware and goes on the air at base
      // redundancy with the rogue's wire id and garbage sequence.
      const bool rogue_fire = is_rogue && ra.extra_fire;
      if (!honest_slot && !rogue_fire) continue;
      std::uint8_t fired_id = tags_[t].id;
      std::uint8_t fired_seq = 0;
      BitVector bits;
      core::TranslateConfig tag_tcfg = tcfg;
      if (rogue_fire) {
        ++stats_.rogue_extra_frames;
        fired_id = ra.wire_id;
        fired_seq = ra.seq;
        const Bytes payload = {ra.wire_id, ra.seq};
        bits = core::EncodeTagFrame(payload);
      } else if (arq) {
        std::uint8_t seq = 0;
        std::size_t steps = 0;
        const auto tx = tags_[t].arq->NextFrame(round_);
        if (tx.has_value()) {
          seq = tx->seq;
          steps = tx->escalation_steps;
        } else if (sup && tags_[t].probe_this_round) {
          // Probe keepalive with an empty queue: re-send the newest
          // sequence. The transport reads it as a duplicate (harmless);
          // the supervisor counts any CRC-valid frame as the answer.
          seq = static_cast<std::uint8_t>(tags_[t].arq->next_seq() - 1);
        } else {
          continue;  // queue empty: slot stays silent
        }
        // Escalate redundancy one ×2 ladder step per ARQ escalation
        // plus the supervisor's commanded boost, but never past the
        // point where the frame stops fitting in one excitation — a
        // frame that cannot land is worse than one that lands at
        // lower redundancy.
        if (sup) steps += tags_[t].cmd.boost_steps;
        std::size_t redundancy = tcfg.redundancy << steps;
        while (redundancy > tcfg.redundancy &&
               capacity_at(redundancy) < frame_bits) {
          redundancy >>= 1;
        }
        tag_tcfg.redundancy = redundancy;
        if (is_rogue) {
          // Rogues that ride the honest transmit path rewrite what
          // goes on the air: the replayer's stale sequence, the
          // clone's assumed identity and interleaved counter.
          fired_id = rogue_->WireId(t);
          switch (rogue_->spec(t).model) {
            case impair::RogueModel::kReplayer:
              seq = rogue_->ReplaySeq(t);
              break;
            case impair::RogueModel::kClone:
              seq = rogue_->CloneSeq(t);
              break;
            default:
              break;
          }
        }
        fired_seq = seq;
        const Bytes payload = {fired_id, seq};
        bits = core::EncodeTagFrame(payload);
      } else {
        fired_seq = tags_[t].sequence;
        bits = tags_[t].LegacySlotBits();
      }
      report.fired.push_back(fired_id);
      if (config_.trace != nullptr) {
        config_.trace->Record(
            rogue_fire ? obs::EventKind::kRogueFire : obs::EventKind::kFrameTx,
            static_cast<std::uint32_t>(round_),
            static_cast<std::uint16_t>(slot), fired_id, fired_seq,
            rogue_fire ? static_cast<std::uint64_t>(rogue_->spec(t).model)
                       : static_cast<std::uint64_t>(tag_tcfg.redundancy));
      }
      if (dyn) {
        // Frame-level fade: each surviving ×2 redundancy step is an
        // independent chance through the burst-error channel, so the
        // commanded boost buys real survival probability.
        const std::size_t reps =
            std::max<std::size_t>(tag_tcfg.redundancy / tcfg.redundancy, 1);
        if (!dynamics_->FrameSurvives(t, slot, reps)) {
          ++stats_.faded_frames;
          if (config_.trace != nullptr) {
            config_.trace->Record(obs::EventKind::kFrameFaded,
                                  static_cast<std::uint32_t>(round_),
                                  static_cast<std::uint16_t>(slot), fired_id,
                                  fired_seq, reps);
          }
          continue;  // transmission spent, reflection lost in the fade
        }
      }
      bits.resize(capacity_at(tag_tcfg.redundancy), 0);
      if (!chain.excited()) {
        chain.Excite(excitation_payload, config_.backscatter_rx_dbm,
                     injector_, faults);
      }
      chain.Reflect(bits, tag_tcfg);
      if (faults.tag_clock_ppm != 0.0 || faults.start_slip_samples != 0.0) {
        injector_.CountWindowSlip();
      }
    }

    if (!chain.reflected()) {
      injector_.CountUnrenderedDropout(faults);
      ++empties_observed;
      continue;
    }
    const phy80211::RxResult& rx =
        chain.Receive(/*noise_figure_db=*/5.0,
                      /*phase_noise_rw_rad_per_sample=*/0.0, rng_, injector_,
                      faults);

    bool delivered = false;
    if (rx.signal_ok) {
      // Blind-decode candidate set: base redundancy, plus every
      // escalated level a tag could legally have used. Legacy mode
      // scans exactly the base level — bit-identical to the old
      // single decode.
      std::vector<std::size_t> candidates = {tcfg.redundancy};
      if (arq) {
        const std::size_t max_steps =
            config_.transport.max_escalation_steps +
            (sup ? health::kMaxBoostSteps : 0);
        for (std::size_t step = 1; step <= max_steps; ++step) {
          const std::size_t redundancy = tcfg.redundancy << step;
          if (capacity_at(redundancy) >= frame_bits) {
            candidates.push_back(redundancy);
          }
        }
      }
      std::set<std::pair<std::uint8_t, std::uint8_t>> seen;
      for (const std::size_t redundancy : candidates) {
        const core::TagDecodeResult decoded =
            WifiSlot::Decode(chain.frame(), rx, redundancy);
        for (const core::TagFrame& f : core::ExtractTagFrames(decoded.bits)) {
          if (!f.crc_ok || f.payload.size() != config_.tag_payload_bytes) {
            continue;
          }
          const std::uint8_t id = f.payload[0];
          if (id < 1 || id > config_.num_tags) {
            // Unattributable identity (forger junk): classified and
            // counted, never silently dropped, never delivered.
            ++stats_.rx_invalid_id;
            if (police_) police_->OnUnattributedFrame();
            continue;
          }
          const std::uint8_t seq = f.payload[1];
          if (arq && !seen.insert({id, seq}).second) {
            continue;  // same frame decoded at two candidate levels
          }
          ++stats_.deliveries;
          ++stats_.per_tag_deliveries[id - 1];
          ++report.raw_frames;
          if (sup) ++raw_per_tag[id - 1];
          delivered = true;
          if (police_) police_->OnFrame(id - 1, seq);
          if (arq) {
            if (sup && config_.supervisor.policing_enabled &&
                supervisor_->misbehavior_quarantined(id - 1)) {
              // Suspect embargo: a misbehavior-quarantined id still
              // answers probes (the frame was heard and counted above)
              // but its data is barred from the application stream
              // until the identity is rehabilitated — stale or cloned
              // frames must not ride a probe round into the app. The
              // frame is still *classified* against the untouched
              // stream state: a probe answer that would have been
              // rejected as stale / beyond-window / a replay alias is
              // fresh evidence, which is what keeps a replayer from
              // talking its way out of quarantine one probe at a time.
              ++stats_.suspect_frames_dropped;
              switch (coordinator_->rx(id - 1).Classify(seq)) {
                case transport::RxError::kStaleReplay:
                case transport::RxError::kBeyondWindow:
                case transport::RxError::kReplayAlias:
                  ++embargo_evidence_[id - 1];
                  break;
                default:
                  break;
              }
            } else {
              std::uint64_t flush_pos = 0;
              for (const std::uint8_t s :
                   coordinator_->rx(id - 1).OnFrame(seq, round_)) {
                report.delivered.push_back({id, s});
                if (config_.trace != nullptr) {
                  config_.trace->Record(obs::EventKind::kFrameRx,
                                        static_cast<std::uint32_t>(round_),
                                        static_cast<std::uint16_t>(slot), id,
                                        s, flush_pos++);
                }
              }
            }
          }
        }
      }
    }
    if (delivered) {
      ++singles_observed;
    } else {
      // Energy present but nothing decodable: observed collision.
      ++collisions_observed;
    }
  }

  if (arq) {
    for (std::size_t t = 0; t < config_.num_tags; ++t) {
      std::vector<std::uint8_t> skipped;
      const auto unblocked = coordinator_->rx(t).OnRoundEnd(round_, skipped);
      const std::uint8_t id = static_cast<std::uint8_t>(t + 1);
      for (const std::uint8_t s : skipped) {
        report.skipped.push_back({id, s});
        if (config_.trace != nullptr) {
          config_.trace->Record(obs::EventKind::kHoleSkip,
                                static_cast<std::uint32_t>(round_),
                                obs::kNoSlot, id, s);
        }
      }
      std::uint64_t flush_pos = 0;
      for (const std::uint8_t s : unblocked) {
        report.delivered.push_back({id, s});
        if (config_.trace != nullptr) {
          config_.trace->Record(obs::EventKind::kFrameRx,
                                static_cast<std::uint32_t>(round_),
                                obs::kNoSlot, id, s, flush_pos++);
        }
      }
    }
  }

  // Close the police's round even without a supervisor: the occupancy
  // and identity statistics roll regardless of who consumes them.
  std::vector<std::size_t> evidence;
  if (police_) evidence = police_->EndRound();

  if (sup) {
    health::RoundObservation obs;
    obs.round = round_;
    obs.singles = singles_observed;
    obs.collisions = collisions_observed;
    obs.empties = empties_observed;
    obs.tags.resize(config_.num_tags);
    for (std::size_t t = 0; t < config_.num_tags; ++t) {
      const transport::TagRxStats& rx = coordinator_->rx(t).stats();
      obs.tags[t].frames_heard = raw_per_tag[t];
      obs.tags[t].duplicates = rx.duplicates - prev_duplicates_[t];
      prev_duplicates_[t] = rx.duplicates;
      obs.tags[t].nacks_outstanding = coordinator_->rx(t).BufferedOoo();
      // Misbehavior evidence = slot-occupancy + identity-collision
      // charges from the police, plus this round's replay / stale /
      // beyond-window rejections on the tag's transport stream.
      if (config_.supervisor.policing_enabled) {
        std::size_t ev = t < evidence.size() ? evidence[t] : 0;
        ev += rx.replay_rejected - prev_replay_[t];
        ev += rx.stale_rejected - prev_stale_[t];
        ev += rx.beyond_window - prev_beyond_[t];
        // Rejection-class frames heard under the suspect embargo
        // (classified against the stream, never run through it).
        ev += embargo_evidence_[t];
        obs.tags[t].misbehavior_evidence = ev;
      }
      embargo_evidence_[t] = 0;
      prev_replay_[t] = rx.replay_rejected;
      prev_stale_[t] = rx.stale_rejected;
      prev_beyond_[t] = rx.beyond_window;
    }
    supervisor_->ObserveRound(obs);
    // Quarantine frees the tag's reassembly memory (S-bugfix: a silent
    // tag must not pin its OOO buffer forever); a readmitted tag gets
    // a stream re-anchor so its first frames after the silence are not
    // dup-dropped by a stale delivery point. Healthy tags' ARQ state
    // is untouched by either.
    for (const std::size_t t : supervisor_->TakeFreshQuarantines()) {
      coordinator_->rx(t).EvictOoo();
      if (config_.trace != nullptr) {
        config_.trace->Record(obs::EventKind::kQuarantine,
                              static_cast<std::uint32_t>(round_), obs::kNoSlot,
                              static_cast<std::uint8_t>(t + 1),
                              supervisor_->misbehavior_quarantined(t) ? 1 : 0);
      }
    }
    for (const std::size_t t : supervisor_->TakeFreshReadmissions()) {
      coordinator_->rx(t).BeginResync();
      // Challenge/re-announce recovery for a suspected identity
      // collision completes here: the stream re-anchors and the
      // collision detector re-arms from scratch.
      if (police_) police_->ResetIdentity(t);
    }
    report.health.reserve(config_.num_tags);
    for (std::size_t t = 0; t < config_.num_tags; ++t) {
      report.health.push_back(
          static_cast<std::uint8_t>(supervisor_->health(t)));
    }
    for (SimTag& t : tags_) t.probe_this_round = false;
  }

  stats_.observed_collisions += collisions_observed;
  stats_.observed_empties += empties_observed;
  // The coordinator resizes from its *observations* of this round.
  scheduler_.ReportRound(singles_observed, collisions_observed,
                         empties_observed);
  // Recovery bookkeeping: a round with zero decodable slots arms the
  // backoff; the first decodable round afterwards counts as a
  // recovery.
  if (singles_observed == 0) {
    ++consecutive_failed_rounds_;
  } else {
    if (consecutive_failed_rounds_ > 0) ++stats_.rounds_recovered;
    consecutive_failed_rounds_ = 0;
  }

  ++round_;
  return report;
}

FullStackStats FullStackSim::Stats() const {
  FullStackStats stats = stats_;
  double total_payload_bits = 0.0;
  std::vector<double> per_tag(config_.num_tags);
  for (std::size_t t = 0; t < config_.num_tags; ++t) {
    per_tag[t] = static_cast<double>(stats.per_tag_deliveries[t]);
    total_payload_bits +=
        per_tag[t] * static_cast<double>(config_.tag_payload_bytes) * 8.0;
  }
  stats.goodput_bps =
      stats.airtime_s > 0.0 ? total_payload_bits / stats.airtime_s : 0.0;
  stats.jain_fairness = JainFairnessIndex(per_tag);
  for (const SimTag& t : tags_) {
    stats.desync_events += t.controller.desync_events();
    stats.sequence_gaps += t.controller.sequence_gaps();
  }
  stats.fault_counters = injector_.counters();
  stats.faults_injected = stats.fault_counters.total();
  if (config_.transport.enabled) {
    for (const SimTag& t : tags_) {
      const transport::TagTxStats& tx = t.arq->stats();
      stats.transport_offered += tx.offered;
      stats.transport_retransmissions += tx.retransmissions;
      stats.transport_expired += tx.expired;
      stats.transport_acked += tx.acked;
      stats.transport_escalations += tx.escalations;
      stats.transport_rejected_full += tx.rejected_full;
    }
    for (std::size_t t = 0; t < config_.num_tags; ++t) {
      const transport::TagRxStats& rx = coordinator_->rx(t).stats();
      stats.transport_delivered += rx.delivered;
      stats.transport_duplicates += rx.duplicates;
      stats.transport_holes_skipped += rx.holes_skipped;
      stats.health_ooo_evicted += rx.ooo_evicted;
      stats.health_resyncs += rx.resyncs;
      stats.transport_replay_rejected += rx.replay_rejected;
      stats.transport_stale_rejected += rx.stale_rejected;
    }
  }
  if (supervisor_ != nullptr) {
    const health::SupervisorStats& hs = supervisor_->stats();
    stats.health_quarantines = hs.quarantines;
    stats.health_recoveries = hs.recoveries;
    stats.health_probes_sent = hs.probes_sent;
    stats.health_probe_failures = hs.probe_failures;
    stats.health_boost_commands = hs.boost_commands;
    stats.misbehavior_quarantines = hs.misbehavior_quarantines;
    stats.misbehavior_bans = hs.bans;
  }
  if (police_ != nullptr) {
    stats.police_evidence = police_->stats().evidence_total;
    for (std::size_t t = 0; t < config_.num_tags; ++t) {
      stats.police_multi_fire_rounds += police_->tag_stats(t).multi_fire_rounds;
      stats.police_collision_suspicions +=
          police_->tag_stats(t).collision_suspicions;
    }
  }
  return stats;
}

FullStackStats RunFullStackCampaign(const FullStackConfig& config, Rng& rng) {
  FullStackSim sim(config, rng);
  for (std::size_t round = 0; round < config.rounds; ++round) {
    sim.StepRound();
  }
  return sim.Stats();
}

}  // namespace freerider::sim
