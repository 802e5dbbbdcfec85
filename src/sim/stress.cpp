#include "sim/stress.h"

#include <set>
#include <utility>

#include "runtime/checkpoint.h"
#include "sim/campaign_audit.h"

namespace freerider::sim {

StressResult RunStress(const StressConfig& config) {
  FullStackConfig sim_cfg = CampaignSimConfig(config);
  sim_cfg.supervisor = config.supervisor;
  sim_cfg.supervisor.enabled = config.supervisor_on;
  sim_cfg.dynamics = config.dynamics;
  if (config.HasDeadTag()) {
    impair::BlackoutWindow death;
    death.begin_round = config.dead_round;
    death.end_round = config.total_rounds() + 1;
    death.tags = {config.dead_tag};
    sim_cfg.dynamics.blackouts.push_back(death);
  }

  CampaignTrace trace("stress", config.trace_capacity);
  sim_cfg.trace = trace.sink();

  Rng rng(config.seed);
  FullStackSim sim(sim_cfg, rng);
  StressResult result;
  SeqAudit audit(config.num_tags, /*skips_violate=*/false);

  CampaignHooks hooks;
  // The workload stops addressing the dead tag once it dies — the way
  // real traffic sources drop an unplugged node. Frames already queued
  // at death stay offered (and charged) in both arms.
  hooks.before_step = [&](std::size_t round) {
    if (config.HasDeadTag() && round == config.dead_round) {
      sim.SetTagOffering(config.dead_tag, false);
    }
  };
  RunCampaignRounds(config, sim, audit, result.violations, hooks);

  const FullStackStats stats = sim.Stats();
  result.offered = stats.transport_offered;
  result.delivered = stats.transport_delivered;
  result.expired = stats.transport_expired;
  result.rejected_full = stats.transport_rejected_full;
  result.duplicates = stats.transport_duplicates;
  result.skipped = stats.transport_holes_skipped;
  result.faded_frames = stats.faded_frames;
  result.blackout_tag_rounds = stats.blackout_tag_rounds;
  result.quarantines = stats.health_quarantines;
  result.recoveries = stats.health_recoveries;
  result.probes_sent = stats.health_probes_sent;
  result.boost_commands = stats.health_boost_commands;
  result.resyncs = stats.health_resyncs;
  result.ooo_evicted = stats.health_ooo_evicted;
  result.delivery_ratio =
      result.offered > 0 ? static_cast<double>(result.delivered) /
                               static_cast<double>(result.offered)
                         : 0.0;

  const health::LinkSupervisor* supervisor = sim.supervisor();
  if (supervisor != nullptr) {
    // Healthy-tag isolation: recovery actions (stream resync, OOO
    // eviction) may only ever touch tags the supervisor actually
    // quarantined — in-flight ARQ state of healthy tags is sacrosanct.
    std::set<std::uint8_t> quarantined_ids;
    for (const health::HealthTransition& tr : supervisor->transitions()) {
      if (tr.to == health::TagHealth::kQuarantined) {
        quarantined_ids.insert(tr.tag_id);
      }
    }
    for (std::size_t t = 0; t < config.num_tags; ++t) {
      if (quarantined_ids.count(static_cast<std::uint8_t>(t + 1)) > 0) {
        continue;
      }
      const transport::TagRxStats& rx =
          sim.coordinator_transport()->rx(t).stats();
      if (rx.resyncs > 0) {
        result.violations.Add(config.total_rounds(), "resync_healthy",
                              Fmt("tag=%zu resyncs=%zu", t + 1, rx.resyncs));
      }
      if (rx.ooo_evicted > 0) {
        result.violations.Add(
            config.total_rounds(), "evict_healthy",
            Fmt("tag=%zu evicted=%zu", t + 1, rx.ooo_evicted));
      }
    }
    // Quarantine detection bound for the configured dead tag. A deep
    // fade may already have the tag Quarantined when it dies; what the
    // contract requires is that the tag sits in Quarantined no later
    // than dead_round + bound and never leaves afterwards — it is
    // silent forever, so any post-death recovery would be a phantom.
    if (config.HasDeadTag()) {
      result.dead_tag_audited = true;
      result.detection_bound = health::QuarantineDetectionBound(
          config.supervisor);
      const std::uint8_t dead_id =
          static_cast<std::uint8_t>(config.dead_tag + 1);
      bool in_quarantine = false;
      std::size_t entered = 0;
      for (const health::HealthTransition& tr : supervisor->transitions()) {
        if (tr.tag_id != dead_id) continue;
        if (tr.to == health::TagHealth::kQuarantined) {
          if (!in_quarantine) {
            in_quarantine = true;
            entered = tr.round;
          }
        } else {
          in_quarantine = false;
        }
      }
      if (in_quarantine) {
        result.quarantine_round = entered;
        // Last heard round is at latest dead_round - 1; a quarantine
        // already standing at death counts as instant detection.
        result.detection_rounds =
            entered > config.dead_round ? entered - config.dead_round + 1 : 0;
      }
      result.quarantine_bound_met =
          in_quarantine && result.detection_rounds <= result.detection_bound;
      if (!in_quarantine) {
        result.violations.Add(
            config.total_rounds(), "no_quarantine",
            Fmt("tag=%u dead_round=%zu", dead_id, config.dead_round));
      } else if (!result.quarantine_bound_met) {
        result.violations.Add(
            config.total_rounds(), "quarantine_late",
            Fmt("tag=%u detection=%zu bound=%zu", dead_id,
                result.detection_rounds, result.detection_bound));
      }
    }
  }

  result.passed = result.violations.empty();

  result.digest = result.violations.Digest() + Fmt(
      "stress ratio=%a offered=%zu delivered=%zu expired=%zu rejfull=%zu "
      "dup=%zu skipped=%zu faded=%zu blackout=%zu quar=%zu recov=%zu "
      "probes=%zu boosts=%zu resyncs=%zu evicted=%zu qround=%zu detect=%zu "
      "bound=%zu\n",
      result.delivery_ratio, result.offered, result.delivered,
      result.expired, result.rejected_full, result.duplicates, result.skipped,
      result.faded_frames, result.blackout_tag_rounds, result.quarantines,
      result.recoveries, result.probes_sent, result.boost_commands,
      result.resyncs, result.ooo_evicted, result.quarantine_round,
      result.detection_rounds, result.detection_bound);
  result.trace = trace.Finish();
  return result;
}

namespace {

template <class Io, class T>
bool StressResultFields(Io& io, T& r) {
  return io.Bool(r.passed) && io.F64(r.delivery_ratio) &&
         io.Size(r.offered) && io.Size(r.delivered) && io.Size(r.expired) &&
         io.Size(r.rejected_full) && io.Size(r.duplicates) &&
         io.Size(r.skipped) && io.Size(r.faded_frames) &&
         io.Size(r.blackout_tag_rounds) && io.Size(r.quarantines) &&
         io.Size(r.recoveries) && io.Size(r.probes_sent) &&
         io.Size(r.boost_commands) && io.Size(r.resyncs) &&
         io.Size(r.ooo_evicted) && io.Bool(r.dead_tag_audited) &&
         io.Bool(r.quarantine_bound_met) && io.Size(r.quarantine_round) &&
         io.Size(r.detection_rounds) && io.Size(r.detection_bound) &&
         ViolationLogFields(io, r.violations) && io.Str(r.digest) &&
         io.Str(r.trace);
}

}  // namespace

std::string SerializeStressResult(const StressResult& result) {
  runtime::PayloadWriter w;
  StressResultFields(w, result);
  return w.Take();
}

bool DeserializeStressResult(const std::string& payload,
                             StressResult* result) {
  return runtime::ReadPayload(payload, result, [](auto& r, auto& s) {
    return StressResultFields(r, s);
  });
}

transport::TransportConfig StressBenchTransport() {
  // Generous per-frame retry budget, tight queue: the contrast the
  // stress bench measures is *where the budget goes*. Bare ARQ burns
  // all 16 tries into a fade, gives up, and the queue backs up into
  // rejections; the supervisor's closed loop (boost + admission +
  // probes) spends the same budget after the channel recovers.
  transport::TransportConfig t;
  t.max_transmissions = 16;
  t.expiry_rounds = 1000000;  // give-up is attempt-based
  t.queue_capacity = 24;
  t.rto_rounds = 3;
  t.max_escalation_steps = 1;
  t.hole_skip_rounds = 96;
  return t;
}

StressConfig MakeStressBenchConfig(std::uint64_t seed, bool supervisor_on,
                                   std::size_t rounds) {
  StressConfig config;
  config.seed = seed;
  config.num_tags = 6;
  config.rounds = rounds;
  config.drain_rounds = rounds / 4 + 80;
  config.offer_every = 4;
  config.supervisor_on = supervisor_on;
  config.transport = StressBenchTransport();

  // Burst fades: long deep fades (~23% of rounds bad, 96% per-frame
  // loss while bad, mean bad burst rounds/12) — long enough that the
  // supervisor's probation/quarantine machinery engages for real. The
  // chain scales with the campaign so a shortened --rounds run (CI)
  // keeps the fade structure proportionally; at the default 600 this
  // is p_good_to_bad = 0.006, p_bad_to_good = 0.02.
  config.dynamics.seed = seed ^ 0x5354524553531ull;
  config.dynamics.gilbert.enabled = true;
  config.dynamics.gilbert.p_good_to_bad = 3.6 / static_cast<double>(rounds);
  config.dynamics.gilbert.p_bad_to_good = 12.0 / static_cast<double>(rounds);
  config.dynamics.gilbert.good_loss = 0.02;
  config.dynamics.gilbert.bad_loss = 0.96;

  // Mobility: two excursions to 1.4-1.5x nominal distance, phase-offset
  // per tag so the fleet doesn't fade in lockstep.
  config.dynamics.mobility.enabled = true;
  config.dynamics.mobility.per_tag_phase_rounds = rounds / 12;
  config.dynamics.mobility.loss_per_excess = 0.5;
  config.dynamics.mobility.max_loss = 0.90;
  config.dynamics.mobility.waypoints = {{0, 1.0},
                                        {rounds / 4, 1.4},
                                        {rounds / 2, 1.0},
                                        {(3 * rounds) / 4, 1.5},
                                        {rounds, 1.0}};

  // Two transient blackouts: the affected tags must be quarantined and
  // later re-admitted without disturbing the healthy tags' ARQ state.
  impair::BlackoutWindow b1;
  b1.begin_round = rounds / 3;
  b1.end_round = rounds / 3 + rounds / 8;
  b1.tags = {1};
  impair::BlackoutWindow b2;
  b2.begin_round = rounds / 2;
  b2.end_round = rounds / 2 + rounds / 10;
  b2.tags = {2};
  config.dynamics.blackouts = {b1, b2};

  // One tag dies for good at 2/3 of the campaign.
  config.dead_tag = config.num_tags - 1;
  config.dead_round = (2 * rounds) / 3;
  return config;
}

const std::vector<std::uint64_t>& StressBenchSeeds() {
  static const std::vector<std::uint64_t> kSeeds = {31ull, 1723ull, 60221ull};
  return kSeeds;
}

}  // namespace freerider::sim
