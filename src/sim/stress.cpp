#include "sim/stress.h"

#include <set>
#include <utility>

#include "runtime/checkpoint.h"
#include "sim/campaign_audit.h"

namespace freerider::sim {

StressResult RunStress(const StressConfig& config) {
  FullStackConfig sim_cfg;
  sim_cfg.num_tags = config.num_tags;
  sim_cfg.rounds = config.rounds + config.drain_rounds;
  sim_cfg.transport = config.transport;
  sim_cfg.transport.enabled = true;
  sim_cfg.supervisor = config.supervisor;
  sim_cfg.supervisor.enabled = config.supervisor_on;
  sim_cfg.dynamics = config.dynamics;
  sim_cfg.offered_per_round = 0;  // the harness schedules offers itself
  if (config.HasDeadTag()) {
    impair::BlackoutWindow death;
    death.begin_round = config.dead_round;
    death.end_round = config.rounds + config.drain_rounds + 1;
    death.tags = {config.dead_tag};
    sim_cfg.dynamics.blackouts.push_back(death);
  }

  CampaignTrace trace("stress", config.trace_capacity);
  sim_cfg.trace = trace.sink();

  Rng rng(config.seed);
  FullStackSim sim(sim_cfg, rng);
  StressResult result;
  SeqAudit audit(config.num_tags, /*skips_violate=*/false);

  const std::size_t total_rounds = config.rounds + config.drain_rounds;
  for (std::size_t round = 0; round < total_rounds; ++round) {
    const bool offering = round < config.rounds && config.offer_every != 0 &&
                          round % config.offer_every == 0;
    sim.SetOfferedPerRound(offering ? 1 : 0);
    // The workload stops addressing the dead tag once it dies — the
    // way real traffic sources drop an unplugged node. Frames already
    // queued at death stay offered (and charged) in both arms.
    if (config.HasDeadTag() && round == config.dead_round) {
      sim.SetTagOffering(config.dead_tag, false);
    }
    const RoundReport report = sim.StepRound();
    audit.Observe(round, report, ResyncCounts(sim, config.num_tags),
                  result.violations);
  }

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
        result.violations.Add(total_rounds, "resync_healthy",
                              Fmt("tag=%zu resyncs=%zu", t + 1, rx.resyncs));
      }
      if (rx.ooo_evicted > 0) {
        result.violations.Add(
            total_rounds, "evict_healthy",
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
            total_rounds, "no_quarantine",
            Fmt("tag=%u dead_round=%zu", dead_id, config.dead_round));
      } else if (!result.quarantine_bound_met) {
        result.violations.Add(
            total_rounds, "quarantine_late",
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

std::string SerializeStressResult(const StressResult& result) {
  runtime::PayloadWriter w;
  w.U64(result.passed ? 1 : 0);
  w.F64(result.delivery_ratio);
  w.U64(result.offered);
  w.U64(result.delivered);
  w.U64(result.expired);
  w.U64(result.rejected_full);
  w.U64(result.duplicates);
  w.U64(result.skipped);
  w.U64(result.faded_frames);
  w.U64(result.blackout_tag_rounds);
  w.U64(result.quarantines);
  w.U64(result.recoveries);
  w.U64(result.probes_sent);
  w.U64(result.boost_commands);
  w.U64(result.resyncs);
  w.U64(result.ooo_evicted);
  w.U64(result.dead_tag_audited ? 1 : 0);
  w.U64(result.quarantine_bound_met ? 1 : 0);
  w.U64(result.quarantine_round);
  w.U64(result.detection_rounds);
  w.U64(result.detection_bound);
  result.violations.Write(w);
  w.Str(result.digest);
  w.Str(result.trace);
  return w.Take();
}

bool DeserializeStressResult(const std::string& payload,
                             StressResult* result) {
  runtime::PayloadReader r(payload);
  StressResult out;
  if (!r.Bool(&out.passed) || !r.F64(&out.delivery_ratio) ||
      !r.Size(&out.offered) || !r.Size(&out.delivered) ||
      !r.Size(&out.expired) || !r.Size(&out.rejected_full) ||
      !r.Size(&out.duplicates) || !r.Size(&out.skipped) ||
      !r.Size(&out.faded_frames) || !r.Size(&out.blackout_tag_rounds) ||
      !r.Size(&out.quarantines) || !r.Size(&out.recoveries) ||
      !r.Size(&out.probes_sent) || !r.Size(&out.boost_commands) ||
      !r.Size(&out.resyncs) || !r.Size(&out.ooo_evicted) ||
      !r.Bool(&out.dead_tag_audited) || !r.Bool(&out.quarantine_bound_met) ||
      !r.Size(&out.quarantine_round) || !r.Size(&out.detection_rounds) ||
      !r.Size(&out.detection_bound) || !out.violations.Read(r) ||
      !r.Str(&out.digest) || !r.Str(&out.trace) || !r.AtEnd()) {
    return false;
  }
  *result = std::move(out);
  return true;
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
