// mac_campaign: full-stack sim::FullStackSim campaigns (6 tags, one of
// them a babbler rogue; transport, supervisor, policing and channel
// dynamics on), stepped round by round. A batch is 8 campaigns run as
// runtime::SweepEngine tasks on at most 4 threads; batches repeat until
// the run's time is up. Closed loop: a campaign's next round starts
// when its previous round returns.
#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "runtime/executor.h"
#include "runtime/sweep_engine.h"
#include "sim/multitag.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fr = freerider;

constexpr std::size_t kTasksPerBatch = 8;
constexpr std::size_t kRoundsPerCampaign = 60;
constexpr std::size_t kMaxThreads = 4;
/// step_ms_p99 needs at least 1000 rounds; the fidelity metrics and the
/// outputs digest cover exactly the first kFidelityBatches batches.
constexpr std::size_t kMinSteps = 1000;
constexpr std::size_t kFidelityBatches = 3;
constexpr std::uint64_t kWarmupTask = ~std::uint64_t{0};

/// What the traced run needs from one round, beyond its time.
struct RoundCounts {
  std::size_t slots = 0;
  std::size_t idle = 0;        ///< No reflection reached the receiver.
  std::size_t singles = 0;     ///< Energy, and a frame was delivered.
  std::size_t collisions = 0;  ///< Energy, nothing decodable.
  std::size_t reflections = 0; ///< Translate calls.
  std::size_t adds = 0;        ///< AddSignals calls.
};

struct Campaign {
  std::vector<double> round_ms;
  std::vector<std::int64_t> round_start_ns;
  std::vector<RoundCounts> counts;  ///< Traced runs only.
  SlotKindCosts kinds;              ///< Traced runs: the slot-kind replays.
  SpanLog log;                      ///< ...and their spans.
  std::string rounds_text;          ///< Per-round outcome digest text.
  fr::sim::FullStackStats stats;
  bool threw = false;
};

Digest StatsDigest(const fr::sim::FullStackStats& s) {
  Digest d;
  d.Add("slots", static_cast<std::uint64_t>(s.slots_total));
  d.Add("deliveries", static_cast<std::uint64_t>(s.deliveries));
  d.Add("collisions", static_cast<std::uint64_t>(s.observed_collisions));
  d.Add("empties", static_cast<std::uint64_t>(s.observed_empties));
  d.Add("offered", static_cast<std::uint64_t>(s.transport_offered));
  d.Add("delivered", static_cast<std::uint64_t>(s.transport_delivered));
  d.Add("retx", static_cast<std::uint64_t>(s.transport_retransmissions));
  d.Add("quarantines", static_cast<std::uint64_t>(s.health_quarantines));
  d.Add("misbehavior", static_cast<std::uint64_t>(s.misbehavior_quarantines));
  d.Add("rogue", static_cast<std::uint64_t>(s.rogue_extra_frames));
  d.Add("faded", static_cast<std::uint64_t>(s.faded_frames));
  d.Add("airtime", s.airtime_s);
  d.Add("goodput", s.goodput_bps);
  d.Add("jain", s.jain_fairness);
  return d;
}

void RunCampaign(std::uint64_t seed, std::uint64_t task, std::size_t rounds,
                 bool traced, Campaign& out) {
  const fr::sim::FullStackConfig config = CampaignConfig(seed, task);
  fr::Rng rng(fr::Rng::ForTrial(seed, task, 0).NextU64());
  fr::sim::FullStackSim sim(config, rng);
  out.round_ms.reserve(rounds);
  fr::sim::FullStackStats prev = sim.Stats();
  for (std::size_t r = 0; r < rounds; ++r) {
    // One frame per tag every other round.
    sim.SetOfferedPerRound(r % 2 == 0 ? 1 : 0);
    const std::int64_t t0 = NowNs();
    const fr::sim::RoundReport report = sim.StepRound();
    const std::int64_t t1 = NowNs();
    out.round_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
    Digest d;
    d.Add("s", static_cast<std::uint64_t>(report.slots));
    d.Add("f", static_cast<std::uint64_t>(report.fired.size()));
    d.Add("r", static_cast<std::uint64_t>(report.raw_frames));
    d.Add("dl", static_cast<std::uint64_t>(report.delivered.size()));
    d.Add("sk", static_cast<std::uint64_t>(report.skipped.size()));
    out.rounds_text += d.text();
    if (!traced) continue;
    out.round_start_ns.push_back(t0);
    const fr::sim::FullStackStats now = sim.Stats();
    RoundCounts c;
    c.slots = report.slots;
    c.idle = now.observed_empties - prev.observed_empties;
    c.collisions = now.observed_collisions - prev.observed_collisions;
    c.singles = c.slots - c.idle - c.collisions;
    c.reflections = report.fired.size() - (now.faded_frames - prev.faded_frames);
    const std::size_t rx_slots = c.singles + c.collisions;
    c.adds = c.reflections > rx_slots ? c.reflections - rx_slots : 0;
    out.counts.push_back(c);
    prev = now;
    // Price the slot kinds on this thread, between this campaign's own
    // rounds, so the replays and the rounds they are compared with see
    // the same host load and caches: idle, single, collision in turn.
    ReplaySlotKind(config, seed, r % 3, task * rounds + r, out.kinds, out.log);
  }
  out.stats = sim.Stats();
}

struct Batch {
  std::vector<Campaign> campaigns;
  fr::runtime::SweepReport report;
};

Batch RunBatch(fr::runtime::SweepEngine& engine, std::uint64_t seed,
               std::uint64_t batch, std::size_t rounds, bool traced) {
  Batch b;
  b.campaigns.resize(kTasksPerBatch);
  b.report = engine.Run({kTasksPerBatch, 1}, [&](std::size_t p, std::size_t) {
    try {
      RunCampaign(seed, batch * kTasksPerBatch + p, rounds, traced,
                  b.campaigns[p]);
    } catch (const std::exception&) {
      b.campaigns[p].threw = true;
    }
    return true;  // never cancel the rest of the batch
  });
  return b;
}

bool Finite(const fr::sim::FullStackStats& s) {
  return std::isfinite(s.goodput_bps) && std::isfinite(s.jain_fairness) &&
         std::isfinite(s.airtime_s);
}

struct BatchRun {
  std::vector<Batch> batches;
  std::vector<Window> windows;  ///< One per batch.
};

/// Untraced batches until `seconds` have passed, at least kMinSteps
/// rounds and kFidelityBatches batches ran (or a hard wall cap is hit).
BatchRun RunBatches(fr::runtime::SweepEngine& engine, std::uint64_t seed,
                    double seconds) {
  BatchRun run;
  const double cap_s = 2.0 * seconds + 30.0;
  const std::int64_t start = NowNs();
  std::size_t rounds = 0;
  for (;;) {
    const std::int64_t t0 = NowNs();
    const double elapsed = 1e-9 * static_cast<double>(t0 - start);
    const bool enough = elapsed >= seconds && rounds >= kMinSteps &&
                        run.batches.size() >= kFidelityBatches;
    if (enough || (elapsed >= cap_s && !run.batches.empty())) break;
    const double cpu0 = ProcessCpuSeconds();
    run.batches.push_back(
        RunBatch(engine, seed, run.batches.size(), kRoundsPerCampaign, false));
    rounds += kTasksPerBatch * kRoundsPerCampaign;
    double slots = 0.0;
    for (const Campaign& c : run.batches.back().campaigns) {
      slots += static_cast<double>(c.stats.slots_total);
    }
    run.windows.push_back({slots, 1e-9 * static_cast<double>(NowNs() - t0),
                           ProcessCpuSeconds() - cpu0});
  }
  return run;
}

/// Counts steps and failures: a campaign that threw fails all its
/// rounds; a non-finite stat fails one.
void CountSteps(const BatchRun& run, RunResult& result) {
  for (const Batch& b : run.batches) {
    for (const Campaign& c : b.campaigns) {
      result.attempted += kRoundsPerCampaign;
      if (c.threw) {
        result.failed += kRoundsPerCampaign;
      } else if (!Finite(c.stats)) {
        ++result.failed;
      }
    }
  }
}

void AddOutputs(RunResult& result, std::uint64_t seed, const BatchRun& run) {
  double payload_bits = 0.0;
  double airtime = 0.0;
  double offered = 0.0;
  double delivered = 0.0;
  double misbehavior = 0.0;
  Digest all;
  const std::size_t nb = std::min(run.batches.size(), kFidelityBatches);
  for (std::size_t b = 0; b < nb; ++b) {
    for (const Campaign& c : run.batches[b].campaigns) {
      payload_bits += c.stats.goodput_bps * c.stats.airtime_s;
      airtime += c.stats.airtime_s;
      offered += static_cast<double>(c.stats.transport_offered);
      delivered += static_cast<double>(c.stats.transport_delivered);
      misbehavior += static_cast<double>(c.stats.misbehavior_quarantines);
      all.Append(StatsDigest(c.stats).text());
    }
  }
  const double goodput_kbps = airtime > 0.0 ? payload_bits / airtime / 1e3 : 0.0;
  const double delivered_pct = offered > 0.0 ? 100.0 * delivered / offered : 0.0;
  result.Add("tag_goodput_kbps", goodput_kbps, "kbps");
  result.Add("delivered_pct", delivered_pct, "%");
  Digest summary;
  summary.Add("campaigns", static_cast<std::uint64_t>(nb * kTasksPerBatch));
  summary.Add("offered", static_cast<std::uint64_t>(offered));
  summary.Add("delivered", static_cast<std::uint64_t>(delivered));
  summary.Add("goodput_bps", payload_bits / (airtime > 0.0 ? airtime : 1.0));
  result.digest_text = summary.text();
  result.digest_hash = all.Hash();

  // Determinism re-check: campaign 0 again, serially on this thread.
  if (!run.batches.empty()) {
    const Campaign& first = run.batches[0].campaigns[0];
    Campaign again;
    try {
      RunCampaign(seed, 0, kRoundsPerCampaign, false, again);
    } catch (const std::exception&) {
      again.threw = true;
    }
    if (again.threw || again.rounds_text != first.rounds_text ||
        StatsDigest(again.stats).text() != StatsDigest(first.stats).text()) {
      result.failed += kRoundsPerCampaign;
      result.Problem("campaign 0 re-check mismatch");
    }
  }
  if (!(goodput_kbps > 0.0)) result.Problem("no tag goodput");
  if (!(delivered_pct > 0.0)) result.Problem("nothing delivered");
  if (!(misbehavior > 0.0)) result.Problem("babbler never quarantined");
}

std::vector<double> RoundTimes(const BatchRun& run) {
  std::vector<double> ms;
  for (const Batch& b : run.batches) {
    for (const Campaign& c : b.campaigns) {
      ms.insert(ms.end(), c.round_ms.begin(), c.round_ms.end());
    }
  }
  return ms;
}

/// Σ count × per-unit ledger, for one cost segment.
void AddScaled(LayerSample& into, const LayerSample& unit, double count) {
  if (unit.slots <= 0.0 || count <= 0.0) return;
  const double k = count / unit.slots;
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    into.ledger[l].ns += std::llround(k * static_cast<double>(unit.ledger[l].ns));
    into.ledger[l].allocs +=
        std::llround(k * static_cast<double>(unit.ledger[l].allocs));
    into.ledger[l].calls +=
        std::llround(k * static_cast<double>(unit.ledger[l].calls));
  }
  into.rx_calls += k * unit.rx_calls;
  into.detected += k * unit.detected;
  into.signal_ok += k * unit.signal_ok;
}

void AddTracedMetrics(RunResult& result, const RunOptions& options,
                      fr::runtime::SweepEngine& engine) {
  // Each batch runs twice, untraced (a: reference round times and the
  // scheduler telemetry) and traced (b: a span around every StepRound,
  // the per-round slot-kind counts, and one slot-kind replay after each
  // round), in alternating order so drift in host speed hits both alike.
  BatchRun a;
  BatchRun b;
  SpanLog log;
  SlotKindCosts kinds;
  const std::int64_t start = NowNs();
  for (std::uint64_t bi = 0;; ++bi) {
    if (bi > 0 &&
        1e-9 * static_cast<double>(NowNs() - start) >= 0.8 * options.seconds) {
      break;
    }
    auto run = [&](bool traced) {
      (traced ? b : a).batches.push_back(RunBatch(
          engine, options.seed, bi, kRoundsPerCampaign, traced));
    };
    run(bi % 2 == 1);
    run(bi % 2 == 0);
  }
  CountSteps(a, result);
  CountSteps(b, result);

  std::size_t rounds = 0;
  RoundCounts total;
  fr::sim::FullStackStats sum;
  double fired = 0.0;
  std::size_t campaigns = 0;
  for (std::size_t bi = 0; bi < b.batches.size(); ++bi) {
    for (std::size_t t = 0; t < kTasksPerBatch; ++t) {
      const Campaign& c = b.batches[bi].campaigns[t];
      const Campaign& ref = a.batches[bi].campaigns[t];
      if (c.rounds_text != ref.rounds_text) ++result.failed;
      const auto task = static_cast<std::uint32_t>(bi * kTasksPerBatch + t);
      for (std::size_t r = 0; r < c.counts.size(); ++r) {
        const std::int64_t t0 = c.round_start_ns[r];
        log.Push("sim.round", t0,
                 t0 + std::llround(1e6 * c.round_ms[r]), task);
        const RoundCounts& rc = c.counts[r];
        total.slots += rc.slots;
        total.idle += rc.idle;
        total.singles += rc.singles;
        total.collisions += rc.collisions;
        total.reflections += rc.reflections;
        total.adds += rc.adds;
        fired += static_cast<double>(rc.reflections);
      }
      rounds += c.counts.size();
      ++campaigns;
      kinds.Add(c.kinds);
      log.Append(c.log);
      sum.transport_retransmissions += c.stats.transport_retransmissions;
      sum.transport_delivered += c.stats.transport_delivered;
      sum.transport_rejected_full += c.stats.transport_rejected_full;
      sum.health_quarantines += c.stats.health_quarantines;
      sum.health_probes_sent += c.stats.health_probes_sent;
      sum.rogue_extra_frames += c.stats.rogue_extra_frames;
      sum.faded_frames += c.stats.faded_frames;
    }
  }
  fired += static_cast<double>(sum.faded_frames);  // transmissions, incl. faded

  const ControlSamples control = ReplayControls(options.seed, 8, log);

  // The campaign's slots, costed kind by kind.
  LayerSample own;
  AddScaled(own, kinds.base, static_cast<double>(total.slots));
  AddScaled(own, kinds.reflect, static_cast<double>(total.reflections));
  AddScaled(own, kinds.add, static_cast<double>(total.adds));
  AddScaled(own, kinds.rx_single, static_cast<double>(total.singles));
  AddScaled(own, kinds.rx_collision, static_cast<double>(total.collisions));
  own.slots = static_cast<double>(total.slots);
  // Translate calls per slot are the campaign's, not the replay's.
  own.ledger[static_cast<std::size_t>(Layer::kTranslate)].calls =
      total.reflections;

  const std::vector<double> traced = RoundTimes(b);
  // The replays ran between the traced rounds, so those are the rounds
  // they are compared with.
  double measured_ns = 0.0;
  for (const double ms : traced) measured_ns += 1e6 * ms;
  const double predicted_ns = static_cast<double>(TotalNs(own.ledger));
  const double phy_ns =
      predicted_ns -
      static_cast<double>(own.ledger[static_cast<std::size_t>(Layer::kHelpers)].ns +
                          own.ledger[static_cast<std::size_t>(Layer::kImpair)].ns);
  const double nr = static_cast<double>(rounds > 0 ? rounds : 1);
  const double ns = static_cast<double>(total.slots > 0 ? total.slots : 1);
  const double nc = static_cast<double>(campaigns > 0 ? campaigns : 1);

  AddLayerMetrics(result, own, control);
  result.Add("mac.slots_per_round", ns / nr, "count");
  result.Add("mac.empty_slot_frac", static_cast<double>(total.idle) / ns, "frac");
  result.Add("mac.collision_slot_frac",
             static_cast<double>(total.collisions) / ns, "frac");
  result.Add("transport.retx_per_delivery",
             static_cast<double>(sum.transport_retransmissions) /
                 static_cast<double>(std::max<std::size_t>(sum.transport_delivered, 1)),
             "ratio");
  result.Add("transport.rejected_full",
             static_cast<double>(sum.transport_rejected_full) / nc, "count");
  result.Add("health.quarantines",
             static_cast<double>(sum.health_quarantines) / nc, "count");
  result.Add("health.probes_per_round",
             static_cast<double>(sum.health_probes_sent) / nr, "count");
  result.Add("impair.rogue_reflections_per_round",
             static_cast<double>(sum.rogue_extra_frames) / nr, "count");
  result.Add("impair.faded_frac",
             static_cast<double>(sum.faded_frames) / std::max(fired, 1.0),
             "frac");
  result.Add("sim.round.phy_explained_frac", phy_ns / measured_ns, "frac");
  result.Add("sim.round.mac_self_us", (measured_ns - phy_ns) / nr / 1e3, "us");

  double task_wall = 0.0;
  double capacity = 0.0;
  double straggler = 0.0;
  double steals = 0.0;
  for (const Batch& batch : a.batches) {
    std::vector<double> walls;
    for (const fr::runtime::TaskStat& t : batch.report.tasks) {
      walls.push_back(t.wall_s);
      task_wall += t.wall_s;
    }
    capacity += static_cast<double>(batch.report.run.threads) *
                batch.report.run.wall_s;
    straggler += *std::max_element(walls.begin(), walls.end()) / Median(walls);
    steals += static_cast<double>(batch.report.run.steals);
  }
  const double nab = static_cast<double>(a.batches.size());
  result.Add("runtime.busy_frac", task_wall / capacity, "frac");
  result.Add("runtime.straggler_ratio", straggler / nab, "ratio");
  result.Add("runtime.steals", steals / nab, "count");

  result.Add("sim.slot.replay_us", predicted_ns / ns / 1e3, "us");
  result.Add("sim.slot.gap_frac",
             std::fabs(measured_ns - predicted_ns) / measured_ns, "frac");
  result.Add("sim.replay.match_frac",
             kinds.single_delivered / std::max(kinds.rx_single.slots, 1.0),
             "frac");
  // Each traced round against the same round of the untraced batch.
  std::vector<double> ratios;
  for (std::size_t bi = 0; bi < b.batches.size(); ++bi) {
    for (std::size_t t = 0; t < kTasksPerBatch; ++t) {
      const std::vector<double>& tr = b.batches[bi].campaigns[t].round_ms;
      const std::vector<double>& un = a.batches[bi].campaigns[t].round_ms;
      for (std::size_t r = 0; r < std::min(tr.size(), un.size()); ++r) {
        if (un[r] > 0.0) ratios.push_back(tr[r] / un[r]);
      }
    }
  }
  result.Add("bench.trace_overhead_frac", Median(ratios) - 1.0, "frac");

  if (!options.trace_out.empty() && !log.WriteJsonLines(options.trace_out)) {
    result.Problem("cannot write " + options.trace_out);
  }
}

}  // namespace

fr::sim::FullStackConfig CampaignConfig(std::uint64_t seed, std::uint64_t task) {
  fr::Rng streams = fr::Rng::ForTrial(seed, task, 1);
  fr::sim::FullStackConfig c;
  c.num_tags = 6;
  c.rounds = kRoundsPerCampaign;
  c.transport.enabled = true;
  c.supervisor.enabled = true;
  c.supervisor.policing_enabled = true;
  c.policing.enabled = true;
  c.dynamics.seed = streams.NextU64();
  c.dynamics.gilbert.enabled = true;
  c.dynamics.blackouts.push_back({20, 28, {2}});
  c.rogue.seed = streams.NextU64();
  c.rogue.tags.resize(c.num_tags);
  c.rogue.tags[5].model = fr::impair::RogueModel::kBabbler;
  return c;
}

RunResult RunMacCampaign(const RunOptions& options) {
  RunResult result;
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(kMaxThreads, std::thread::hardware_concurrency()));
  fr::runtime::Executor executor(threads);
  fr::runtime::SweepEngine engine(executor);
  // Warm-up: every worker builds its FFT tables and receiver workspace.
  engine.Run({threads, 1}, [&](std::size_t p, std::size_t) {
    Campaign c;
    RunCampaign(options.seed, kWarmupTask - p, 2, false, c);
    return true;
  });
  result.first_step_ns = NowNs();
  if (options.setup_only) return result;

  if (options.trace) {
    AddTracedMetrics(result, options, engine);
    return result;
  }

  const BatchRun run = RunBatches(engine, options.seed, options.seconds);
  CountSteps(run, result);
  AddHostMetrics(result, RoundTimes(run), run.windows);
  AddOutputs(result, options.seed, run);
  AddFailMetrics(result);
  return result;
}

}  // namespace perfbench
