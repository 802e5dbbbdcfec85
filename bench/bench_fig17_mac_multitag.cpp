// Fig. 17: multi-tag MAC performance.
//
//  (a) Aggregate throughput for 4-20 tags, measured (event simulation
//      with PLM losses and collisions) vs simulated (analytic
//      expectation); extended beyond 20 tags to show the ~18 kbps
//      Framed-Slotted-Aloha asymptote and the ~40 kbps TDM bound.
//  (b) Jain's fairness index vs tag count (~0.85 at 20 tags).
//
// Both sweeps run as point×trial grids on the runtime executor with
// campaign seeds pre-drawn in the historical Split() order, so the
// tables match the serial run bit for bit at every --threads value.
//
// Observability: every 17a campaign records a kMacRound flight-
// recorder event per round ((singles<<16)|collisions, announced
// slots); the rings ride the checkpoint payload (versioned) so a
// resumed run reproduces METRICS_/TRACE_fig17_mac_multitag byte for
// byte alongside BENCH.
#include <cstdio>
#include <iterator>

#include "common/stats.h"
#include "distance_figure.h"
#include "mac/slotted_aloha.h"
#include "runtime/checkpoint.h"
#include "sim/sweep.h"

using namespace freerider;

namespace {

constexpr std::uint64_t kFig17PayloadVersion = 2;

/// One fig 17a point: its campaign and the campaign's serialized
/// flight-recorder ring.
struct Fig17aPoint {
  mac::CampaignStats stats;
  std::string trace;
};

/// The point's checkpoint field list. T is const when writing.
template <class Io, class T>
bool Fig17aPointFields(Io& io, T& point) {
  auto& s = point.stats;
  return io.Version(kFig17PayloadVersion) &&
         io.F64(s.aggregate_throughput_bps) && io.F64(s.jain_fairness) &&
         io.Seq(s.per_tag_throughput_bps, std::size_t{1} << 16,
                [&io](auto& v) { return io.F64(v); }) &&
         io.F64(s.mean_slots) && io.F64(s.total_time_s) &&
         io.Str(point.trace);
}

}  // namespace

int main(int argc, char** argv) {
  bool args_ok = true;
  runtime::InitThreadsFromArgs(argc, argv, &args_ok);
  const runtime::RobustSweepOptions robust =
      runtime::RobustOptionsFromArgs(argc, argv, &args_ok);
  const std::string out_dir = bench::OutDirFromArgs(argc, argv);
  if (!args_ok) return cli::kUsageError;
  const std::string usage =
      std::string("bench_fig17_mac_multitag ") + bench::kRuntimeUsage;
  if (const int rc = cli::RejectUnknownArgs(argc, argv, usage.c_str())) {
    return rc;
  }

  Rng rng(17);
  const mac::CampaignConfig config;
  const std::size_t rounds = 2000;

  std::printf("=== Fig. 17a: aggregate throughput vs number of tags ===\n");
  std::printf("%zu rounds per point; slot %.1f ms carrying %zu bits; "
              "PLM control %.1f ms per round\n\n",
              rounds, config.timing.slot_s * 1e3,
              config.timing.slot_payload_bits,
              config.timing.ControlDurationS() * 1e3);

  // The two grids are separate campaigns sharing the flag set: each
  // gets its own checkpoint file.
  runtime::RobustSweepOptions robust_a = robust;
  runtime::RobustSweepOptions robust_b = robust;
  if (!robust.checkpoint_path.empty()) {
    robust_a.checkpoint_path += ".a";
    robust_b.checkpoint_path += ".b";
  }
  robust_a.campaign = runtime::CampaignId("fig17a_throughput", 17);
  robust_b.campaign = runtime::CampaignId("fig17b_fairness", 17);

  const std::size_t tag_counts_a[] = {4, 8, 12, 16, 20, 40, 80, 160};
  const std::size_t points_a = std::size(tag_counts_a);
  std::vector<std::uint64_t> seeds_a(points_a);
  for (auto& s : seeds_a) s = rng.NextU64();
  std::vector<Fig17aPoint> results_a(points_a);
  runtime::RecoveryRunner runner_a(runtime::DefaultExecutor(), robust_a);
  const runtime::RobustSweepReport report_a = runner_a.Run(
      {points_a, 1},
      [&](std::size_t p, std::size_t) {
        mac::FramedSlottedAlohaSimulator sim(config);
        Rng campaign_rng(seeds_a[p]);
        obs::TraceRing ring;
        Fig17aPoint point;
        point.stats =
            sim.RunCampaign(tag_counts_a[p], rounds, campaign_rng, &ring);
        point.trace = obs::SerializeTrace(
            "tags" + std::to_string(tag_counts_a[p]), ring);
        runtime::PayloadWriter w;
        Fig17aPointFields(w, point);
        runtime::RobustTaskResult out;
        out.payload = w.Take();
        return out;
      },
      [&](std::size_t p, std::size_t, const std::string& payload) {
        return runtime::ReadPayload(
            payload, &results_a[p],
            [](auto& r, auto& point) { return Fig17aPointFields(r, point); });
      });

  sim::TablePrinter table({"tags", "measured (kbps)", "simulated (kbps)",
                           "TDM bound (kbps)", "mean slots"});
  for (std::size_t p = 0; p < points_a; ++p) {
    const std::size_t tags = tag_counts_a[p];
    const mac::CampaignStats& stats = results_a[p].stats;
    table.AddRow(
        {std::to_string(tags),
         sim::TablePrinter::Num(stats.aggregate_throughput_bps / 1e3, 1),
         sim::TablePrinter::Num(
             mac::ExpectedAlohaThroughputBps(tags, config.timing) / 1e3, 1),
         sim::TablePrinter::Num(
             mac::TdmThroughputBps(tags, config.timing) / 1e3, 1),
         sim::TablePrinter::Num(stats.mean_slots, 1)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Fairness over a deployment-length campaign (the paper measures a
  // finite experiment: with ~15 rounds each tag lands only a handful of
  // successes, which is what puts Jain's index near 0.85 rather than
  // the asymptotic 1.0 of an infinitely long run).
  std::printf("=== Fig. 17b: Jain's fairness index (15-round campaigns) ===\n");
  const std::size_t tag_counts_b[] = {4, 8, 12, 16, 20};
  const std::size_t points_b = std::size(tag_counts_b);
  const std::size_t reps = 20;
  std::vector<std::uint64_t> seeds_b(points_b * reps);
  for (auto& s : seeds_b) s = rng.NextU64();
  std::vector<double> fairness_samples(points_b * reps);
  runtime::RecoveryRunner runner_b(runtime::DefaultExecutor(), robust_b);
  const runtime::RobustSweepReport report_b = runner_b.Run(
      {points_b, reps},
      [&](std::size_t p, std::size_t rep) {
        mac::FramedSlottedAlohaSimulator sim(config);
        Rng campaign_rng(seeds_b[p * reps + rep]);
        runtime::PayloadWriter w;
        w.F64(sim.RunCampaign(tag_counts_b[p], 15, campaign_rng).jain_fairness);
        runtime::RobustTaskResult out;
        out.payload = w.Take();
        return out;
      },
      [&](std::size_t p, std::size_t rep, const std::string& payload) {
        runtime::PayloadReader r(payload);
        double v = 0.0;
        if (!r.F64(v) || !r.AtEnd()) return false;
        fairness_samples[p * reps + rep] = v;
        return true;
      });

  sim::TablePrinter fair({"tags", "fairness index"});
  for (std::size_t p = 0; p < points_b; ++p) {
    // Rep-order accumulation: identical to the historical serial mean.
    RunningStats fairness;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      fairness.Add(fairness_samples[p * reps + rep]);
    }
    fair.AddRow({std::to_string(tag_counts_b[p]),
                 sim::TablePrinter::Num(fairness.mean(), 2)});
  }
  std::printf("%s\n", fair.ToString().c_str());

  std::printf(
      "Paper: throughput rises with tag count (control overhead amortizes),\n"
      "asymptoting near 18 kbps for Framed Slotted Aloha vs ~40 kbps for a\n"
      "collision-free TDM; fairness stays ~0.85 at 20 tags because the\n"
      "scheduler grows the frame with the population.\n");

  bench::EmitBench(out_dir, "fig17_mac_multitag",
                   table.ToJson("fig17a_throughput") +
                       fair.ToJson("fig17b_fairness"));
  bench::EmitTiming(out_dir, "fig17_mac_multitag",
                    report_a.SummaryJson("fig17a_throughput") +
                        report_b.SummaryJson("fig17b_fairness"));

  // Deterministic observability artifacts: a registry filled after the
  // barrier, in point order, from the (restored-or-recomputed) campaign
  // stats and flight recordings — byte-diffed by CI across --threads
  // values and kill/resume alongside BENCH.
  obs::MetricsRegistry metrics;
  std::vector<obs::NamedTrace> traces;
  for (const Fig17aPoint& point : results_a) {
    metrics.Observe("fig17a.throughput_kbps",
                    static_cast<std::uint64_t>(
                        point.stats.aggregate_throughput_bps / 1e3));
    metrics.Observe(
        "fig17a.fairness_permille",
        static_cast<std::uint64_t>(point.stats.jain_fairness * 1000.0));
    const obs::TraceDecodeResult decoded = obs::DecodeTraces(point.trace);
    for (const obs::NamedTrace& nt : decoded.traces) {
      for (const obs::TraceEvent& e : nt.ring.Events()) {
        metrics.Count("fig17a.singles", e.a >> 16);
        metrics.Count("fig17a.collisions", e.a & 0xFFFF);
        metrics.Observe("fig17a.slots", e.b);
        metrics.Count(std::string("fig17a.events.") +
                      obs::EventKindName(e.kind));
      }
      traces.push_back(nt);
    }
  }
  for (std::size_t i = 0; i < fairness_samples.size(); ++i) {
    metrics.Observe(
        "fig17b.fairness_permille",
        static_cast<std::uint64_t>(fairness_samples[i] * 1000.0));
  }
  bench::EmitMetrics(out_dir, "fig17_mac_multitag", metrics);
  bench::EmitTraces(out_dir, "fig17_mac_multitag", traces);
  bench::EmitProfile(out_dir, "fig17_mac_multitag");
  return (report_a.cancelled || report_b.cancelled) ? 1 : 0;
}
