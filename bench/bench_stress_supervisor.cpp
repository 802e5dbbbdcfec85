// Stress acceptance bench for the self-healing link supervisor
// (src/health/) under time-varying channel dynamics (impair/dynamics).
//
// Three seeds of the same fade/blackout/mobility schedule run twice
// each — supervisor on and supervisor off — as a seed×{on,off} task
// grid on the runtime executor. The schedule combines:
//
//   * Gilbert–Elliott burst fades (bad state ~96% per-frame loss);
//   * a mobility trace where tags walk away and come back twice;
//   * two scheduled excitation blackouts (tags 1 and 2 go dark for a
//     stretch mid-campaign and return);
//   * one dead tag (the last) that goes dark and never returns.
//
// Acceptance (exit nonzero on any miss):
//   * supervisor-on delivers >= 95% of offered frames on every seed,
//     with every audited invariant (no dup/reorder, healthy-tag
//     isolation) intact;
//   * supervisor-off is materially worse (>= 5 percentage points
//     below the paired on-run) — the closed loop is load-bearing;
//   * the dead tag is Quarantined within QuarantineDetectionBound()
//     rounds of its death on every supervisor-on seed.
//
// Determinism: each campaign is a pure function of its StressConfig;
// stdout and BENCH_stress_supervisor.json are byte-identical at every
// --threads value and across a SIGKILL + --resume cycle (checkpoint
// payloads carry the full StressResult bit-exactly).
//
//   bench_stress_supervisor [--rounds N] [--threads N] [--out-dir DIR]
//                           [--checkpoint PATH] [--checkpoint-every N]
//                           [--resume [PATH]] [--watchdog-s X]
//                           [--workers N]
//
// Default 600 offered rounds + drain (also the minimum — the
// acceptance thresholds are calibrated for this schedule); --rounds
// lengthens the soak.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "distance_figure.h"
#include "runtime/checkpoint.h"
#include "runtime/dist/worker.h"
#include "runtime/executor.h"
#include "runtime/recovery.h"
#include "sim/dist_bodies.h"
#include "sim/stress.h"
#include "sim/sweep.h"

using namespace freerider;

int main(int argc, char** argv) {
  // Worker mode first: the coordinator re-execs this binary with
  // --dist-serve, and the serve loop must start before any flag
  // parser or thread pool touches the process.
  sim::RegisterDistBodies();
  if (const int rc = runtime::dist::HandleWorkerMode(argc, argv); rc >= 0) {
    return rc;
  }
  bool args_ok = true;
  runtime::InitThreadsFromArgs(argc, argv, &args_ok);
  runtime::RobustSweepOptions robust =
      runtime::RobustOptionsFromArgs(argc, argv, &args_ok);
  runtime::dist::DistOptions dist =
      runtime::dist::DistOptionsFromArgs(argc, argv, &args_ok);
  std::size_t rounds = 600;
  cli::ConsumeSize(argc, argv, "--rounds", &rounds, &args_ok);
  const std::string out_dir = bench::OutDirFromArgs(argc, argv);
  if (!args_ok) return cli::kUsageError;
  const std::string usage =
      std::string("bench_stress_supervisor [--rounds N] ") +
      bench::kRuntimeUsage + " [--workers N]";
  if (const int rc = cli::RejectUnknownArgs(argc, argv, usage.c_str())) {
    return rc;
  }
  // The acceptance thresholds are calibrated for the 600-round
  // schedule: shorter campaigns don't give the long fades room to
  // separate the arms (the supervisor's detect-and-recover cycle is a
  // fixed cost per fade). --rounds only lengthens the soak.
  if (rounds < 600) rounds = 600;

  std::printf("=== Stress: self-healing supervisor vs time-varying "
              "channel ===\n");
  std::printf("%zu offered rounds + drain, 6 tags, burst fades + mobility "
              "+ blackouts + 1 dead tag\n\n",
              rounds);

  const std::vector<std::uint64_t>& seeds = sim::StressBenchSeeds();
  const std::size_t num_seeds = seeds.size();

  // seed×{on,off} grid; both runs of a pair share the identical
  // dynamics schedule, so the delta is attributable to the supervisor.
  // With --workers N the grid shards across a fault-tolerant worker
  // fleet; stdout and every byte-diffed artifact are identical to the
  // in-process run (DESIGN.md §12).
  std::vector<sim::StressResult> on_results;
  std::vector<sim::StressResult> off_results;
  runtime::dist::DistReport dist_report;
  sim::StressSweepDistributed(rounds, robust, dist, &on_results, &off_results,
                              &dist_report);

  sim::TablePrinter table({"seed", "supervisor", "delivery %", "offered",
                           "delivered", "expired", "faded", "quar", "recov",
                           "probes", "boosts", "violations"});
  for (std::size_t p = 0; p < num_seeds; ++p) {
    for (int t = 0; t < 2; ++t) {
      const sim::StressResult& r = t == 0 ? on_results[p] : off_results[p];
      table.AddRow({std::to_string(seeds[p]), t == 0 ? "on" : "off",
                    sim::TablePrinter::Num(100.0 * r.delivery_ratio, 2),
                    std::to_string(r.offered), std::to_string(r.delivered),
                    std::to_string(r.expired),
                    std::to_string(r.faded_frames),
                    std::to_string(r.quarantines),
                    std::to_string(r.recoveries),
                    std::to_string(r.probes_sent),
                    std::to_string(r.boost_commands),
                    std::to_string(r.violations.total())});
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  sim::TablePrinter bound_table({"seed", "dead round", "quarantined round",
                                 "detection rounds", "bound", "within"});
  bool all_ok = true;
  double min_gap_pp = 100.0;
  for (std::size_t p = 0; p < num_seeds; ++p) {
    const sim::StressResult& on = on_results[p];
    const sim::StressResult& off = off_results[p];
    const sim::StressConfig config =
        sim::MakeStressBenchConfig(seeds[p], true, rounds);
    bound_table.AddRow(
        {std::to_string(seeds[p]), std::to_string(config.dead_round),
         on.dead_tag_audited ? std::to_string(on.quarantine_round) : "-",
         on.dead_tag_audited ? std::to_string(on.detection_rounds) : "-",
         std::to_string(on.detection_bound),
         on.dead_tag_audited && on.quarantine_bound_met ? "yes"
                                                        : "NO (BUG)"});
    const double gap_pp = 100.0 * (on.delivery_ratio - off.delivery_ratio);
    min_gap_pp = gap_pp < min_gap_pp ? gap_pp : min_gap_pp;
    bool seed_ok = true;
    // The transport invariants (no dup / no reorder) are not the
    // supervisor's to break or fix: both arms must hold them.
    for (int t = 0; t < 2; ++t) {
      const sim::StressResult& r = t == 0 ? on : off;
      if (r.passed) continue;
      seed_ok = false;
      std::printf("FAIL (seed %llu, supervisor %s): invariants violated:\n",
                  static_cast<unsigned long long>(seeds[p]),
                  t == 0 ? "on" : "off");
      for (const sim::CampaignViolation& v : r.violations.records()) {
        std::printf("  round %zu: %s %s\n", v.round, v.kind.c_str(),
                    v.detail.c_str());
      }
    }
    if (on.delivery_ratio < 0.95) {
      seed_ok = false;
      std::printf("FAIL (seed %llu): supervisor-on delivery %.2f%% < 95%%\n",
                  static_cast<unsigned long long>(seeds[p]),
                  100.0 * on.delivery_ratio);
    }
    if (gap_pp < 5.0) {
      seed_ok = false;
      std::printf("FAIL (seed %llu): supervisor buys only %.2f pp "
                  "(on %.2f%% vs off %.2f%%)\n",
                  static_cast<unsigned long long>(seeds[p]), gap_pp,
                  100.0 * on.delivery_ratio, 100.0 * off.delivery_ratio);
    }
    if (!on.dead_tag_audited || !on.quarantine_bound_met) {
      seed_ok = false;
      std::printf("FAIL (seed %llu): dead tag not quarantined within "
                  "%zu rounds\n",
                  static_cast<unsigned long long>(seeds[p]),
                  on.detection_bound);
    }
    all_ok = all_ok && seed_ok;
  }
  std::printf("dead-tag quarantine detection:\n%s\n",
              bound_table.ToString().c_str());

  sim::TablePrinter verdict({"check", "result"});
  verdict.AddRow({"supervisor-on delivery >= 95%",
                  all_ok ? "pass" : "see FAIL lines"});
  char gap_buf[64];
  std::snprintf(gap_buf, sizeof(gap_buf), "min gap %.2f pp", min_gap_pp);
  verdict.AddRow({"supervisor-off materially worse", gap_buf});
  std::printf("%s\n", verdict.ToString().c_str());

  bench::EmitBench(out_dir, "stress_supervisor",
                   table.ToJson("stress_supervisor") +
                       bound_table.ToJson("stress_quarantine_bound") +
                       verdict.ToJson("verdict"));
  bench::EmitTiming(out_dir, "stress_supervisor",
                    dist_report.SummaryJson("stress_supervisor"));

  // Deterministic observability artifacts: a registry filled after the
  // barrier from the (restored-or-recomputed) results plus the flight
  // recordings each campaign carried in its payload. Everything here
  // is a pure function of the configs, so CI byte-diffs these across
  // --threads values and kill/resume alongside BENCH.
  obs::MetricsRegistry metrics;
  std::vector<obs::NamedTrace> traces;
  for (std::size_t p = 0; p < num_seeds; ++p) {
    for (int t = 0; t < 2; ++t) {
      const sim::StressResult& r = t == 0 ? on_results[p] : off_results[p];
      const std::string arm = t == 0 ? "on" : "off";
      metrics.Count("stress.offered." + arm, r.offered);
      metrics.Count("stress.delivered." + arm, r.delivered);
      metrics.Count("stress.expired." + arm, r.expired);
      metrics.Count("stress.faded_frames." + arm, r.faded_frames);
      metrics.Count("stress.quarantines." + arm, r.quarantines);
      metrics.Count("stress.recoveries." + arm, r.recoveries);
      metrics.Count("stress.violations." + arm, r.violations.total());
      if (r.offered > 0) {
        metrics.Observe("stress.delivery_permille." + arm,
                        r.delivered * 1000 / r.offered);
      }
      if (r.dead_tag_audited) {
        metrics.Observe("stress.detection_rounds", r.detection_rounds);
      }
      const obs::TraceDecodeResult decoded = obs::DecodeTraces(r.trace);
      for (const obs::NamedTrace& nt : decoded.traces) {
        for (const obs::TraceEvent& e : nt.ring.Events()) {
          metrics.Count(std::string("stress.events.") +
                        obs::EventKindName(e.kind));
        }
        traces.push_back(
            {"seed" + std::to_string(seeds[p]) + "_" + arm, nt.ring});
      }
    }
  }
  bench::EmitMetrics(out_dir, "stress_supervisor", metrics);
  bench::EmitTraces(out_dir, "stress_supervisor", traces);
  bench::EmitProfile(out_dir, "stress_supervisor");
  std::printf(
      "Reading: under burst fades and blackouts the supervisor's closed\n"
      "loop (EWMA health -> redundancy boost + admission + probes) keeps\n"
      "delivery above 95%% where the bare ARQ, with the same retry budget,\n"
      "expires frames; dead tags are quarantined within the documented\n"
      "bound and recovered tags re-admitted without touching healthy\n"
      "tags' streams.\n");
  return all_ok ? 0 : 1;
}
