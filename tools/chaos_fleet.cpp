// Worker-kill chaos harness for the distributed sweep runtime
// (DESIGN.md §12): the executable proof that a campaign's output does
// not depend on which workers die, hang, or corrupt frames mid-run.
//
// The probe campaign is the registry's "chaos_probe" body (short
// Framed-Slotted-Aloha campaigns on counter-derived per-task streams),
// reduced to a canonical hex-float digest in grid order. The harness
//
//   1. runs the campaign in-process (--workers 0) for the baseline
//      digest, then
//   2. replays it through a worker fleet under a matrix of
//      FREERIDER_CHAOS schedules — SIGKILLs, SIGSTOPs (detected only
//      by heartbeat expiry), bit-flipped result frames, and a mix —
//      with a short lease timeout so hang detection happens in
//      seconds, and
//   3. fails (exit 1) unless every scenario reproduces the baseline
//      digest byte for byte, satisfies the accounting invariant
//      ok + restored + quarantined + drained == total, and shows the
//      fault actually fired (deaths/respawns for kills and stops,
//      corrupt frames for flips).
//
//   chaos_fleet [--workers N] [--points P] [--trials T] [--rounds R]
//               [--seed S] [--lease-s X] [--scenario NAME]
//
// --scenario runs a single named scenario (default: all).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "runtime/dist/worker.h"
#include "sim/dist_bodies.h"

using namespace freerider;

namespace {

struct Scenario {
  const char* name;
  const char* chaos;  ///< FREERIDER_CHAOS schedule.
  bool expect_deaths = false;   ///< SIGKILL/SIGSTOP in the schedule.
  bool expect_corrupt = false;  ///< Bit flip in the schedule.
};

/// The kill matrix. Worker indices are first-generation (respawns get
/// fresh indices), so every directive fires exactly once per run.
const Scenario kScenarios[] = {
    {"none", "", false, false},
    {"kill_one", "kill@0:1", true, false},
    {"kill_two", "kill@0:1,kill@1:2", true, false},
    {"stop_hang", "stop@0:1", true, false},
    {"flip_frame", "flip@0:1", false, true},
    {"mixed", "kill@0:1,stop@1:1,flip@2:2", true, true},
};

bool AccountingOk(const runtime::RobustSweepReport& r) {
  return r.tasks_ok + r.tasks_restored + r.tasks_quarantined +
             r.tasks_drained ==
         r.tasks_total;
}

}  // namespace

int main(int argc, char** argv) {
  sim::RegisterDistBodies();
  if (const int rc = runtime::dist::HandleWorkerMode(argc, argv); rc >= 0) {
    return rc;
  }

  std::size_t workers = 4;
  std::size_t points = 6;
  std::size_t trials = 2;
  std::size_t rounds = 300;
  std::uint64_t seed = 20260808;
  double lease_s = 2.0;
  std::string only;
  bool args_ok = true;
  cli::ConsumeSize(argc, argv, "--workers", &workers, &args_ok);
  cli::RejectAboveCap("--workers", workers, runtime::dist::kMaxWorkers,
                      &args_ok);
  cli::ConsumeSize(argc, argv, "--points", &points, &args_ok);
  cli::ConsumeSize(argc, argv, "--trials", &trials, &args_ok);
  cli::ConsumeSize(argc, argv, "--rounds", &rounds, &args_ok);
  cli::ConsumeU64(argc, argv, "--seed", &seed, &args_ok);
  if (cli::ConsumeDouble(argc, argv, "--lease-s", &lease_s, &args_ok) &&
      lease_s <= 0.0) {
    std::fprintf(stderr, "error: --lease-s must be positive\n");
    args_ok = false;
  }
  cli::ConsumeValue(argc, argv, "--scenario", &only);
  if (!args_ok) return cli::kUsageError;
  if (const int rc = cli::RejectUnknownArgs(
          argc, argv,
          "chaos_fleet [--workers N] [--points P] [--trials T] [--rounds R]"
          " [--seed S] [--lease-s X] [--scenario NAME]")) {
    return rc;
  }
  if (workers == 0 || points == 0 || trials == 0 || rounds == 0) {
    std::fprintf(stderr, "error: --workers/--points/--trials/--rounds must "
                         "be positive\n");
    return cli::kUsageError;
  }

  const runtime::SweepGrid grid{points, trials};
  std::printf("=== chaos_fleet: %zu workers, %zux%zu grid, %zu-round probes, "
              "lease %.1fs ===\n\n",
              workers, points, trials, rounds, lease_s);

  // Baseline: the same campaign, in-process. Every fleet run must
  // reproduce this digest byte for byte.
  std::string baseline;
  {
    runtime::dist::DistOptions dist;
    dist.workers = 0;
    const runtime::dist::DistReport report = sim::ChaosProbeDistributed(
        seed, rounds, grid, runtime::RobustSweepOptions{}, dist, &baseline);
    if (!AccountingOk(report.robust) || report.robust.cancelled) {
      std::fprintf(stderr, "FAIL: in-process baseline did not complete\n");
      return 1;
    }
  }
  std::printf("baseline digest: %zu tasks, %zu bytes\n\n", grid.tasks(),
              baseline.size());

  TablePrinter table({"scenario", "digest", "accounting", "deaths", "respawns",
                      "corrupt", "verdict"});
  bool all_ok = true;
  for (const Scenario& s : kScenarios) {
    if (!only.empty() && only != s.name) continue;
    ::setenv("FREERIDER_CHAOS", s.chaos, 1);
    runtime::dist::DistOptions dist;
    dist.workers = workers;
    dist.lease_timeout_s = lease_s;
    dist.speculate_after_s = 4.0 * lease_s;
    std::string digest;
    const runtime::dist::DistReport report = sim::ChaosProbeDistributed(
        seed, rounds, grid, runtime::RobustSweepOptions{}, dist, &digest);
    ::unsetenv("FREERIDER_CHAOS");

    const std::size_t deaths = report.worker_deaths + report.lease_expiries;
    const bool digest_ok = digest == baseline;
    const bool accounting = AccountingOk(report.robust);
    // A scheduled fault that never fired means the harness tested
    // nothing: fail loudly rather than report a hollow pass. (The
    // fleet must actually have run for these expectations to apply.)
    const bool fault_fired =
        (!s.expect_deaths || deaths + report.respawns > 0) &&
        (!s.expect_corrupt || report.corrupt_frames > 0);
    const bool ok = digest_ok && accounting && !report.robust.cancelled &&
                    report.distributed && fault_fired;
    all_ok = all_ok && ok;
    table.AddRow({s.name, digest_ok ? "match" : "MISMATCH",
                  accounting ? "ok" : "BROKEN", std::to_string(deaths),
                  std::to_string(report.respawns),
                  std::to_string(report.corrupt_frames),
                  ok ? "pass" : "FAIL"});
    if (!digest_ok) {
      std::fprintf(stderr, "scenario %s digest mismatch:\n--- baseline\n%s"
                           "--- %s\n%s",
                   s.name, baseline.c_str(), s.name, digest.c_str());
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("%s\n", all_ok ? "chaos_fleet: PASS (all scenarios reproduced "
                               "the baseline digest)"
                             : "chaos_fleet: FAIL");
  return all_ok ? 0 : 1;
}
