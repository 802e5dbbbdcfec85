// Crash-injection harness for the preemption-safe campaign runtime.
//
// Proves the checkpoint/resume contract the hard way: fork a campaign,
// SIGKILL it at a randomized task count (FREERIDER_CRASH_AFTER_N_TASKS
// — raised from inside the worker the instant the N-th task commits),
// resume from the surviving checkpoint, kill again, and after a chain
// of kills let the final resume run to completion. The recovered
// output must be byte-identical to an uninterrupted single-threaded
// baseline — at --threads 1 *and* 8, because task results are pure
// functions of (seed, point, trial).
//
// Coverage per run (all deterministic, driven by the repo Rng):
//   3 campaign modes (fig-style link sweep, chaos-soak grid, multitag
//   MAC grid) x 3 harness seeds x 2 thread counts, 3 chained kills
//   each = 54 SIGKILLs, plus:
//     * every 3rd trial truncates the checkpoint tail before resuming
//       (the salvage path must shrug off a torn file);
//     * a quarantine self-check: a deterministically-poisoned task is
//       retried, quarantined, recorded in the checkpoint, and the
//       campaign still completes with the poison reported.
//
// Every campaign runs in a fork()ed child (the parent never touches an
// Executor, so each child builds a fresh thread pool); children write
// their canonical output via the atomic file writer and _exit.
//
//   crash_campaign [--out-dir DIR] [--kills N] [--quick]
//
// Exit code 0 = every resume converged bit-identically; 1 = any
// divergence, unexpected child status, or failed self-check.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "mac/slotted_aloha.h"
#include "runtime/checkpoint.h"
#include "runtime/executor.h"
#include "runtime/recovery.h"
#include "sim/soak.h"
#include "sim/sweep.h"

using namespace freerider;

namespace {

// ------------------------------------------------------- campaigns
//
// Each campaign produces one canonical output string (hex-float, so
// byte comparison is bit comparison) and reports its grid size so the
// harness can pick kill points inside it.

struct CampaignResult {
  std::string output;
  runtime::RobustSweepReport report;
};

CampaignResult RunFigCampaign(const runtime::RobustSweepOptions& robust) {
  const std::vector<double> distances = {1.0, 2.0, 4.0, 6.0,
                                         8.0, 10.0, 14.0, 18.0};
  runtime::RobustSweepReport report;
  const auto points = sim::DistanceSweepRobust(
      core::RadioType::kWifi, channel::LosDeployment(1.0), distances,
      /*packets=*/2, /*seed=*/424242, "crash_fig", robust, &report);
  std::string out = "campaign fig\n";
  for (const auto& p : points) {
    char line[256];
    std::snprintf(line, sizeof(line), "d=%a thr=%a ber=%a prr=%a n=%zu\n",
                  p.tag_to_rx_m, p.stats.tag_throughput_bps, p.stats.tag_ber,
                  p.stats.packet_reception_rate, p.stats.redundancy_used);
    out += line;
  }
  return {std::move(out), std::move(report)};
}

CampaignResult RunSoakCampaign(const runtime::RobustSweepOptions& robust) {
  const std::uint64_t seeds[] = {101ull, 202ull, 303ull};
  const std::size_t num_seeds = 3;
  std::vector<sim::SoakConfig> soaks(num_seeds);
  for (std::size_t i = 0; i < num_seeds; ++i) {
    soaks[i].seed = seeds[i];
    soaks[i].num_tags = 3;
    soaks[i].rounds = 60;
    soaks[i].drain_rounds = 60;
    soaks[i].offer_every = 4;
    soaks[i].transport.max_transmissions = 64;
    soaks[i].transport.expiry_rounds = 1 << 20;
    soaks[i].transport.hole_skip_rounds = 1 << 20;
    sim::SoakSegment dirty;
    dirty.start_round = 20;
    dirty.impairments.dropout.enabled = true;
    dirty.impairments.dropout.dropout_probability = 0.10;
    dirty.impairments.dropout.min_keep_fraction = 0.3;
    dirty.impairments.dropout.max_keep_fraction = 0.9;
    soaks[i].schedule = {dirty};
  }
  std::vector<sim::SoakResult> results(num_seeds);
  runtime::RobustSweepOptions options = robust;
  options.campaign = runtime::CampaignId("crash_soak", 1);
  runtime::RecoveryRunner runner(runtime::DefaultExecutor(), options);
  runtime::RobustSweepReport report = runner.Run(
      {num_seeds, 1},
      [&](std::size_t p, std::size_t) {
        results[p] = sim::RunSoak(soaks[p]);
        runtime::RobustTaskResult out;
        out.payload = sim::SerializeSoakResult(results[p]);
        return out;
      },
      [&](std::size_t p, std::size_t, const std::string& payload) {
        return sim::DeserializeSoakResult(payload, &results[p]);
      });
  std::string out = "campaign soak\n";
  for (std::size_t i = 0; i < num_seeds; ++i) {
    out += "seed " + std::to_string(seeds[i]) + " passed=" +
           (results[i].passed ? "1" : "0") + "\n";
    out += results[i].digest;
  }
  return {std::move(out), std::move(report)};
}

CampaignResult RunMultitagCampaign(const runtime::RobustSweepOptions& robust) {
  const std::size_t tag_counts[] = {4, 8, 12, 16};
  const std::size_t points = 4;
  const std::size_t reps = 5;
  Rng rng(99);
  std::vector<std::uint64_t> seeds(points * reps);
  for (auto& s : seeds) s = rng.NextU64();
  std::vector<double> fairness(points * reps);
  const mac::CampaignConfig config;
  runtime::RobustSweepOptions options = robust;
  options.campaign = runtime::CampaignId("crash_multitag", 99);
  runtime::RecoveryRunner runner(runtime::DefaultExecutor(), options);
  runtime::RobustSweepReport report = runner.Run(
      {points, reps},
      [&](std::size_t p, std::size_t rep) {
        mac::FramedSlottedAlohaSimulator sim(config);
        Rng campaign_rng(seeds[p * reps + rep]);
        fairness[p * reps + rep] =
            sim.RunCampaign(tag_counts[p], 15, campaign_rng).jain_fairness;
        runtime::PayloadWriter w;
        w.F64(fairness[p * reps + rep]);
        runtime::RobustTaskResult out;
        out.payload = w.Take();
        return out;
      },
      [&](std::size_t p, std::size_t rep, const std::string& payload) {
        runtime::PayloadReader r(payload);
        double v = 0.0;
        if (!r.F64(v) || !r.AtEnd()) return false;
        fairness[p * reps + rep] = v;
        return true;
      });
  std::string out = "campaign multitag\n";
  for (std::size_t i = 0; i < points * reps; ++i) {
    char line[64];
    std::snprintf(line, sizeof(line), "f[%zu]=%a\n", i, fairness[i]);
    out += line;
  }
  return {std::move(out), std::move(report)};
}

struct Mode {
  const char* name;
  std::size_t tasks;
  CampaignResult (*run)(const runtime::RobustSweepOptions&);
};

const Mode kModes[] = {
    {"fig", 8, RunFigCampaign},
    {"soak", 3, RunSoakCampaign},
    {"multitag", 20, RunMultitagCampaign},
};

// ----------------------------------------------------- child driver

/// Run one campaign in a fork()ed child: configure threads and the
/// crash hook, execute, write the canonical output atomically, _exit.
/// Returns the child's wait status.
int RunChild(const Mode& mode, std::size_t threads, std::size_t crash_after,
             bool resume, const std::string& ckpt_path,
             const std::string& out_path, bool expect_accounting_ok = true) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    if (crash_after > 0) {
      setenv("FREERIDER_CRASH_AFTER_N_TASKS",
             std::to_string(crash_after).c_str(), 1);
    } else {
      unsetenv("FREERIDER_CRASH_AFTER_N_TASKS");
    }
    runtime::SetDefaultThreads(threads);
    runtime::RobustSweepOptions robust;
    robust.checkpoint_path = ckpt_path;
    robust.checkpoint_every = 1;  // snapshot on every completion
    robust.resume = resume;
    const CampaignResult result = mode.run(robust);
    const bool accounting_ok =
        result.report.tasks_ok + result.report.tasks_restored +
            result.report.tasks_quarantined + result.report.tasks_drained ==
        result.report.tasks_total;
    if (!runtime::WriteFileAtomic(out_path, result.output) ||
        (expect_accounting_ok && !accounting_ok)) {
      _exit(3);
    }
    _exit(result.report.cancelled ? 2 : 0);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      std::perror("waitpid");
      std::exit(1);
    }
  }
  return status;
}

bool KilledBySigkill(int status) {
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

bool ExitedClean(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string Slurp(const std::string& path) {
  std::string bytes;
  if (!runtime::ReadFileBytes(path, &bytes)) return {};
  return bytes;
}

/// Chop a few bytes off the checkpoint tail — the torn-write the
/// decoder must salvage.
void TruncateCheckpoint(const std::string& path, Rng& rng) {
  std::string bytes;
  if (!runtime::ReadFileBytes(path, &bytes) || bytes.size() < 2) return;
  const std::size_t max_cut = bytes.size() < 65 ? bytes.size() - 1 : 64;
  const std::size_t cut = 1 + rng.NextBelow(max_cut);
  runtime::WriteFileAtomic(
      path, std::string_view(bytes).substr(0, bytes.size() - cut));
}

// ------------------------------------------- quarantine self-check

/// A campaign with one deterministically-poisoned task: it must be
/// retried, quarantined, recorded, and the run must still complete
/// with honest accounting. Runs in a child (it builds an Executor).
bool QuarantineSelfCheck(const std::string& dir) {
  std::fflush(stdout);
  std::fflush(stderr);
  const std::string ckpt = dir + "/quarantine.ckpt";
  const pid_t pid = fork();
  if (pid == 0) {
    runtime::SetDefaultThreads(2);
    runtime::RobustSweepOptions options;
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 1;
    options.campaign = runtime::CampaignId("quarantine_check", 7);
    options.max_retries = 2;
    options.quarantine = true;
    runtime::RecoveryRunner runner(runtime::DefaultExecutor(), options);
    const runtime::RobustSweepReport report = runner.Run(
        {6, 1},
        [&](std::size_t p, std::size_t) -> runtime::RobustTaskResult {
          if (p == 3) throw std::runtime_error("poisoned task");
          runtime::PayloadWriter w;
          w.U64(p * p);
          return {true, w.Take()};
        },
        [](std::size_t, std::size_t, const std::string&) { return true; });
    const bool ok =
        !report.cancelled && report.tasks_quarantined == 1 &&
        report.quarantined == std::vector<std::size_t>{3} &&
        report.tasks_ok == 5 && report.task_retries == 2 &&
        report.tasks_ok + report.tasks_restored + report.tasks_quarantined +
                report.tasks_drained ==
            report.tasks_total;
    // The quarantine must also survive in the checkpoint itself.
    std::string bytes;
    bool persisted = false;
    if (runtime::ReadFileBytes(ckpt, &bytes)) {
      const runtime::CheckpointDecodeResult decoded =
          runtime::DecodeCheckpoint(bytes);
      for (const runtime::TaskRecord& r : decoded.records) {
        persisted |= r.index == 3 &&
                     r.state == runtime::TaskState::kQuarantined;
      }
    }
    _exit(ok && persisted ? 0 : 1);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return ExitedClean(status);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  std::size_t kills_per_trial = 3;
  bool args_ok = true;
  cli::ConsumeValue(argc, argv, "--out-dir", &out_dir);
  cli::ConsumeSize(argc, argv, "--kills", &kills_per_trial, &args_ok);
  if (cli::ConsumeFlag(argc, argv, "--quick")) kills_per_trial = 1;
  if (!args_ok) return cli::kUsageError;
  if (const int rc = cli::RejectUnknownArgs(
          argc, argv, "crash_campaign [--out-dir DIR] [--kills N] "
                      "[--quick]")) {
    return rc;
  }

  const std::uint64_t harness_seeds[] = {1, 2, 3};
  const std::size_t thread_counts[] = {1, 8};
  std::size_t total_kills = 0;
  std::size_t truncations = 0;
  std::size_t failures = 0;
  std::size_t trial_index = 0;

  for (const Mode& mode : kModes) {
    // Uninterrupted single-threaded baseline: the byte-compare
    // reference for every resumed run at every thread count.
    const std::string baseline_path =
        out_dir + "/crash_" + mode.name + "_baseline.txt";
    const int base_status = RunChild(mode, 1, 0, false, /*ckpt=*/"",
                                     baseline_path);
    if (!ExitedClean(base_status)) {
      std::fprintf(stderr, "FAIL: %s baseline did not complete\n", mode.name);
      return 1;
    }
    const std::string baseline = Slurp(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "FAIL: %s baseline output empty\n", mode.name);
      return 1;
    }

    for (const std::uint64_t seed : harness_seeds) {
      for (const std::size_t threads : thread_counts) {
        ++trial_index;
        Rng rng(runtime::CampaignId(mode.name, seed) ^ threads);
        const std::string tag = std::string(mode.name) + "_s" +
                                std::to_string(seed) + "_t" +
                                std::to_string(threads);
        const std::string ckpt = out_dir + "/crash_" + tag + ".ckpt";
        const std::string out_path = out_dir + "/crash_" + tag + ".txt";
        std::remove(ckpt.c_str());

        // Chain of randomized kills, each resuming the last's wreck.
        // The kill point is drawn from the *pending* task count (the
        // parent counts settled records in the checkpoint), so every
        // kill actually fires mid-campaign instead of landing after
        // the child already finished.
        bool resumed_once = false;
        for (std::size_t k = 0; k < kills_per_trial; ++k) {
          std::size_t settled = 0;
          std::string ckpt_bytes;
          if (resumed_once && runtime::ReadFileBytes(ckpt, &ckpt_bytes)) {
            settled =
                runtime::DecodeCheckpoint(ckpt_bytes).records.size();
          }
          if (settled >= mode.tasks) {
            // Previous kills let the campaign finish; restart the
            // chain from nothing so this kill still fires.
            std::remove(ckpt.c_str());
            settled = 0;
            resumed_once = false;
          }
          const std::size_t pending = mode.tasks - settled;
          const std::size_t crash_after = 1 + rng.NextBelow(pending);
          const int status = RunChild(mode, threads, crash_after,
                                      resumed_once, ckpt, out_path);
          ++total_kills;
          if (!KilledBySigkill(status)) {
            std::fprintf(stderr,
                         "FAIL: %s kill#%zu (after %zu of %zu pending) "
                         "child status %d — expected SIGKILL\n",
                         tag.c_str(), k + 1, crash_after, pending, status);
            ++failures;
          }
          resumed_once = true;
          // Every third trial also tears the checkpoint tail so the
          // resume has to salvage, not just read.
          if (trial_index % 3 == 0 && k == 0) {
            TruncateCheckpoint(ckpt, rng);
            ++truncations;
          }
        }

        // Final resume: must complete and converge byte-identically.
        const int status =
            RunChild(mode, threads, 0, true, ckpt, out_path);
        if (!ExitedClean(status)) {
          std::fprintf(stderr, "FAIL: %s final resume status %d\n",
                       tag.c_str(), status);
          ++failures;
          continue;
        }
        const std::string recovered = Slurp(out_path);
        if (recovered != baseline) {
          std::fprintf(stderr,
                       "FAIL: %s recovered output diverged from baseline "
                       "(%zu vs %zu bytes)\n",
                       tag.c_str(), recovered.size(), baseline.size());
          ++failures;
        } else {
          std::printf("ok: %s converged after %zu kill(s)\n", tag.c_str(),
                      kills_per_trial);
        }
      }
    }
  }

  const bool quarantine_ok = QuarantineSelfCheck(out_dir);
  if (!quarantine_ok) {
    std::fprintf(stderr, "FAIL: quarantine self-check\n");
  }

  std::printf(
      "crash_campaign: %zu SIGKILLs across %zu trials (%zu torn "
      "checkpoints), %zu failure(s), quarantine %s\n",
      total_kills, trial_index, truncations, failures,
      quarantine_ok ? "ok" : "FAILED");
  return (failures == 0 && quarantine_ok) ? 0 : 1;
}
