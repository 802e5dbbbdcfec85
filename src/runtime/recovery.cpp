#include "runtime/recovery.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/cli.h"
#include "obs/profile.h"
#include "runtime/checkpoint.h"

namespace freerider::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const char* StateName(RobustTaskState state) {
  switch (state) {
    case RobustTaskState::kOk: return "ok";
    case RobustTaskState::kRestored: return "restored";
    case RobustTaskState::kQuarantined: return "quarantined";
    case RobustTaskState::kDrained: return "drained";
  }
  return "?";
}

/// What the watchdog samples: which grid index each worker is running
/// and since when. `task_plus_one == 0` means idle.
struct WorkerSlot {
  std::atomic<std::uint64_t> task_plus_one{0};
  std::atomic<std::int64_t> start_ns{0};
  std::uint64_t last_flagged = 0;  ///< task_plus_one already warned about.
};

}  // namespace

RobustSweepOptions RobustOptionsFromArgs(int& argc, char** argv, bool* ok) {
  RobustSweepOptions options;
  options.watchdog_warn_s =
      cli::EnvDouble("FREERIDER_WATCHDOG_S", options.watchdog_warn_s, ok);
  // The valued flags go first, so none of their values can pass for
  // the optional PATH after --resume.
  cli::ConsumeSize(argc, argv, "--checkpoint-every", &options.checkpoint_every,
                   ok);
  cli::ConsumeDouble(argc, argv, "--watchdog-s", &options.watchdog_warn_s, ok);
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
      options.checkpoint_path = argv[++i];
    } else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0) {
      options.checkpoint_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      options.resume = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        options.checkpoint_path = argv[++i];
      }
    } else if (std::strncmp(argv[i], "--resume=", 9) == 0) {
      options.resume = true;
      options.checkpoint_path = argv[i] + 9;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return options;
}

TaskCall CallTask(const TaskBody& body, std::size_t point, std::size_t trial,
                  std::size_t max_retries) {
  TaskCall call;
  do {
    ++call.attempts;
    call.threw = false;
    try {
      call.result = body(point, trial);
    } catch (const std::exception& e) {
      call.threw = true;
      call.error = e.what();
    } catch (...) {
      call.threw = true;
      call.error = "unknown exception";
    }
  } while (call.threw && call.attempts <= max_retries);
  return call;
}

TaskLedger::TaskLedger(const SweepGrid& grid,
                       const RobustSweepOptions& options,
                       RobustSweepReport& report)
    : grid_(grid),
      options_(options),
      report_(report),
      committed_(grid.tasks()),
      payloads_(grid.tasks()),
      first_failure_(grid.tasks()) {
  const std::size_t n = grid.tasks();
  report_.tasks_total = n;
  report_.tasks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    report_.tasks[i].point = i / grid.trials;
    report_.tasks[i].trial = i % grid.trials;
  }
  // A test hook, not a setting: off when unset or malformed.
  bool hook_ok = true;
  crash_after_ = cli::EnvSize("FREERIDER_CRASH_AFTER_N_TASKS", 0, &hook_ok);
}

void TaskLedger::Resume(const TaskRestore& restore) {
  if (!options_.resume || options_.checkpoint_path.empty()) return;
  std::string bytes;
  if (!ReadFileBytes(options_.checkpoint_path, &bytes)) return;
  const CheckpointDecodeResult decoded = DecodeCheckpoint(bytes);
  if (!decoded.ok) {
    report_.checkpoint_error = "checkpoint rejected: " + decoded.error;
  } else if (decoded.header.campaign != options_.campaign ||
             decoded.header.points != grid_.points ||
             decoded.header.trials != grid_.trials) {
    report_.checkpoint_error =
        "checkpoint belongs to a different campaign/grid; ignored";
  } else {
    report_.resumed = true;
    report_.checkpoint_salvaged = decoded.salvaged;
    report_.checkpoint_dropped_bytes = decoded.dropped_bytes;
    for (const TaskRecord& r : decoded.records) {
      const auto i = static_cast<std::size_t>(r.index);
      if (r.state == TaskState::kDone) {
        payloads_[i] = r.payload;
      } else {
        // Deterministic poison: re-running would fail again.
        report_.tasks[i].state = RobustTaskState::kQuarantined;
      }
      committed_[i].store(static_cast<std::uint8_t>(r.state),
                          std::memory_order_relaxed);
    }
    // Replay restored results to the caller in grid-index order — the
    // same order an uninterrupted run's reduction sees them.
    for (std::size_t i = 0; i < payloads_.size(); ++i) {
      if (committed_[i].load(std::memory_order_relaxed) !=
          static_cast<std::uint8_t>(TaskState::kDone)) {
        continue;
      }
      if (restore(i / grid_.trials, i % grid_.trials, payloads_[i])) {
        report_.tasks[i].state = RobustTaskState::kRestored;
      } else {
        // Caller rejected the payload: forget it and re-run.
        committed_[i].store(0, std::memory_order_relaxed);
        payloads_[i].clear();
      }
    }
  }
  if (!report_.checkpoint_error.empty()) {
    std::fprintf(stderr, "[recovery] %s\n", report_.checkpoint_error.c_str());
  }
  if (report_.checkpoint_salvaged) {
    std::fprintf(stderr,
                 "[recovery] checkpoint salvaged: %zu trailing bytes "
                 "dropped, %zu records kept\n",
                 report_.checkpoint_dropped_bytes, decoded.frames_kept);
  }
}

std::vector<std::size_t> TaskLedger::Pending() const {
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < committed_.size(); ++i) {
    if (committed_[i].load(std::memory_order_relaxed) == 0) {
      pending.push_back(i);
    }
  }
  return pending;
}

void TaskLedger::Commit(std::size_t i, std::string payload) {
  payloads_[i] = std::move(payload);
  Settle(i, static_cast<std::uint8_t>(TaskState::kDone), RobustTaskState::kOk);
}

void TaskLedger::Quarantine(std::size_t i) {
  obs::GlobalProfiler().AddCount("runner.tasks_quarantined", 1);
  Settle(i, static_cast<std::uint8_t>(TaskState::kQuarantined),
         RobustTaskState::kQuarantined);
}

void TaskLedger::Settle(std::size_t i, std::uint8_t state,
                        RobustTaskState outcome) {
  report_.tasks[i].state = outcome;
  if (committed_[i].exchange(state, std::memory_order_acq_rel) != 0) return;
  const std::size_t done =
      completions_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (!options_.checkpoint_path.empty() && options_.checkpoint_every > 0 &&
      done % options_.checkpoint_every == 0) {
    // try_lock: a snapshot already in flight covers this task's commit
    // or the next cadence point will.
    if (snapshot_mutex_.try_lock()) {
      WriteSnapshot();
      snapshot_mutex_.unlock();
    }
  }
  // Crash-injection hook — *after* the settle is observable, so "crash
  // after N tasks" kills a campaign with exactly N settled tasks
  // (snapshotted or not).
  if (crash_after_ != 0 && done == crash_after_) {
    std::fprintf(stderr,
                 "[recovery] FREERIDER_CRASH_AFTER_N_TASKS=%zu hit — "
                 "raising SIGKILL\n",
                 crash_after_);
    std::fflush(stderr);
    std::raise(SIGKILL);
  }
}

void TaskLedger::Cancel(std::size_t i) {
  std::size_t expected = first_failure_.load(std::memory_order_relaxed);
  while (i < expected && !first_failure_.compare_exchange_weak(
                             expected, i, std::memory_order_relaxed)) {
  }
}

bool TaskLedger::cancelled() const {
  return first_failure_.load(std::memory_order_relaxed) < payloads_.size();
}

std::size_t TaskLedger::Fold(const TaskBody& body,
                             const TaskRestore& restore) {
  std::size_t recomputed = 0;
  for (std::size_t i = 0; i < payloads_.size(); ++i) {
    if (report_.tasks[i].state != RobustTaskState::kOk) continue;
    const std::size_t point = i / grid_.trials;
    const std::size_t trial = i % grid_.trials;
    if (restore(point, trial, payloads_[i])) continue;
    // A settled payload the caller cannot read is a Serialize/Deserialize
    // mismatch or a corrupted result: recompute once rather than ship a
    // silently wrong campaign, and quarantine what still does not fold.
    std::fprintf(stderr,
                 "[recovery] task %zu payload rejected by restore; "
                 "recomputing in-process\n",
                 i);
    TaskCall call = CallTask(body, point, trial, 0);
    report_.tasks[i].attempts += call.attempts;
    if (call.threw || !call.result.ok ||
        !restore(point, trial, call.result.payload)) {
      Quarantine(i);
      continue;
    }
    ++recomputed;
    Commit(i, std::move(call.result.payload));
  }
  return recomputed;
}

void TaskLedger::WriteSnapshot() {
  std::vector<TaskRecord> records;
  for (std::size_t i = 0; i < committed_.size(); ++i) {
    const std::uint8_t state = committed_[i].load(std::memory_order_acquire);
    if (state == 0) continue;
    TaskRecord record;
    record.index = i;
    record.state = static_cast<TaskState>(state);
    if (record.state == TaskState::kDone) record.payload = payloads_[i];
    records.push_back(std::move(record));
  }
  obs::Profiler& profiler = obs::GlobalProfiler();
  std::string error;
  const std::string encoded = EncodeCheckpoint(
      {kCheckpointVersion, options_.campaign, grid_.points, grid_.trials},
      records);
  const double write_start_us = profiler.NowUs();
  if (WriteFileAtomic(options_.checkpoint_path, encoded, &error)) {
    ++snapshots_;
    profiler.RecordSpan("checkpoint_write", "runner",
                        std::max(Executor::current_worker(), 0),
                        write_start_us, profiler.NowUs() - write_start_us);
    profiler.AddCount("runner.snapshots", 1);
    profiler.AddCount("runner.snapshot_bytes", encoded.size());
  } else if (!write_failed_) {
    write_failed_ = true;
    write_error_ = error;
    std::fprintf(stderr, "[recovery] snapshot failed: %s\n", error.c_str());
  }
}

void TaskLedger::Finish() {
  for (std::size_t i = 0; i < report_.tasks.size(); ++i) {
    RobustTaskStat& stat = report_.tasks[i];
    switch (stat.state) {
      case RobustTaskState::kOk: ++report_.tasks_ok; break;
      case RobustTaskState::kRestored: ++report_.tasks_restored; break;
      case RobustTaskState::kQuarantined:
        ++report_.tasks_quarantined;
        report_.quarantined.push_back(i);
        break;
      case RobustTaskState::kDrained:
        ++report_.tasks_drained;
        stat.worker = -1;
        break;
    }
  }
  obs::GlobalProfiler().AddCount("runner.tasks_restored",
                                 report_.tasks_restored);
  if (cancelled()) {
    report_.cancelled = true;
    report_.first_failure_task = first_failure_.load();
  }
  // Final snapshot: always, so a completed (or cancelled, or
  // quarantine-carrying) campaign leaves a full checkpoint behind.
  if (!options_.checkpoint_path.empty()) {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    WriteSnapshot();
  }
  report_.snapshots_written = snapshots_;
  if (write_failed_ && report_.checkpoint_error.empty()) {
    report_.checkpoint_error = write_error_;
  }
}

RecoveryRunner::RecoveryRunner(Executor& executor, RobustSweepOptions options)
    : executor_(executor), options_(std::move(options)) {}

RobustSweepReport RecoveryRunner::Run(const SweepGrid& grid,
                                      const TaskBody& body,
                                      const TaskRestore& restore) {
  // TIMING channel: per-phase and per-task spans plus retry/quarantine
  // counts go to the wall-clock profiler, never into byte-diffed output.
  obs::Profiler& profiler = obs::GlobalProfiler();
  obs::ScopedSpan run_span("recovery_run:" + std::to_string(options_.campaign),
                           "runner");

  RobustSweepReport report;
  TaskLedger ledger(grid, options_, report);
  if (grid.tasks() == 0) return report;
  ledger.Resume(restore);
  const std::vector<std::size_t> pending = ledger.Pending();

  // -------------------------------------------------------- watchdog
  const std::size_t worker_count = executor_.thread_count();
  std::vector<WorkerSlot> slots(worker_count);
  std::atomic<std::size_t> watchdog_flags{0};
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;
  if (options_.watchdog_warn_s > 0.0) {
    watchdog = std::thread([&] {
      const auto poll = std::chrono::duration<double>(
          options_.watchdog_poll_s > 0.0 ? options_.watchdog_poll_s : 0.05);
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        const std::int64_t now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count();
        for (std::size_t w = 0; w < worker_count; ++w) {
          const std::uint64_t running =
              slots[w].task_plus_one.load(std::memory_order_acquire);
          if (running == 0 || running == slots[w].last_flagged) continue;
          const std::int64_t start =
              slots[w].start_ns.load(std::memory_order_relaxed);
          const double elapsed = static_cast<double>(now_ns - start) * 1e-9;
          if (elapsed >= options_.watchdog_warn_s) {
            slots[w].last_flagged = running;
            watchdog_flags.fetch_add(1, std::memory_order_relaxed);
            std::fprintf(stderr,
                         "[watchdog] task %llu (worker %zu) running for "
                         "%.1f s (threshold %.1f s) — possible hang\n",
                         static_cast<unsigned long long>(running - 1), w,
                         elapsed, options_.watchdog_warn_s);
          }
        }
        std::this_thread::sleep_for(poll);
      }
    });
  }

  // ------------------------------------------------------------- run
  CancelToken cancel;
  std::atomic<std::size_t> retries_total{0};

  report.run = executor_.ParallelFor(
      pending.size(),
      [&](std::size_t j) {
        const std::size_t i = pending[j];
        const std::size_t point = i / grid.trials;
        const std::size_t trial = i % grid.trials;
        RobustTaskStat& stat = report.tasks[i];
        const int worker = Executor::current_worker();
        stat.worker = worker;
        WorkerSlot* slot =
            (worker >= 0 && static_cast<std::size_t>(worker) < worker_count)
                ? &slots[static_cast<std::size_t>(worker)]
                : nullptr;
        const auto start = Clock::now();
        if (slot != nullptr) {
          slot->start_ns.store(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  start.time_since_epoch())
                  .count(),
              std::memory_order_relaxed);
          slot->task_plus_one.store(i + 1, std::memory_order_release);
        }

        const double task_start_us = profiler.NowUs();
        TaskCall call = CallTask(body, point, trial, options_.max_retries);
        if (call.attempts > 1) {
          retries_total.fetch_add(call.attempts - 1,
                                  std::memory_order_relaxed);
        }

        if (slot != nullptr) {
          slot->task_plus_one.store(0, std::memory_order_release);
        }
        stat.wall_s = SecondsSince(start);
        stat.attempts = call.attempts;
        {
          char span_name[64];
          std::snprintf(span_name, sizeof span_name, "task p%zu.t%zu", point,
                        trial);
          profiler.RecordSpan(span_name, "runner", std::max(worker, 0),
                              task_start_us,
                              profiler.NowUs() - task_start_us);
          profiler.AddCount("runner.tasks_run", 1);
          if (call.attempts > 1) {
            profiler.AddCount("runner.task_retries", call.attempts - 1);
          }
        }

        if (!call.threw && call.result.ok) {
          ledger.Commit(i, std::move(call.result.payload));
          return;
        }
        if (call.threw) {
          std::fprintf(stderr,
                       "[recovery] task %zu (point %zu, trial %zu) failed "
                       "after %zu attempt(s): %s\n",
                       i, point, trial, call.attempts, call.error.c_str());
        }
        if (options_.quarantine) {
          ledger.Quarantine(i);
        } else {
          ledger.Cancel(i);
          cancel.Cancel();
        }
      },
      &cancel);

  if (watchdog.joinable()) {
    watchdog_stop.store(true, std::memory_order_release);
    watchdog.join();
  }

  report.task_retries = retries_total.load(std::memory_order_relaxed);
  report.watchdog_flags = watchdog_flags.load(std::memory_order_relaxed);
  profiler.AddCount("runner.watchdog_flags", report.watchdog_flags);
  ledger.Fold(body, restore);
  ledger.Finish();
  return report;
}

TablePrinter RobustSweepReport::TelemetryTable() const {
  TablePrinter table(
      {"point", "trial", "worker", "state", "attempts", "wall (ms)"});
  for (const RobustTaskStat& t : tasks) {
    table.AddRow({std::to_string(t.point), std::to_string(t.trial),
                  std::to_string(t.worker), StateName(t.state),
                  std::to_string(t.attempts),
                  TablePrinter::Num(t.wall_s * 1e3, 3)});
  }
  return table;
}

std::string RobustSweepReport::SummaryJson(const std::string& name) const {
  double task_wall_total = 0.0;
  for (const RobustTaskStat& t : tasks) task_wall_total += t.wall_s;
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\"sweep\": \"" << name << "\""
      << ", \"threads\": " << run.threads
      << ", \"tasks_total\": " << tasks_total
      << ", \"tasks_ok\": " << tasks_ok
      << ", \"tasks_restored\": " << tasks_restored
      << ", \"tasks_quarantined\": " << tasks_quarantined
      << ", \"tasks_drained\": " << tasks_drained
      << ", \"accounting_ok\": "
      << ((tasks_ok + tasks_restored + tasks_quarantined + tasks_drained ==
           tasks_total)
              ? "true"
              : "false")
      << ", \"task_retries\": " << task_retries
      << ", \"watchdog_flags\": " << watchdog_flags
      << ", \"snapshots_written\": " << snapshots_written
      << ", \"resumed\": " << (resumed ? "true" : "false")
      << ", \"checkpoint_salvaged\": "
      << (checkpoint_salvaged ? "true" : "false")
      << ", \"cancelled\": " << (cancelled ? "true" : "false")
      << ", \"steals\": " << run.steals
      << ", \"wall_s\": " << run.wall_s
      << ", \"task_wall_total_s\": " << task_wall_total << "}\n";
  return out.str();
}

}  // namespace freerider::runtime
