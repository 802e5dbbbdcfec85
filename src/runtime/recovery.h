// Preemption-safe sweep execution: checkpoint/resume, task watchdog,
// bounded retry and quarantine layered over the work-stealing
// executor.
//
// RecoveryRunner is the robust sibling of SweepEngine. A body runs one
// (point, trial) task and returns its result as an opaque serialized
// payload (see checkpoint.h's PayloadWriter — byte-exact so a restored
// result is bit-identical to a recomputed one). The runner:
//
//   * periodically snapshots every completed task to a CRC-framed,
//     atomically-renamed checkpoint file, so a SIGKILL/OOM mid-
//     campaign loses only un-snapshotted tasks;
//   * on `resume`, loads the checkpoint (salvaging a torn/corrupt
//     tail), replays completed payloads through the caller's restore
//     callback in grid-index order, and runs only the remainder;
//   * after the barrier, folds every payload computed in this run
//     through the same restore callback, serially in grid-index order.
//     The body returns its payload and writes no caller state, so
//     restore is the one writer of results, and a fresh run, a resumed
//     run and a fleet run fill them from the same decoded bytes.
//     Because task results are pure functions of (seed, point, trial),
//     the final output is byte-identical to an uninterrupted run at
//     any --threads value;
//   * watches a monotonic clock over running tasks and flags (on
//     stderr + in the report) any task exceeding the hang threshold —
//     detection only, the task is never killed;
//   * retries tasks that throw up to `max_retries` times, then either
//     quarantines them (recorded in the checkpoint and the TIMING
//     JSON; the campaign completes with the poison reported) or, in
//     the strict default, cancels the sweep first-failure style.
//
// The checkpoint policy itself — resume, snapshot cadence, the crash
// hook and the final accounting — is TaskLedger's, shared with the
// distributed runner (runtime/dist/coordinator.h); CallTask is the one
// guarded body call both runners and the dist worker use.
//
// Crash-injection hook: when FREERIDER_CRASH_AFTER_N_TASKS=N is set
// (off when unset or malformed), the process raises SIGKILL the moment
// the N-th task of this run settles — tools/crash_campaign uses this to
// prove resume convergence under randomized kills.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/table.h"
#include "runtime/executor.h"
#include "runtime/sweep_engine.h"

namespace freerider::runtime {

struct RobustSweepOptions {
  /// Checkpoint file; empty disables checkpointing entirely.
  std::string checkpoint_path;
  /// Completed tasks between periodic snapshots (a final snapshot is
  /// always written when a checkpoint path is set). 0 = final only.
  std::size_t checkpoint_every = 8;
  /// Load `checkpoint_path` and skip tasks it already holds.
  bool resume = false;
  /// CampaignId(driver name, master seed); a checkpoint whose header
  /// disagrees (campaign or grid shape) is refused on resume.
  std::uint64_t campaign = 0;
  /// Retries for a task whose body throws (0 = fail on first throw).
  std::size_t max_retries = 0;
  /// Record a still-failing task as quarantined and keep going instead
  /// of cancelling the sweep (first-failure cancellation stays the
  /// strict default).
  bool quarantine = false;
  /// Flag tasks running longer than this (seconds, monotonic clock);
  /// 0 disables the watchdog.
  double watchdog_warn_s = 0.0;
  /// Watchdog sampling period.
  double watchdog_poll_s = 0.05;
};

/// Parse robust-runtime flags out of argv (compacting it), with
/// environment fallbacks, mirroring InitThreadsFromArgs:
///   --checkpoint PATH | --checkpoint=PATH
///   --checkpoint-every N
///   --resume [PATH]   (PATH also sets --checkpoint)
///   --watchdog-s X    (fallback: FREERIDER_WATCHDOG_S)
/// A malformed --checkpoint-every, --watchdog-s or FREERIDER_WATCHDOG_S
/// value clears `*ok`.
RobustSweepOptions RobustOptionsFromArgs(int& argc, char** argv, bool* ok);

enum class RobustTaskState : std::uint8_t {
  kOk,           ///< Body ran and succeeded in this process.
  kRestored,     ///< Skipped; payload replayed from the checkpoint.
  kQuarantined,  ///< Poisoned (this run or a previous one).
  kDrained,      ///< Never ran: cancelled before start.
};

struct RobustTaskStat {
  std::size_t point = 0;
  std::size_t trial = 0;
  int worker = -1;
  double wall_s = 0.0;
  std::size_t attempts = 0;  ///< Body invocations (retries included).
  RobustTaskState state = RobustTaskState::kDrained;
};

struct RobustSweepReport {
  RunTelemetry run;  ///< Telemetry of the pending-subset ParallelFor.
  std::vector<RobustTaskStat> tasks;  ///< Grid index order.
  // Accounting invariant (asserted in tests, surfaced in TIMING json):
  //   tasks_ok + tasks_restored + tasks_quarantined + tasks_drained
  //     == grid.tasks()
  std::size_t tasks_total = 0;
  std::size_t tasks_ok = 0;
  std::size_t tasks_restored = 0;
  std::size_t tasks_quarantined = 0;
  std::size_t tasks_drained = 0;
  std::size_t task_retries = 0;       ///< Extra body invocations.
  std::size_t watchdog_flags = 0;     ///< Hang warnings emitted.
  std::size_t snapshots_written = 0;
  bool resumed = false;               ///< A checkpoint was loaded.
  bool checkpoint_salvaged = false;   ///< Corrupt tail dropped on load.
  std::size_t checkpoint_dropped_bytes = 0;
  bool cancelled = false;
  std::size_t first_failure_task = 0;  ///< Grid index; valid if cancelled.
  std::vector<std::size_t> quarantined;  ///< Grid indices, ascending.
  std::string checkpoint_error;  ///< Non-fatal checkpoint I/O problems.

  /// Per-task telemetry rows: point, trial, worker, state, attempts,
  /// wall_ms.
  TablePrinter TelemetryTable() const;
  /// One-object JSON summary including the full task-accounting
  /// breakdown; TIMING_*.json material, never BENCH_*.json.
  std::string SummaryJson(const std::string& name) const;
};

/// Body outcome: `ok == false` is a campaign-level failure (quarantine
/// or cancel, no retry); a *throwing* body is retried first.
struct RobustTaskResult {
  bool ok = true;
  std::string payload;
};

/// One task: body(point, trial). Returns its payload and writes no
/// caller state; it may run on any worker, process or retry.
using TaskBody = std::function<RobustTaskResult(std::size_t, std::size_t)>;
/// Folds a settled payload into caller state; false rejects it. The
/// only writer of results: called once per settled payload, serially,
/// in grid-index order (restored ones before the run, computed ones
/// after the barrier).
using TaskRestore =
    std::function<bool(std::size_t, std::size_t, const std::string&)>;

/// What one guarded body call did.
struct TaskCall {
  RobustTaskResult result;   ///< The last attempt's result.
  std::size_t attempts = 0;  ///< Body invocations, retries included.
  bool threw = false;        ///< The last attempt threw.
  std::string error;         ///< what() of the last throw.
};

/// Run body(point, trial), retrying a throwing body up to
/// `max_retries` times. Never throws.
TaskCall CallTask(const TaskBody& body, std::size_t point, std::size_t trial,
                  std::size_t max_retries);

/// The checkpoint ledger of one campaign run: which tasks are settled,
/// with what payload, and when that is written down. RecoveryRunner
/// and dist::DistRunner are its clients; it owns
///
///   * resume: load and validate the checkpoint (campaign id and grid
///     shape must match; a torn tail is salvaged), replay restored
///     payloads through `restore` in grid-index order, and leave any
///     payload `restore` rejects pending so it re-runs;
///   * the snapshot cadence: every `checkpoint_every` settled tasks,
///     try_lock'ed so a snapshot in flight is never waited on;
///   * the FREERIDER_CRASH_AFTER_N_TASKS kill, fired after the N-th
///     settle is visible to snapshots;
///   * the fold: after the barrier, every task settled in this
///     process goes through `restore` in grid-index order; a payload
///     `restore` rejects is recomputed once in-process, then
///     quarantined;
///   * the final snapshot and the ok + restored + quarantined +
///     drained == total tally.
///
/// Commit, Quarantine and Cancel may be called from executor workers
/// concurrently (one call per task index); a payload is written before
/// the release store that publishes its state, so a concurrent
/// snapshot reads only settled payloads.
class TaskLedger {
 public:
  /// Sizes `report.tasks` for `grid`; the ledger writes task states
  /// and the run's checkpoint fields into `report`.
  TaskLedger(const SweepGrid& grid, const RobustSweepOptions& options,
             RobustSweepReport& report);

  /// Load the checkpoint when `options.resume` is set (see above).
  void Resume(const TaskRestore& restore);

  /// Tasks neither restored nor quarantined by Resume, ascending.
  std::vector<std::size_t> Pending() const;

  /// Settle task `i` as done (kOk) with `payload`, or as poison. A
  /// task counts towards the cadence and the crash hook once: settling
  /// it again (single-threaded callers only) rewrites its record.
  void Commit(std::size_t i, std::string payload);
  void Quarantine(std::size_t i);

  /// Strict-mode failure of task `i`: the run is cancelled and the
  /// lowest failing index is reported. Task `i` stays drained.
  void Cancel(std::size_t i);
  bool cancelled() const;

  /// After the barrier (single-threaded): pass every kOk task's
  /// payload to `restore` in grid-index order. A rejected payload is
  /// recomputed once with `body` and folded again; if that fails too,
  /// the task is quarantined. Returns the tasks recomputed and folded.
  std::size_t Fold(const TaskBody& body, const TaskRestore& restore);

  /// Final snapshot, checkpoint_error, cancellation and the per-state
  /// tallies.
  void Finish();

 private:
  void Settle(std::size_t i, std::uint8_t state, RobustTaskState outcome);
  void WriteSnapshot();

  const SweepGrid grid_;
  const RobustSweepOptions& options_;
  RobustSweepReport& report_;
  std::size_t crash_after_ = 0;  ///< FREERIDER_CRASH_AFTER_N_TASKS.
  /// 0 = pending, else a checkpoint TaskState.
  std::vector<std::atomic<std::uint8_t>> committed_;
  std::vector<std::string> payloads_;
  std::atomic<std::size_t> completions_{0};
  std::atomic<std::size_t> first_failure_;
  std::mutex snapshot_mutex_;  ///< Held by WriteSnapshot's callers.
  std::size_t snapshots_ = 0;
  bool write_failed_ = false;
  std::string write_error_;
};

class RecoveryRunner {
 public:
  RecoveryRunner(Executor& executor, RobustSweepOptions options);

  /// Run body(point, trial) over the grid with checkpoint/resume,
  /// watchdog, retry and quarantine per the options. `restore` sees
  /// every settled payload once, serially, in grid-index order: the
  /// ones recovered from the checkpoint before any task runs (false
  /// rejects the record and the task re-runs), then the ones computed
  /// here after the barrier (TaskLedger::Fold).
  RobustSweepReport Run(const SweepGrid& grid, const TaskBody& body,
                        const TaskRestore& restore);

 private:
  Executor& executor_;
  RobustSweepOptions options_;
};

}  // namespace freerider::runtime
