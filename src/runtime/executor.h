// Deterministic parallel execution: a work-stealing thread-pool
// executor for the simulation sweeps.
//
// Design constraints, in order:
//   1. *Scheduling must never leak into results.* Tasks own their
//      randomness (counter-based Rng::ForTrial or a pre-drawn seed)
//      and write into index-addressed slots, so any interleaving of
//      workers produces bit-identical output. The executor provides
//      raw parallelism and telemetry only — reduction order is the
//      caller's job (see runtime/reduce.h and SweepEngine).
//   2. *Serial fallback is the regression anchor.* With one thread the
//      executor runs every task inline on the calling thread, in index
//      order, with no worker threads, no locks on the hot path and no
//      atomics beyond a cancellation check — byte-identical behaviour
//      to the historical serial loops.
//   3. *Work stealing, not work sharing.* Each worker owns a deque
//      seeded with a contiguous block of task indices; the owner pops
//      from the front (cache-friendly index order), idle workers steal
//      the back *half* of a victim's deque (steal-half amortizes the
//      steal cost when task durations are skewed, which distance
//      sweeps are: far points die fast, near points decode slowly).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace freerider::runtime {

/// Cooperative cancellation (first-failure abort of a sweep). Tasks
/// already running finish; tasks not yet started are drained without
/// invoking the body.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Telemetry for one ParallelFor batch.
struct RunTelemetry {
  std::size_t tasks_total = 0;     ///< Indices in the batch.
  std::size_t tasks_executed = 0;  ///< Bodies actually invoked.
  std::size_t tasks_skipped = 0;   ///< Drained after cancellation.
  std::size_t threads = 1;         ///< Workers (incl. calling thread).
  std::uint64_t steals = 0;        ///< Steal operations that moved work.
  std::uint64_t stolen_tasks = 0;  ///< Task indices moved by steals.
  double wall_s = 0.0;
  std::vector<std::size_t> per_worker_executed;  ///< By worker id.
};

class Executor {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency(). The
  /// calling thread always participates as worker 0, so `threads == 1`
  /// spawns nothing and runs purely serial.
  explicit Executor(std::size_t threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Run body(i) for every i in [0, n). Blocks until every index has
  /// been executed or drained (after cancellation). Bodies must not
  /// call ParallelFor on the same executor (no nesting).
  RunTelemetry ParallelFor(std::size_t n,
                           const std::function<void(std::size_t)>& body,
                           CancelToken* cancel = nullptr);

  /// Worker id of the calling thread while inside a ParallelFor body
  /// (0 on the calling thread and in serial mode); -1 outside a batch.
  static int current_worker();

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::size_t> tasks;
    // Batch-local counters, reset per ParallelFor. Atomic because a
    // straggler that drained the previous batch may still bump its
    // counters while the next batch's setup resets them (the race is
    // benign for totals, which are derived from `remaining_`).
    std::atomic<std::size_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> stolen_tasks{0};
  };

  void ThreadMain(std::size_t worker_id);
  void RunBatchAsWorker(std::size_t worker_id);
  bool PopOrSteal(std::size_t worker_id, std::size_t* task);
  static void RecordBatchProfile(const RunTelemetry& telemetry);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex batch_mutex_;
  std::condition_variable batch_cv_;  // workers: new batch / shutdown
  std::condition_variable done_cv_;   // caller: batch drained
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;

  // Current batch (valid while remaining_ > 0).
  const std::function<void(std::size_t)>* body_ = nullptr;
  CancelToken* cancel_ = nullptr;
  std::atomic<std::size_t> remaining_{0};
  std::atomic<std::size_t> skipped_{0};
};

/// The most threads a `--threads N` or FREERIDER_THREADS value may ask
/// for; a larger one is a usage error. 0 (one per hardware thread) is
/// not capped.
inline constexpr std::size_t kMaxThreads = 1024;

/// Process-wide executor shared by the sweep engine and the ported
/// drivers. Thread count is fixed at first use: call SetDefaultThreads
/// (or InitFromArgs in bench mains) before the first sweep.
Executor& DefaultExecutor();

/// Configure the default executor's thread count (0 = hardware).
/// Returns false if the default executor was already constructed with
/// a different count (the setting is then ignored).
bool SetDefaultThreads(std::size_t threads);

/// Bench-main helper: consumes `--threads N` / `--threads=N` from
/// argv (compacting it) and falls back to the FREERIDER_THREADS
/// environment variable, then applies SetDefaultThreads. Returns the
/// configured count (0 = hardware). A malformed value (cli::ParseSize)
/// or one above kMaxThreads clears `*ok` and is not applied.
std::size_t InitThreadsFromArgs(int& argc, char** argv, bool* ok);

}  // namespace freerider::runtime
