#include "runtime/executor.h"

#include <chrono>
#include <string>

#include "common/cli.h"
#include "obs/profile.h"

namespace freerider::runtime {

namespace {

thread_local int tls_worker_id = -1;

std::size_t ResolveThreads(std::size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

int Executor::current_worker() { return tls_worker_id; }

Executor::Executor(std::size_t threads) {
  const std::size_t count = ResolveThreads(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Worker 0 is the calling thread; only 1..count-1 get OS threads.
  threads_.reserve(count - 1);
  for (std::size_t i = 1; i < count; ++i) {
    threads_.emplace_back([this, i] { ThreadMain(i); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    shutdown_ = true;
  }
  batch_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Executor::ThreadMain(std::size_t worker_id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(batch_mutex_);
      batch_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    RunBatchAsWorker(worker_id);
  }
}

bool Executor::PopOrSteal(std::size_t worker_id, std::size_t* task) {
  Worker& self = *workers_[worker_id];
  {
    std::lock_guard<std::mutex> lock(self.mutex);
    if (!self.tasks.empty()) {
      *task = self.tasks.front();
      self.tasks.pop_front();
      return true;
    }
  }
  // Steal-half: scan victims in a fixed ring order starting after us.
  // (Victim order affects only which worker runs a task, never the
  // task's result, so a deterministic scan keeps the code simple.)
  const std::size_t count = workers_.size();
  for (std::size_t offset = 1; offset < count; ++offset) {
    Worker& victim = *workers_[(worker_id + offset) % count];
    std::deque<std::size_t> loot;
    {
      std::lock_guard<std::mutex> lock(victim.mutex);
      const std::size_t available = victim.tasks.size();
      if (available == 0) continue;
      // Take the back half (rounded up), leaving the owner the low
      // indices it is already walking.
      const std::size_t take = (available + 1) / 2;
      for (std::size_t i = 0; i < take; ++i) {
        loot.push_front(victim.tasks.back());
        victim.tasks.pop_back();
      }
    }
    self.steals.fetch_add(1, std::memory_order_relaxed);
    self.stolen_tasks.fetch_add(loot.size(), std::memory_order_relaxed);
    *task = loot.front();
    loot.pop_front();
    if (!loot.empty()) {
      std::lock_guard<std::mutex> lock(self.mutex);
      for (std::size_t t : loot) self.tasks.push_back(t);
    }
    return true;
  }
  return false;
}

void Executor::RunBatchAsWorker(std::size_t worker_id) {
  const int previous_id = tls_worker_id;
  tls_worker_id = static_cast<int>(worker_id);
  std::size_t task = 0;
  while (PopOrSteal(worker_id, &task)) {
    const bool skip = cancel_ != nullptr && cancel_->cancelled();
    if (skip) {
      skipped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      (*body_)(task);
    }
    workers_[worker_id]->executed.fetch_add(1, std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(batch_mutex_);
      done_cv_.notify_all();
    }
  }
  tls_worker_id = previous_id;
}

RunTelemetry Executor::ParallelFor(
    std::size_t n, const std::function<void(std::size_t)>& body,
    CancelToken* cancel) {
  RunTelemetry telemetry;
  telemetry.tasks_total = n;
  telemetry.threads = workers_.size();
  telemetry.per_worker_executed.assign(workers_.size(), 0);
  if (n == 0) return telemetry;
  const auto start = std::chrono::steady_clock::now();

  if (workers_.size() == 1) {
    // Serial fallback: inline, index order, no queues — the regression
    // anchor for the parallel path.
    const int previous_id = tls_worker_id;
    tls_worker_id = 0;
    std::size_t executed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->cancelled()) {
        telemetry.tasks_skipped += 1;
        continue;
      }
      body(i);
      ++executed;
    }
    tls_worker_id = previous_id;
    telemetry.tasks_executed = executed;
    telemetry.per_worker_executed[0] = executed + telemetry.tasks_skipped;
    telemetry.wall_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    RecordBatchProfile(telemetry);
    return telemetry;
  }

  // Publish the batch state *before* any task becomes visible, so a
  // straggler from the previous batch that races into PopOrSteal sees
  // a consistent body/remaining pair.
  body_ = &body;
  cancel_ = cancel;
  skipped_.store(0, std::memory_order_relaxed);
  remaining_.store(n, std::memory_order_release);
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mutex);
    w->tasks.clear();
    w->executed.store(0, std::memory_order_relaxed);
    w->steals.store(0, std::memory_order_relaxed);
    w->stolen_tasks.store(0, std::memory_order_relaxed);
  }
  // Contiguous blocks: worker w owns [w*n/T, (w+1)*n/T).
  const std::size_t count = workers_.size();
  for (std::size_t w = 0; w < count; ++w) {
    const std::size_t lo = w * n / count;
    const std::size_t hi = (w + 1) * n / count;
    std::lock_guard<std::mutex> lock(workers_[w]->mutex);
    for (std::size_t i = lo; i < hi; ++i) workers_[w]->tasks.push_back(i);
  }
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    ++generation_;
  }
  batch_cv_.notify_all();

  RunBatchAsWorker(0);
  {
    std::unique_lock<std::mutex> lock(batch_mutex_);
    done_cv_.wait(lock, [&] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  body_ = nullptr;
  cancel_ = nullptr;

  telemetry.tasks_skipped = skipped_.load(std::memory_order_relaxed);
  telemetry.tasks_executed = n - telemetry.tasks_skipped;
  for (std::size_t w = 0; w < count; ++w) {
    telemetry.per_worker_executed[w] =
        workers_[w]->executed.load(std::memory_order_relaxed);
    telemetry.steals += workers_[w]->steals.load(std::memory_order_relaxed);
    telemetry.stolen_tasks +=
        workers_[w]->stolen_tasks.load(std::memory_order_relaxed);
  }
  telemetry.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  RecordBatchProfile(telemetry);
  return telemetry;
}

void Executor::RecordBatchProfile(const RunTelemetry& telemetry) {
  // TIMING channel only: steal counts and wall time depend on scheduling,
  // so they go to the profiler, never into byte-diffed artifacts.
  obs::Profiler& profiler = obs::GlobalProfiler();
  const double end_us = profiler.NowUs();
  profiler.RecordSpan("parallel_for", "executor",
                      /*tid=*/0, end_us - telemetry.wall_s * 1e6,
                      telemetry.wall_s * 1e6);
  profiler.AddCount("executor.batches", 1);
  profiler.AddCount("executor.tasks_executed", telemetry.tasks_executed);
  profiler.AddCount("executor.tasks_skipped", telemetry.tasks_skipped);
  profiler.AddCount("executor.steals", telemetry.steals);
  profiler.AddCount("executor.stolen_tasks", telemetry.stolen_tasks);
}

namespace {

std::size_t g_default_threads = 0;  // 0 = hardware
bool g_default_constructed = false;
std::mutex g_default_mutex;

}  // namespace

Executor& DefaultExecutor() {
  // Leaked singleton: worker threads must not be joined during static
  // destruction (they may hold locks a destructor-order race could
  // deadlock on).
  static Executor* executor = [] {
    std::lock_guard<std::mutex> lock(g_default_mutex);
    g_default_constructed = true;
    return new Executor(g_default_threads);
  }();
  return *executor;
}

bool SetDefaultThreads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_default_mutex);
  if (g_default_constructed) return g_default_threads == threads;
  g_default_threads = threads;
  return true;
}

std::size_t InitThreadsFromArgs(int& argc, char** argv, bool* ok) {
  std::size_t threads = cli::EnvSize("FREERIDER_THREADS", 0, ok);
  cli::ConsumeSize(argc, argv, "--threads", &threads, ok);
  if (cli::RejectAboveCap("--threads", threads, kMaxThreads, ok)) {
    SetDefaultThreads(threads);
  }
  return threads;
}

}  // namespace freerider::runtime
