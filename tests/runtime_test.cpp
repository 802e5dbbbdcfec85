// Tests for the parallel simulation runtime: work-stealing executor,
// sweep engine (grid mapping, first-failure cancellation, telemetry)
// and the order-independent reductions.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "runtime/executor.h"
#include "runtime/reduce.h"
#include "runtime/sweep_engine.h"

namespace freerider::runtime {
namespace {

// ------------------------------------------------------- Executor

TEST(Executor, SerialRunsEveryIndexOnceInOrder) {
  Executor executor(1);
  std::vector<std::size_t> order;
  const RunTelemetry t =
      executor.ParallelFor(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(t.tasks_total, 100u);
  EXPECT_EQ(t.tasks_executed, 100u);
  EXPECT_EQ(t.tasks_skipped, 0u);
  EXPECT_EQ(t.threads, 1u);
  EXPECT_EQ(t.steals, 0u);
}

TEST(Executor, ParallelRunsEveryIndexExactlyOnce) {
  Executor executor(4);
  EXPECT_EQ(executor.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  const RunTelemetry t = executor.ParallelFor(1000, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(t.tasks_executed, 1000u);
  EXPECT_EQ(t.tasks_skipped, 0u);
  EXPECT_EQ(t.threads, 4u);
  ASSERT_EQ(t.per_worker_executed.size(), 4u);
  EXPECT_EQ(std::accumulate(t.per_worker_executed.begin(),
                            t.per_worker_executed.end(), std::size_t{0}),
            1000u);
}

TEST(Executor, ReusableAcrossBatches) {
  Executor executor(3);
  for (int batch = 0; batch < 10; ++batch) {
    std::atomic<std::size_t> count{0};
    const std::size_t n = 17 + static_cast<std::size_t>(batch) * 13;
    const RunTelemetry t = executor.ParallelFor(
        n, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), n);
    EXPECT_EQ(t.tasks_executed, n);
  }
}

TEST(Executor, EmptyBatchIsANoop) {
  Executor executor(2);
  const RunTelemetry t = executor.ParallelFor(0, [&](std::size_t) {
    FAIL() << "body must not run for n=0";
  });
  EXPECT_EQ(t.tasks_total, 0u);
  EXPECT_EQ(t.tasks_executed, 0u);
}

TEST(Executor, CancellationSkipsUnstartedTasks) {
  // Serial mode makes the skip count exact: cancel at index 10 → the
  // remaining 89 indices are drained without invoking the body.
  Executor executor(1);
  CancelToken cancel;
  std::size_t invoked = 0;
  const RunTelemetry t = executor.ParallelFor(
      100,
      [&](std::size_t i) {
        ++invoked;
        if (i == 10) cancel.Cancel();
      },
      &cancel);
  EXPECT_EQ(invoked, 11u);
  EXPECT_EQ(t.tasks_executed, 11u);
  EXPECT_EQ(t.tasks_skipped, 89u);
}

TEST(Executor, CancellationDrainsInParallelMode) {
  Executor executor(4);
  CancelToken cancel;
  cancel.Cancel();  // Cancelled before the batch even starts.
  std::atomic<std::size_t> invoked{0};
  const RunTelemetry t = executor.ParallelFor(
      500, [&](std::size_t) { invoked.fetch_add(1); }, &cancel);
  EXPECT_EQ(invoked.load(), 0u);
  EXPECT_EQ(t.tasks_skipped, 500u);
}

TEST(Executor, CurrentWorkerIdsAreInRange) {
  Executor executor(4);
  EXPECT_EQ(Executor::current_worker(), -1);
  std::vector<std::atomic<int>> seen_by(4);
  executor.ParallelFor(200, [&](std::size_t) {
    const int w = Executor::current_worker();
    ASSERT_GE(w, 0);
    ASSERT_LT(w, 4);
    seen_by[static_cast<std::size_t>(w)].fetch_add(1);
  });
  EXPECT_EQ(Executor::current_worker(), -1);
  // Every task ran on *some* worker. (Worker 0 — the caller — is not
  // guaranteed a share: on a loaded box thieves can drain its deque
  // before the calling thread is scheduled.)
  int total = 0;
  for (const auto& s : seen_by) total += s.load();
  EXPECT_EQ(total, 200);
}

// ---------------------------------------------------- SweepEngine

TEST(SweepEngine, GridMapsIndexToPointMajorOrder) {
  Executor executor(1);
  SweepEngine engine(executor);
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  const SweepReport report =
      engine.Run({3, 4}, [&](std::size_t p, std::size_t t) {
        cells.emplace_back(p, t);
        return true;
      });
  ASSERT_EQ(cells.size(), 12u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].first, i / 4);
    EXPECT_EQ(cells[i].second, i % 4);
  }
  EXPECT_FALSE(report.cancelled);
  ASSERT_EQ(report.tasks.size(), 12u);
  for (std::size_t i = 0; i < report.tasks.size(); ++i) {
    EXPECT_EQ(report.tasks[i].point, i / 4);
    EXPECT_EQ(report.tasks[i].trial, i % 4);
    EXPECT_TRUE(report.tasks[i].executed);
  }
}

TEST(SweepEngine, FirstFailureCancelsAndRecordsLowestIndex) {
  Executor executor(1);
  SweepEngine engine(executor);
  const SweepReport report =
      engine.Run({10, 2}, [&](std::size_t p, std::size_t t) {
        return !(p == 3 && t == 1);  // Grid index 7 fails.
      });
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.first_failure_task, 7u);
  EXPECT_EQ(report.run.tasks_executed, 8u);
  EXPECT_EQ(report.run.tasks_skipped, 12u);
  // Drained slots are marked not-executed with no worker.
  EXPECT_FALSE(report.tasks[12].executed);
  EXPECT_EQ(report.tasks[12].worker, -1);
}

TEST(SweepEngine, ResultsIdenticalAcrossThreadCounts) {
  // The determinism contract end-to-end on a toy workload: per-task
  // streams via ForTrial, slots reduced in index order afterwards.
  auto run = [](std::size_t threads) {
    Executor executor(threads);
    SweepEngine engine(executor);
    std::vector<double> slots(6 * 5);
    engine.Run({6, 5}, [&](std::size_t p, std::size_t t) {
      Rng rng = Rng::ForTrial(11, p, t);
      double acc = 0.0;
      for (int i = 0; i < 500; ++i) acc += rng.NextGaussian();
      slots[p * 5 + t] = acc;
      return true;
    });
    return slots;
  };
  const std::vector<double> serial = run(1);
  const std::vector<double> parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "slot " << i;  // Bit-exact.
  }
}

TEST(SweepEngine, TelemetryTableHasOneRowPerTask) {
  Executor executor(2);
  SweepEngine engine(executor);
  const SweepReport report = engine.Run(
      {4, 3}, [&](std::size_t, std::size_t) { return true; });
  const std::string json = report.TelemetryTable().ToJson("toy");
  EXPECT_NE(json.find("\"toy\""), std::string::npos);
  const std::string summary = report.SummaryJson("toy");
  EXPECT_NE(summary.find("\"tasks_total\": 12"), std::string::npos);
  EXPECT_NE(summary.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(summary.find("\"cancelled\": false"), std::string::npos);
}

// ------------------------------------------------------ Reduction

TEST(Reduce, KahanSumRecoversLostLowBits) {
  // 1 + 1e-16 * 10 in naive double order loses the small terms;
  // Kahan keeps them.
  std::vector<double> values = {1.0};
  for (int i = 0; i < 10; ++i) values.push_back(1e-16);
  const double kahan = KahanSum(values);
  EXPECT_EQ(kahan, 1.0 + 1e-15);
}

TEST(Reduce, PairwiseSumMatchesExactForIntegers) {
  std::vector<double> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  EXPECT_EQ(PairwiseSum(values), 999.0 * 1000.0 / 2.0);
}

TEST(Reduce, PairwiseReduceIsDeterministicForFixedInput) {
  Rng rng(3);
  std::vector<double> values(777);
  for (auto& v : values) v = rng.NextGaussian() * 1e6;
  const double a = PairwiseSum(values);
  const double b = PairwiseSum(values);
  EXPECT_EQ(a, b);
  EXPECT_NEAR(a, std::accumulate(values.begin(), values.end(), 0.0),
              std::abs(a) * 1e-12 + 1e-6);
}

TEST(Reduce, PairwiseReduceHandlesEdgeSizes) {
  EXPECT_EQ(PairwiseSum(std::vector<double>{}), 0.0);
  EXPECT_EQ(PairwiseSum(std::vector<double>{42.0}), 42.0);
  EXPECT_EQ(PairwiseSum(std::vector<double>{1.0, 2.0, 3.0}), 6.0);
}

TEST(Reduce, RunningStatsMergeMatchesSequential) {
  // Chan's parallel merge must reproduce the sequential Welford values
  // to floating-point accuracy, and merging in tree order must be
  // deterministic.
  Rng rng(9);
  std::vector<double> samples(4000);
  for (auto& s : samples) s = rng.NextGaussian() * 3.0 + 7.0;

  RunningStats sequential;
  for (double s : samples) sequential.Add(s);

  std::vector<RunningStats> chunks(8);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    chunks[i / 500].Add(samples[i]);
  }
  const RunningStats merged =
      PairwiseReduce(chunks, [](RunningStats a, const RunningStats& b) {
        a.Merge(b);
        return a;
      });
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-9);
  EXPECT_NEAR(merged.stddev(), sequential.stddev(), 1e-9);
  EXPECT_EQ(merged.min(), sequential.min());
  EXPECT_EQ(merged.max(), sequential.max());
}

TEST(Reduce, RunningStatsMergeEmptySides) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  RunningStats a_copy = a;
  a_copy.Merge(b);  // Merging empty is identity.
  EXPECT_EQ(a_copy.count(), 2u);
  EXPECT_EQ(a_copy.mean(), 2.0);
  b.Merge(a);  // Merging into empty copies.
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), 2.0);
}

// ------------------------------------------------------ flag parser
//
// Parser only: an over-cap or malformed count is rejected and never
// applied, so no executor is sized from it here.

bool ThreadsParse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  bool ok = true;
  InitThreadsFromArgs(argc, argv.data(), &ok);
  return ok;
}

TEST(InitThreadsFromArgs, CountAboveTheCapIsAUsageError) {
  EXPECT_FALSE(ThreadsParse({"prog", "--threads",
                             std::to_string(kMaxThreads + 1)}));
  EXPECT_FALSE(ThreadsParse({"prog", "--threads=100000"}));
}

TEST(InitThreadsFromArgs, MalformedOrOverCapEnvironmentIsAUsageError) {
  for (const char* value : {"-1", "abc", "2x", "", "100000"}) {
    ::setenv("FREERIDER_THREADS", value, 1);
    EXPECT_FALSE(ThreadsParse({"prog"})) << "FREERIDER_THREADS=" << value;
  }
  ::unsetenv("FREERIDER_THREADS");
}

}  // namespace
}  // namespace freerider::runtime
