// Tests for the preemption-safe campaign runtime: the CRC-framed
// checkpoint codec (round-trip, truncation/bit-flip salvage, duplicate
// frames), the atomic file writer, the byte-exact payload helpers, and
// the RecoveryRunner's resume / retry / quarantine / watchdog /
// cancellation-accounting behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/executor.h"
#include "runtime/recovery.h"

namespace freerider::runtime {
namespace {

CheckpointHeader MakeHeader(std::uint64_t campaign, std::uint64_t points,
                            std::uint64_t trials) {
  CheckpointHeader h;
  h.campaign = campaign;
  h.points = points;
  h.trials = trials;
  return h;
}

std::vector<TaskRecord> SampleRecords() {
  std::vector<TaskRecord> records;
  records.push_back({0, TaskState::kDone, "alpha payload"});
  records.push_back({3, TaskState::kQuarantined, ""});
  records.push_back({5, TaskState::kDone, std::string("bin\0ary\xff", 8)});
  return records;
}

// A scratch file under the build tree's CWD; removed on destruction.
struct ScratchFile {
  explicit ScratchFile(const char* name) : path(name) {}
  ~ScratchFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

// ------------------------------------------------------------- codec

TEST(CampaignIdTest, StableAndDiscriminating) {
  const std::uint64_t a = CampaignId("fig10_wifi_los", 42);
  EXPECT_EQ(a, CampaignId("fig10_wifi_los", 42));
  EXPECT_NE(a, CampaignId("fig10_wifi_los", 43));
  EXPECT_NE(a, CampaignId("fig11_wifi_nlos", 42));
  EXPECT_NE(CampaignId("", 0), 0u);
}

TEST(CheckpointCodec, RoundTripsHeaderAndRecords) {
  const auto header = MakeHeader(0xDEADBEEF, 4, 2);
  const auto records = SampleRecords();
  const std::string bytes = EncodeCheckpoint(header, records);

  const CheckpointDecodeResult decoded = DecodeCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_FALSE(decoded.salvaged);
  EXPECT_EQ(decoded.dropped_bytes, 0u);
  EXPECT_EQ(decoded.header.campaign, header.campaign);
  EXPECT_EQ(decoded.header.points, 4u);
  EXPECT_EQ(decoded.header.trials, 2u);
  ASSERT_EQ(decoded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded.records[i].index, records[i].index);
    EXPECT_EQ(decoded.records[i].state, records[i].state);
    EXPECT_EQ(decoded.records[i].payload, records[i].payload);
  }
}

TEST(CheckpointCodec, EmptyAndGarbageInputsAreRejectedNotCrashed) {
  EXPECT_FALSE(DecodeCheckpoint("").ok);
  EXPECT_FALSE(DecodeCheckpoint("short").ok);
  EXPECT_FALSE(DecodeCheckpoint(std::string(64, '\xAB')).ok);
  const CheckpointDecodeResult r = DecodeCheckpoint(std::string(1024, '\0'));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(CheckpointCodec, TruncationAtEveryByteSalvagesAValidPrefix) {
  const auto records = SampleRecords();
  const std::string bytes =
      EncodeCheckpoint(MakeHeader(7, 4, 2), records);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const CheckpointDecodeResult r = DecodeCheckpoint(bytes.substr(0, cut));
    if (!r.ok) continue;  // header itself truncated
    // Whatever survived must be a prefix of the real records, intact.
    ASSERT_LE(r.records.size(), records.size());
    for (std::size_t i = 0; i < r.records.size(); ++i) {
      EXPECT_EQ(r.records[i].index, records[i].index);
      EXPECT_EQ(r.records[i].payload, records[i].payload);
    }
    // A cut on an exact frame boundary leaves a validly-terminated
    // shorter file (nothing dropped); any other cut is salvage and
    // reports exactly the dangling-byte count it discarded.
    EXPECT_EQ(r.salvaged, r.dropped_bytes > 0);
    std::size_t consumed = 4 + 32 + 4;  // header frame
    for (std::size_t i = 0; i < r.records.size(); ++i) {
      consumed += 4 + (8 + 1 + r.records[i].payload.size()) + 4;
    }
    EXPECT_EQ(r.dropped_bytes, cut - consumed) << "cut=" << cut;
  }
}

TEST(CheckpointCodec, BitFlipsNeverCrashAndDecodeDeterministically) {
  const std::string bytes =
      EncodeCheckpoint(MakeHeader(7, 4, 2), SampleRecords());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    std::string corrupt = bytes;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x40);
    const CheckpointDecodeResult first = DecodeCheckpoint(corrupt);
    const CheckpointDecodeResult second = DecodeCheckpoint(corrupt);
    // Determinism: the same bytes always decode identically.
    EXPECT_EQ(first.ok, second.ok);
    EXPECT_EQ(first.records.size(), second.records.size());
    EXPECT_EQ(first.dropped_bytes, second.dropped_bytes);
    // A flip is either caught by a CRC (salvage/reject) or it landed
    // in bytes the decoder ignores — it must never invent records.
    if (first.ok) {
      EXPECT_LE(first.records.size(), 3u);
    }
  }
}

TEST(CheckpointCodec, DuplicateFramesFirstWins) {
  std::vector<TaskRecord> records;
  records.push_back({1, TaskState::kDone, "first"});
  records.push_back({1, TaskState::kDone, "second"});
  records.push_back({2, TaskState::kDone, "other"});
  const CheckpointDecodeResult r =
      DecodeCheckpoint(EncodeCheckpoint(MakeHeader(1, 4, 1), records));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.duplicates, 1u);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].payload, "first");
  EXPECT_EQ(r.records[1].payload, "other");
}

TEST(CheckpointCodec, OutOfRangeIndexStopsSalvage) {
  std::vector<TaskRecord> records;
  records.push_back({0, TaskState::kDone, "good"});
  records.push_back({99, TaskState::kDone, "beyond the 4x1 grid"});
  records.push_back({1, TaskState::kDone, "after the corruption"});
  const CheckpointDecodeResult r =
      DecodeCheckpoint(EncodeCheckpoint(MakeHeader(1, 4, 1), records));
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.salvaged);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].payload, "good");
  EXPECT_GT(r.dropped_bytes, 0u);
}

TEST(CheckpointCodec, WrongVersionAndAbsurdGridAreRejected) {
  CheckpointHeader h = MakeHeader(1, 4, 1);
  h.version = kCheckpointVersion + 1;
  EXPECT_FALSE(DecodeCheckpoint(EncodeCheckpoint(h, {})).ok);
  EXPECT_FALSE(
      DecodeCheckpoint(EncodeCheckpoint(MakeHeader(1, 1ull << 40, 1), {})).ok);
}

// ----------------------------------------------------------- payload

TEST(PayloadCodec, RoundTripsIntegersDoublesAndStrings) {
  PayloadWriter w;
  w.U64(0);
  w.U64(~0ull);
  w.F64(0.0);
  w.F64(-0.0);
  w.F64(1.0 / 3.0);
  w.F64(-1.7976931348623157e308);
  w.F64(5e-324);  // smallest denormal
  w.Str("");
  w.Str("with spaces and 7:colons");
  w.Str(std::string("\x00\xff\n", 3));
  const std::string payload = w.Take();

  PayloadReader r(payload);
  std::uint64_t u = 1;
  EXPECT_TRUE(r.U64(u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(r.U64(u));
  EXPECT_EQ(u, ~0ull);
  double d = 0.0;
  EXPECT_TRUE(r.F64(d));
  EXPECT_EQ(d, 0.0);
  EXPECT_FALSE(std::signbit(d));
  EXPECT_TRUE(r.F64(d));
  EXPECT_TRUE(std::signbit(d));
  EXPECT_TRUE(r.F64(d));
  EXPECT_EQ(d, 1.0 / 3.0);  // bit-exact via %a
  EXPECT_TRUE(r.F64(d));
  EXPECT_EQ(d, -1.7976931348623157e308);
  EXPECT_TRUE(r.F64(d));
  EXPECT_EQ(d, 5e-324);
  std::string s;
  EXPECT_TRUE(r.Str(s));
  EXPECT_EQ(s, "");
  EXPECT_TRUE(r.Str(s));
  EXPECT_EQ(s, "with spaces and 7:colons");
  EXPECT_TRUE(r.Str(s));
  EXPECT_EQ(s, std::string("\x00\xff\n", 3));
  EXPECT_TRUE(r.AtEnd());
}

TEST(PayloadCodec, RejectsMalformedFields) {
  std::uint64_t u = 0;
  double d = 0.0;
  std::string s;
  EXPECT_FALSE(PayloadReader("").U64(u));
  EXPECT_FALSE(PayloadReader("12").U64(u));        // no terminator
  EXPECT_FALSE(PayloadReader("12x ").U64(u));      // trailing junk
  EXPECT_FALSE(PayloadReader("nope ").F64(d));
  EXPECT_FALSE(PayloadReader("5:ab ").Str(s));     // length beyond data
  EXPECT_FALSE(PayloadReader("2:abX").Str(s));     // missing terminator
  PayloadReader r("3 ");
  EXPECT_TRUE(r.U64(u));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.U64(u));  // past the end
}

// A length token near 2^64 must not wrap the bounds check: the reader
// returns false instead of throwing out of std::string::assign.
TEST(PayloadCodec, HugeStringLengthIsRejectedWithoutThrowing) {
  std::string s;
  for (const char* payload :
       {"18446744073709551615:x ", "18446744073709551614:x ",
        "18446744073709551615: ", "18446744073709551615:"}) {
    bool ok = true;
    EXPECT_NO_THROW(ok = PayloadReader(payload).Str(s)) << payload;
    EXPECT_FALSE(ok) << payload;
  }
  // The largest length that fits still reads.
  EXPECT_TRUE(PayloadReader("1:x ").Str(s));
  EXPECT_EQ(s, "x");
}

TEST(PayloadCodec, BoolAcceptsOnlyZeroAndOne) {
  bool b = true;
  EXPECT_TRUE(PayloadReader("0 ").Bool(b));
  EXPECT_FALSE(b);
  EXPECT_TRUE(PayloadReader("1 ").Bool(b));
  EXPECT_TRUE(b);
  EXPECT_FALSE(PayloadReader("2 ").Bool(b));
  EXPECT_FALSE(PayloadReader("18446744073709551615 ").Bool(b));
  EXPECT_FALSE(PayloadReader("").Bool(b));
  EXPECT_TRUE(b);  // untouched by the failed reads
}

// --------------------------------------------------------- file I/O

TEST(AtomicFile, WriteReadRoundTripAndOverwrite) {
  ScratchFile f("checkpoint_test_atomic.bin");
  const std::string payload("first\0version\xff", 14);
  ASSERT_TRUE(WriteFileAtomic(f.path, payload));
  std::string read_back;
  ASSERT_TRUE(ReadFileBytes(f.path, &read_back));
  EXPECT_EQ(read_back, payload);
  ASSERT_TRUE(WriteFileAtomic(f.path, "second"));
  ASSERT_TRUE(ReadFileBytes(f.path, &read_back));
  EXPECT_EQ(read_back, "second");
}

TEST(AtomicFile, FailureReportsErrorAndLeavesNoTemp) {
  std::string error;
  EXPECT_FALSE(WriteFileAtomic("/nonexistent-dir-xyz/file.ckpt", "x", &error));
  EXPECT_FALSE(error.empty());
  std::string bytes;
  EXPECT_FALSE(ReadFileBytes("/nonexistent-dir-xyz/file.ckpt", &bytes));
}

// ---------------------------------------------------- RecoveryRunner

RobustTaskResult U64Result(std::uint64_t v) {
  PayloadWriter w;
  w.U64(v);
  return {true, w.Take()};
}

TEST(RecoveryRunner, FreshRunCompletesWithHonestAccounting) {
  ScratchFile f("checkpoint_test_fresh.ckpt");
  Executor executor(4);
  RobustSweepOptions options;
  options.checkpoint_path = f.path;
  options.checkpoint_every = 1;
  options.campaign = CampaignId("fresh", 1);
  RecoveryRunner runner(executor, options);
  const RobustSweepReport report = runner.Run(
      {5, 3}, [](std::size_t p, std::size_t t) { return U64Result(p * 10 + t); },
      [](std::size_t, std::size_t, const std::string&) { return true; });
  EXPECT_EQ(report.tasks_total, 15u);
  EXPECT_EQ(report.tasks_ok, 15u);
  EXPECT_EQ(report.tasks_restored, 0u);
  EXPECT_EQ(report.tasks_quarantined, 0u);
  EXPECT_EQ(report.tasks_drained, 0u);
  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(report.snapshots_written, 0u);
  EXPECT_EQ(report.tasks_ok + report.tasks_restored +
                report.tasks_quarantined + report.tasks_drained,
            report.tasks_total);

  // The final checkpoint holds every task with its payload.
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(f.path, &bytes));
  const CheckpointDecodeResult decoded = DecodeCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok);
  EXPECT_FALSE(decoded.salvaged);
  EXPECT_EQ(decoded.records.size(), 15u);
}

TEST(RecoveryRunner, ResumeSkipsCompletedTasksAndReplaysInGridOrder) {
  ScratchFile f("checkpoint_test_resume.ckpt");
  const std::uint64_t campaign = CampaignId("resume", 9);
  // Pre-bake a checkpoint holding tasks 0, 2 and 5 of a 4x2 grid.
  std::vector<TaskRecord> records;
  for (const std::uint64_t i : {0ull, 2ull, 5ull}) {
    PayloadWriter w;
    w.U64(i * 100);
    records.push_back({i, TaskState::kDone, w.Take()});
  }
  ASSERT_TRUE(WriteFileAtomic(
      f.path, EncodeCheckpoint(
                  CheckpointHeader{kCheckpointVersion, campaign, 4, 2},
                  records)));

  Executor executor(2);
  RobustSweepOptions options;
  options.checkpoint_path = f.path;
  options.resume = true;
  options.campaign = campaign;
  RecoveryRunner runner(executor, options);
  std::vector<std::size_t> restored_order;
  std::vector<std::uint64_t> values(8, 0);
  std::atomic<std::size_t> body_runs{0};
  const RobustSweepReport report = runner.Run(
      {4, 2},
      [&](std::size_t p, std::size_t t) {
        body_runs.fetch_add(1);
        values[p * 2 + t] = p * 2 + t;  // recomputed value == index
        return U64Result(p * 2 + t);
      },
      [&](std::size_t p, std::size_t t, const std::string& payload) {
        PayloadReader r(payload);
        std::uint64_t v = 0;
        if (!r.U64(v)) return false;
        restored_order.push_back(p * 2 + t);
        values[p * 2 + t] = v;
        return true;
      });
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.tasks_restored, 3u);
  EXPECT_EQ(report.tasks_ok, 5u);
  EXPECT_EQ(body_runs.load(), 5u);
  // Restore replays serially in ascending grid-index order.
  EXPECT_EQ(restored_order, (std::vector<std::size_t>{0, 2, 5}));
  EXPECT_EQ(values[0], 0u);
  EXPECT_EQ(values[2], 200u);
  EXPECT_EQ(values[5], 500u);
}

TEST(RecoveryRunner, MismatchedCampaignIsIgnoredAndEverythingReruns) {
  ScratchFile f("checkpoint_test_mismatch.ckpt");
  ASSERT_TRUE(WriteFileAtomic(
      f.path,
      EncodeCheckpoint(
          CheckpointHeader{kCheckpointVersion, CampaignId("other", 1), 3, 1},
          {{0, TaskState::kDone, "1 "}})));
  Executor executor(1);
  RobustSweepOptions options;
  options.checkpoint_path = f.path;
  options.resume = true;
  options.campaign = CampaignId("mine", 1);
  RecoveryRunner runner(executor, options);
  const RobustSweepReport report = runner.Run(
      {3, 1}, [](std::size_t p, std::size_t) { return U64Result(p); },
      [](std::size_t, std::size_t, const std::string&) { return true; });
  EXPECT_FALSE(report.resumed);
  EXPECT_FALSE(report.checkpoint_error.empty());
  EXPECT_EQ(report.tasks_ok, 3u);
}

TEST(RecoveryRunner, RejectedRestorePayloadReruns) {
  ScratchFile f("checkpoint_test_reject.ckpt");
  const std::uint64_t campaign = CampaignId("reject", 2);
  ASSERT_TRUE(WriteFileAtomic(
      f.path,
      EncodeCheckpoint(CheckpointHeader{kCheckpointVersion, campaign, 2, 1},
                       {{0, TaskState::kDone, "not a number"},
                        {1, TaskState::kDone, "7 "}})));
  Executor executor(1);
  RobustSweepOptions options;
  options.checkpoint_path = f.path;
  options.resume = true;
  options.campaign = campaign;
  RecoveryRunner runner(executor, options);
  std::atomic<std::size_t> body_runs{0};
  const RobustSweepReport report = runner.Run(
      {2, 1},
      [&](std::size_t p, std::size_t) {
        body_runs.fetch_add(1);
        return U64Result(p);
      },
      [](std::size_t, std::size_t, const std::string& payload) {
        PayloadReader r(payload);
        std::uint64_t v = 0;
        return r.U64(v);
      });
  EXPECT_EQ(report.tasks_restored, 1u);  // task 1 restored
  EXPECT_EQ(body_runs.load(), 1u);       // task 0 re-ran
  EXPECT_EQ(report.tasks_ok, 1u);
}

TEST(RecoveryRunner, RetriesThrowingTaskThenSucceeds) {
  Executor executor(2);
  RobustSweepOptions options;
  options.max_retries = 2;
  RecoveryRunner runner(executor, options);
  std::atomic<int> failures_left{2};
  const RobustSweepReport report = runner.Run(
      {3, 1},
      [&](std::size_t p, std::size_t) -> RobustTaskResult {
        if (p == 1 && failures_left.fetch_sub(1) > 0) {
          throw std::runtime_error("transient");
        }
        return U64Result(p);
      },
      [](std::size_t, std::size_t, const std::string&) { return true; });
  EXPECT_FALSE(report.cancelled);
  EXPECT_EQ(report.tasks_ok, 3u);
  EXPECT_EQ(report.task_retries, 2u);
  EXPECT_EQ(report.tasks[1].attempts, 3u);
}

TEST(RecoveryRunner, QuarantinePersistsAcrossResume) {
  ScratchFile f("checkpoint_test_quarantine.ckpt");
  Executor executor(2);
  RobustSweepOptions options;
  options.checkpoint_path = f.path;
  options.checkpoint_every = 1;
  options.campaign = CampaignId("quarantine", 5);
  options.quarantine = true;
  options.max_retries = 1;
  RecoveryRunner runner(executor, options);
  auto poisoned = [](std::size_t p, std::size_t) -> RobustTaskResult {
    if (p == 2) throw std::runtime_error("poison");
    return U64Result(p);
  };
  auto accept = [](std::size_t, std::size_t, const std::string&) {
    return true;
  };
  const RobustSweepReport first = runner.Run({4, 1}, poisoned, accept);
  EXPECT_FALSE(first.cancelled);
  EXPECT_EQ(first.tasks_ok, 3u);
  EXPECT_EQ(first.tasks_quarantined, 1u);
  EXPECT_EQ(first.quarantined, std::vector<std::size_t>{2});
  EXPECT_EQ(first.task_retries, 1u);  // one retry before giving up

  // Resume: the poisoned task must not run again.
  RobustSweepOptions resume_options = options;
  resume_options.resume = true;
  RecoveryRunner resumer(executor, resume_options);
  std::atomic<std::size_t> body_runs{0};
  const RobustSweepReport second = resumer.Run(
      {4, 1},
      [&](std::size_t p, std::size_t t) {
        body_runs.fetch_add(1);
        return poisoned(p, t);
      },
      accept);
  EXPECT_EQ(body_runs.load(), 0u);
  EXPECT_EQ(second.tasks_restored, 3u);
  EXPECT_EQ(second.tasks_quarantined, 1u);
  EXPECT_EQ(second.tasks_restored + second.tasks_quarantined +
                second.tasks_ok + second.tasks_drained,
            second.tasks_total);
}

TEST(RecoveryRunner, StrictFailureCancelsWithDrainedAccounting) {
  Executor executor(2);
  RecoveryRunner runner(executor, {});
  const RobustSweepReport report = runner.Run(
      {64, 1},
      [](std::size_t p, std::size_t) -> RobustTaskResult {
        if (p == 5) return {false, ""};
        return U64Result(p);
      },
      [](std::size_t, std::size_t, const std::string&) { return true; });
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.first_failure_task, 5u);
  // The satellite invariant: drained + executed + quarantined == total
  // even under cancellation (the failing task itself counts drained —
  // it produced no committed result).
  EXPECT_EQ(report.tasks_ok + report.tasks_restored +
                report.tasks_quarantined + report.tasks_drained,
            report.tasks_total);
  EXPECT_GT(report.tasks_drained, 0u);
  // SummaryJson surfaces the accounting verdict for TIMING files.
  EXPECT_NE(report.SummaryJson("x").find("\"accounting_ok\": true"),
            std::string::npos);
}

TEST(RecoveryRunner, WatchdogFlagsSlowTask) {
  Executor executor(2);
  RobustSweepOptions options;
  options.watchdog_warn_s = 0.05;
  options.watchdog_poll_s = 0.01;
  RecoveryRunner runner(executor, options);
  const RobustSweepReport report = runner.Run(
      {2, 1},
      [](std::size_t p, std::size_t) {
        if (p == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        return U64Result(p);
      },
      [](std::size_t, std::size_t, const std::string&) { return true; });
  EXPECT_GE(report.watchdog_flags, 1u);
  EXPECT_EQ(report.tasks_ok, 2u);  // detection only, never killed
}

TEST(RecoveryRunner, ResultsAreThreadCountInvariant) {
  auto run = [](std::size_t threads) {
    Executor executor(threads);
    RecoveryRunner runner(executor, {});
    std::vector<std::uint64_t> values(24, 0);
    runner.Run(
        {12, 2},
        [&](std::size_t p, std::size_t t) {
          values[p * 2 + t] = p * 1000 + t;
          PayloadWriter w;
          w.U64(values[p * 2 + t]);
          return RobustTaskResult{true, w.Take()};
        },
        [](std::size_t, std::size_t, const std::string&) { return true; });
    return values;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(RobustOptions, ParsesAndCompactsArgv) {
  const char* raw[] = {"prog",       "--checkpoint", "a.ckpt",
                       "--keep-me",  "--resume",     "--checkpoint-every",
                       "4",          "--watchdog-s", "2.5",
                       "--also-keep"};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  const RobustSweepOptions options =
      RobustOptionsFromArgs(argc, argv.data());
  EXPECT_EQ(options.checkpoint_path, "a.ckpt");
  EXPECT_TRUE(options.resume);
  EXPECT_EQ(options.checkpoint_every, 4u);
  EXPECT_DOUBLE_EQ(options.watchdog_warn_s, 2.5);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--keep-me");
  EXPECT_STREQ(argv[2], "--also-keep");
}

TEST(RobustOptions, ResumeWithInlinePathSetsCheckpoint) {
  const char* raw[] = {"prog", "--resume", "ckpt.bin"};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  const RobustSweepOptions options =
      RobustOptionsFromArgs(argc, argv.data());
  EXPECT_TRUE(options.resume);
  EXPECT_EQ(options.checkpoint_path, "ckpt.bin");
  EXPECT_EQ(argc, 1);
}

}  // namespace
}  // namespace freerider::runtime
