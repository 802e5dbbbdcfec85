// Tests for the fault-tolerant multi-process sweep runtime
// (runtime/dist, DESIGN.md §12): the wire codec and FrameStream's
// truncation/bit-flip behavior, the LeaseTable dispatch policy
// (expiry, backoff, retry/quarantine, speculation, first-wins) plus a
// randomized-schedule property test, the named body registry, and
// end-to-end DistRunner campaigns against a real tools/sweep_worker
// fleet — including chaos injection, degraded execution against a
// broken worker binary, and checkpoint/resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "runtime/checkpoint.h"
#include "runtime/dist/coordinator.h"
#include "runtime/dist/lease.h"
#include "runtime/dist/registry.h"
#include "runtime/dist/wire.h"
#include "sim/dist_bodies.h"

namespace freerider::runtime::dist {
namespace {

// ------------------------------------------------------------ wire

TEST(WireMsgTest, RoundTripsEveryMessageType) {
  std::vector<WireMsg> msgs;
  {
    WireMsg m;
    m.type = MsgType::kStart;
    m.points = 8;
    m.trials = 3;
    m.body = "chaos_probe";
    m.params = "7:40";
    msgs.push_back(m);
  }
  {
    WireMsg m;
    m.type = MsgType::kStartAck;
    m.ok = false;
    m.error = "unknown body";
    msgs.push_back(m);
  }
  {
    WireMsg m;
    m.type = MsgType::kTask;
    m.index = 17;
    msgs.push_back(m);
  }
  {
    WireMsg m;
    m.type = MsgType::kResult;
    m.index = 17;
    m.status = ResultStatus::kThrew;
    m.payload = std::string("bin\0ary\xff", 8);
    msgs.push_back(m);
  }
  {
    WireMsg m;
    m.type = MsgType::kHeartbeat;
    m.seq = 42;
    msgs.push_back(m);
  }
  {
    WireMsg m;
    m.type = MsgType::kShutdown;
    msgs.push_back(m);
  }
  for (const WireMsg& m : msgs) {
    const std::string bytes = EncodeMsg(m);
    WireMsg out;
    ASSERT_TRUE(DecodeMsg(bytes, &out));
    EXPECT_EQ(out.type, m.type);
    EXPECT_EQ(out.points, m.points);
    EXPECT_EQ(out.trials, m.trials);
    EXPECT_EQ(out.body, m.body);
    EXPECT_EQ(out.params, m.params);
    EXPECT_EQ(out.ok, m.ok);
    EXPECT_EQ(out.error, m.error);
    EXPECT_EQ(out.index, m.index);
    EXPECT_EQ(out.status, m.status);
    EXPECT_EQ(out.payload, m.payload);
    EXPECT_EQ(out.seq, m.seq);
  }
}

TEST(WireMsgTest, RejectsMalformedPayloads) {
  WireMsg out;
  EXPECT_FALSE(DecodeMsg("", &out));
  EXPECT_FALSE(DecodeMsg("\xEE", &out));  // unknown type tag
  WireMsg m;
  m.type = MsgType::kResult;
  m.index = 3;
  m.payload = "payload";
  const std::string bytes = EncodeMsg(m);
  // Every strict prefix is short somewhere; none may decode.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeMsg(std::string_view(bytes.data(), cut), &out))
        << "prefix length " << cut;
  }
  EXPECT_FALSE(DecodeMsg(bytes + "x", &out)) << "trailing garbage";
}

// A CRC-valid result frame whose payload length token is 2^64 - 1 must
// be rejected, not thrown: the coordinator decodes worker frames
// outside any try block.
TEST(WireMsgTest, HugeStringLengthIsRejectedWithoutThrowing) {
  WireMsg out;
  bool ok = true;
  EXPECT_NO_THROW(ok = DecodeMsg("4 7 0 18446744073709551615:x ", &out));
  EXPECT_FALSE(ok);
  EXPECT_NO_THROW(ok = DecodeMsg("1 8 3 18446744073709551615:", &out));
  EXPECT_FALSE(ok);
}

std::vector<std::string> SamplePayloads() {
  return {
      EncodeMsg([] {
        WireMsg m;
        m.type = MsgType::kHeartbeat;
        m.seq = 1;
        return m;
      }()),
      std::string(),  // empty frame payload is legal
      std::string("bin\0\xff\x01", 6),
      std::string(300, 'z'),
  };
}

TEST(FrameStreamTest, TruncationAtEveryByteNeverCorruptsOrInvents) {
  const std::vector<std::string> payloads = SamplePayloads();
  std::string stream;
  std::vector<std::size_t> ends;  // cumulative frame end offsets
  for (const std::string& p : payloads) {
    stream += EncodeFrame(p);
    ends.push_back(stream.size());
  }
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameStream fs;
    fs.Feed(stream.data(), cut);
    const std::size_t expect_frames = static_cast<std::size_t>(
        std::count_if(ends.begin(), ends.end(),
                      [cut](std::size_t e) { return e <= cut; }));
    std::string payload;
    std::size_t got = 0;
    FrameStatus status;
    while ((status = fs.Next(&payload)) == FrameStatus::kFrame) {
      ASSERT_LT(got, payloads.size());
      EXPECT_EQ(payload, payloads[got]) << "cut=" << cut;
      ++got;
    }
    EXPECT_EQ(got, expect_frames) << "cut=" << cut;
    // A torn tail is incomplete, never corrupt: CRC is only judged on
    // whole frames.
    EXPECT_EQ(status, FrameStatus::kNeedMore) << "cut=" << cut;
    EXPECT_FALSE(fs.corrupt());
    // Feeding the remainder must recover every remaining frame — the
    // coordinator's read loop depends on frames resuming mid-byte.
    fs.Feed(stream.data() + cut, stream.size() - cut);
    while ((status = fs.Next(&payload)) == FrameStatus::kFrame) {
      ASSERT_LT(got, payloads.size());
      EXPECT_EQ(payload, payloads[got]);
      ++got;
    }
    EXPECT_EQ(got, payloads.size()) << "cut=" << cut;
    EXPECT_EQ(status, FrameStatus::kNeedMore);
  }
}

TEST(FrameStreamTest, SingleBitFlipNeverYieldsWrongBytes) {
  const std::vector<std::string> payloads = SamplePayloads();
  std::string stream;
  for (const std::string& p : payloads) stream += EncodeFrame(p);
  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = stream;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      FrameStream fs;
      fs.Feed(flipped);
      std::string payload;
      std::size_t got = 0;
      FrameStatus status;
      while ((status = fs.Next(&payload)) == FrameStatus::kFrame) {
        // Whatever decodes must be an untouched prefix frame, byte for
        // byte — the CRC gate means a flip can drop frames but never
        // alter one.
        ASSERT_LT(got, payloads.size()) << "byte=" << byte << " bit=" << bit;
        ASSERT_EQ(payload, payloads[got]) << "byte=" << byte << " bit=" << bit;
        ++got;
      }
      // The flipped frame itself never decodes.
      EXPECT_LT(got, payloads.size()) << "byte=" << byte << " bit=" << bit;
      if (status == FrameStatus::kCorrupt) {
        // Corruption is sticky: frame boundaries are untrustworthy.
        EXPECT_TRUE(fs.corrupt());
        EXPECT_EQ(fs.Next(&payload), FrameStatus::kCorrupt);
      } else {
        EXPECT_EQ(status, FrameStatus::kNeedMore);
      }
    }
  }
}

TEST(FrameStreamTest, OversizedLengthFieldIsImmediatelyCorrupt) {
  std::string frame = EncodeFrame("x");
  frame[0] = frame[1] = frame[2] = frame[3] = '\xFF';  // len 0xFFFFFFFF
  FrameStream fs;
  fs.Feed(frame);
  std::string payload;
  EXPECT_EQ(fs.Next(&payload), FrameStatus::kCorrupt);
  EXPECT_TRUE(fs.corrupt());
}

// ----------------------------------------------------------- lease

LeaseOptions FastLeaseOptions() {
  LeaseOptions o;
  o.lease_timeout_s = 1.0;
  o.backoff_base_s = 0.5;
  o.backoff_max_s = 2.0;
  o.speculate_after_s = 0.0;  // individual tests opt in
  return o;
}

TEST(LeaseTableTest, DispatchesLowestPendingIndexFirst) {
  LeaseTable table(3, FastLeaseOptions());
  std::size_t task = 99;
  bool spec = true;
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  EXPECT_EQ(task, 0u);
  EXPECT_FALSE(spec);
  ASSERT_TRUE(table.Acquire(1, 0.0, &task, &spec));
  EXPECT_EQ(task, 1u);
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  EXPECT_EQ(task, 2u);
  // Everything leased, speculation disabled: nothing dispatchable.
  EXPECT_FALSE(table.Acquire(1, 0.0, &task, &spec));
}

TEST(LeaseTableTest, CompleteIsFirstWins) {
  LeaseTable table(2, FastLeaseOptions());
  std::size_t task = 0;
  bool spec = false;
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  EXPECT_EQ(table.Complete(task, 0.1), LeaseTable::CompleteResult::kAccepted);
  EXPECT_EQ(table.phase(task), TaskPhase::kDone);
  // A second result for the same task (late speculative twin, or a
  // worker that survived its own expiry) is counted and dropped.
  EXPECT_EQ(table.Complete(task, 0.2), LeaseTable::CompleteResult::kDuplicate);
  EXPECT_EQ(table.duplicate_results(), 1u);
  EXPECT_EQ(table.done(), 1u);
  // Hostile index from a worker pipe.
  EXPECT_EQ(table.Complete(999, 0.2), LeaseTable::CompleteResult::kInvalid);
}

TEST(LeaseTableTest, ExpiryRependsWithBackoff) {
  LeaseTable table(1, FastLeaseOptions());
  std::size_t task = 0;
  bool spec = false;
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  EXPECT_EQ(table.ExpireLeases(0.5).size(), 0u);  // deadline not reached
  const std::vector<Lease> expired = table.ExpireLeases(1.5);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].task, 0u);
  EXPECT_EQ(expired[0].worker, 0);
  EXPECT_EQ(table.expiries(), 1u);
  EXPECT_EQ(table.phase(0), TaskPhase::kPending);
  // Re-dispatch waits out the exponential backoff (base * 2^0 = 0.5s
  // after the first dispatch), then hands the task out again.
  EXPECT_FALSE(table.Acquire(1, 1.6, &task, &spec));
  ASSERT_TRUE(table.Acquire(1, 2.1, &task, &spec));
  EXPECT_EQ(task, 0u);
  EXPECT_EQ(table.attempts(0), 2u);
  // A late result from the *expired* lease still wins: the payload is
  // deterministic, so it equals what the re-dispatch would compute.
  EXPECT_EQ(table.Complete(0, 2.2), LeaseTable::CompleteResult::kAccepted);
  EXPECT_TRUE(table.AllSettled());
}

TEST(LeaseTableTest, RenewExtendsDeadline) {
  LeaseTable table(1, FastLeaseOptions());
  std::size_t task = 0;
  bool spec = false;
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  table.Renew(0, 0.9);  // heartbeat just before the deadline
  EXPECT_EQ(table.ExpireLeases(1.5).size(), 0u);
  EXPECT_EQ(table.ExpireLeases(2.0).size(), 1u);
}

TEST(LeaseTableTest, RetryableFailureRetriesThenQuarantines) {
  LeaseOptions opts = FastLeaseOptions();
  opts.max_retries = 1;
  opts.quarantine = true;
  LeaseTable table(1, opts);
  std::size_t task = 0;
  bool spec = false;
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  EXPECT_EQ(table.Fail(task, 0.1, /*retryable=*/true),
            LeaseTable::FailResult::kRetry);
  EXPECT_EQ(table.phase(0), TaskPhase::kPending);
  ASSERT_TRUE(table.Acquire(0, 1.0, &task, &spec));
  EXPECT_EQ(table.Fail(task, 1.1, /*retryable=*/true),
            LeaseTable::FailResult::kQuarantined);
  EXPECT_EQ(table.phase(0), TaskPhase::kQuarantined);
  EXPECT_EQ(table.retries(), 1u);
  EXPECT_TRUE(table.AllSettled());
  // Stale failure after settlement is ignored.
  EXPECT_EQ(table.Fail(task, 1.2, true), LeaseTable::FailResult::kIgnored);
}

TEST(LeaseTableTest, NonRetryableFailureIsFatalInStrictMode) {
  LeaseOptions opts = FastLeaseOptions();
  opts.max_retries = 5;  // irrelevant: ok == false never retries
  LeaseTable table(1, opts);
  std::size_t task = 0;
  bool spec = false;
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  EXPECT_EQ(table.Fail(task, 0.1, /*retryable=*/false),
            LeaseTable::FailResult::kFatal);
}

TEST(LeaseTableTest, SpeculationDuplicatesOldestStraggler) {
  LeaseOptions opts = FastLeaseOptions();
  opts.lease_timeout_s = 100.0;  // straggler, not dead
  opts.speculate_after_s = 2.0;
  opts.max_leases_per_task = 2;
  LeaseTable table(1, opts);
  std::size_t task = 0;
  bool spec = false;
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  // Too young to duplicate.
  EXPECT_FALSE(table.Acquire(1, 1.0, &task, &spec));
  // Old enough — but never duplicated onto its own holder.
  EXPECT_FALSE(table.Acquire(0, 3.0, &task, &spec));
  ASSERT_TRUE(table.Acquire(1, 3.0, &task, &spec));
  EXPECT_EQ(task, 0u);
  EXPECT_TRUE(spec);
  EXPECT_EQ(table.speculative_dispatches(), 1u);
  // max_leases_per_task caps the duplicate count.
  EXPECT_FALSE(table.Acquire(2, 6.0, &task, &spec));
  // First result wins, twin's arrival is a counted duplicate.
  EXPECT_EQ(table.Complete(0, 6.5), LeaseTable::CompleteResult::kAccepted);
  EXPECT_EQ(table.Complete(0, 6.6), LeaseTable::CompleteResult::kDuplicate);
  EXPECT_TRUE(table.AllSettled());
}

TEST(LeaseTableTest, ReleaseWorkerRependsItsLeases) {
  LeaseTable table(3, FastLeaseOptions());
  std::size_t task = 0;
  bool spec = false;
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  ASSERT_TRUE(table.Acquire(0, 0.0, &task, &spec));
  ASSERT_TRUE(table.Acquire(1, 0.0, &task, &spec));
  EXPECT_EQ(table.ReleaseWorker(0, 0.5), 2u);
  EXPECT_EQ(table.phase(0), TaskPhase::kPending);
  EXPECT_EQ(table.phase(1), TaskPhase::kPending);
  EXPECT_EQ(table.phase(2), TaskPhase::kLeased);  // worker 1 unaffected
  const std::vector<std::size_t> unsettled = table.Unsettled();
  EXPECT_EQ(unsettled, (std::vector<std::size_t>{0, 1, 2}));
}

// Randomized schedules: whatever interleaving of acquire / complete /
// fail / worker-death / clock-jump the fleet produces, no task is ever
// lost, double-counted, or resurrected after settling.
TEST(LeaseTableTest, PropertyRandomSchedulesNeverLoseOrDoubleCountTasks) {
  constexpr std::size_t kTasks = 24;
  constexpr int kWorkers = 5;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    LeaseOptions opts;
    opts.lease_timeout_s = 1.0;
    opts.backoff_base_s = 0.01;
    opts.backoff_max_s = 0.1;
    opts.max_retries = 1;
    opts.quarantine = true;
    opts.speculate_after_s = 0.5;
    opts.max_leases_per_task = 2;
    LeaseTable table(kTasks, opts);
    std::vector<int> accepted(kTasks, 0);
    std::vector<std::pair<int, std::size_t>> held;  // (worker, task)
    double now = 0.0;
    for (int iter = 0; iter < 4000 && !table.AllSettled(); ++iter) {
      now += 0.01 + rng.NextDouble() * 0.2;
      const std::uint64_t op = rng.NextBelow(100);
      const int w = static_cast<int>(rng.NextBelow(kWorkers));
      if (op < 45) {
        std::size_t task = 0;
        bool spec = false;
        if (table.Acquire(w, now, &task, &spec)) {
          ASSERT_LT(task, kTasks);
          held.emplace_back(w, task);
        }
      } else if (op < 75 && !held.empty()) {
        const std::size_t i = rng.NextBelow(held.size());
        if (table.Complete(held[i].second, now) ==
            LeaseTable::CompleteResult::kAccepted) {
          ++accepted[held[i].second];
        }
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (op < 85 && !held.empty()) {
        const std::size_t i = rng.NextBelow(held.size());
        table.Fail(held[i].second, now, rng.NextBelow(2) == 0);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (op < 92) {
        table.ReleaseWorker(w, now);
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [w](const auto& h) { return h.first == w; }),
                   held.end());
      } else {
        now += opts.lease_timeout_s + 0.5;
        table.ExpireLeases(now);
        // Expired holders may still report results later (first-wins
        // dedup absorbs them), so `held` deliberately keeps the stale
        // entries.
      }
      // Inductive invariants after every operation.
      ASSERT_LE(table.done() + table.quarantined(), kTasks);
      ASSERT_EQ(table.Unsettled().size(),
                kTasks - table.done() - table.quarantined());
      for (std::size_t t = 0; t < kTasks; ++t) ASSERT_LE(accepted[t], 1);
    }
    // Deterministic drain so every schedule reaches settlement.
    for (int guard = 0; guard < 2000 && !table.AllSettled(); ++guard) {
      now += opts.lease_timeout_s + opts.backoff_max_s + 0.1;
      table.ExpireLeases(now);
      std::size_t task = 0;
      bool spec = false;
      while (table.Acquire(0, now, &task, &spec)) {
        table.Complete(task, now);
        ++accepted[task];
      }
    }
    ASSERT_TRUE(table.AllSettled()) << "seed " << seed;
    EXPECT_EQ(table.done() + table.quarantined(), kTasks);
    EXPECT_TRUE(table.Unsettled().empty());
    int total_accepted = 0;
    for (std::size_t t = 0; t < kTasks; ++t) {
      SCOPED_TRACE(t);
      const TaskPhase phase = table.phase(t);
      EXPECT_TRUE(phase == TaskPhase::kDone || phase == TaskPhase::kQuarantined);
      EXPECT_EQ(accepted[t], phase == TaskPhase::kDone ? 1 : 0);
      total_accepted += accepted[t];
    }
    EXPECT_EQ(table.done(), static_cast<std::size_t>(total_accepted));
  }
}

// -------------------------------------------------------- registry

TEST(RegistryTest, RegisterFindAndList) {
  RegisterDistBody("dist_test_body",
                   [](const std::string& params, const SweepGrid& grid) {
                     if (params != "good" || grid.tasks() == 0) {
                       return DistBody();
                     }
                     return DistBody([](std::size_t p, std::size_t t) {
                       RobustTaskResult out;
                       out.payload = std::to_string(p * 100 + t);
                       return out;
                     });
                   });
  const DistBodyFactory factory = FindDistBody("dist_test_body");
  ASSERT_TRUE(factory != nullptr);
  EXPECT_TRUE(factory("bad params", {2, 2}) == nullptr);
  const DistBody body = factory("good", {2, 2});
  ASSERT_TRUE(body != nullptr);
  EXPECT_EQ(body(1, 1).payload, "101");
  EXPECT_TRUE(FindDistBody("no_such_body") == nullptr);
  const std::vector<std::string> names = RegisteredDistBodies();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_TRUE(std::find(names.begin(), names.end(), "dist_test_body") !=
              names.end());
}

TEST(RegistryTest, SimBodiesValidateParamsAndGridShape) {
  sim::RegisterDistBodies();
  const DistBodyFactory fig14 = FindDistBody("fig14_range");
  ASSERT_TRUE(fig14 != nullptr);
  const SweepGrid fig14_grid{sim::Fig14TxTagDistances().size(), 1};
  EXPECT_TRUE(fig14("wifi", fig14_grid) != nullptr);
  EXPECT_TRUE(fig14("no_such_radio", fig14_grid) == nullptr);
  EXPECT_TRUE(fig14("wifi", {3, 3}) == nullptr);  // wrong grid shape

  const DistBodyFactory stress = FindDistBody("stress_supervisor");
  ASSERT_TRUE(stress != nullptr);
  EXPECT_TRUE(stress("600", {sim::StressBenchSeeds().size(), 2}) != nullptr);
  EXPECT_TRUE(stress("bogus", {sim::StressBenchSeeds().size(), 2}) == nullptr);
  EXPECT_TRUE(stress("600", {1, 1}) == nullptr);

  const DistBodyFactory probe = FindDistBody("chaos_probe");
  ASSERT_TRUE(probe != nullptr);
  EXPECT_TRUE(probe("7:40", {4, 2}) != nullptr);
  EXPECT_TRUE(probe("bogus", {4, 2}) == nullptr);
  EXPECT_TRUE(probe("7:0", {4, 2}) == nullptr);
}

// ------------------------------------------------------ end to end
//
// These tests run a real fleet: DistRunner spawns tools/sweep_worker
// subprocesses (path baked in via DIST_SWEEP_WORKER) and the digest of
// every fleet configuration must match the in-process baseline byte
// for byte.

// Sets an environment variable for one test, restoring on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

constexpr std::uint64_t kProbeSeed = 20260808;
constexpr std::size_t kProbeRounds = 40;
const SweepGrid kProbeGrid{4, 2};

DistOptions FleetOptions(std::size_t workers) {
  DistOptions dist;
  dist.workers = workers;
  dist.lease_timeout_s = 3.0;
  dist.spawn_grace_s = 10.0;
  dist.speculate_after_s = 20.0;  // keep e2e runs speculation-quiet
  dist.max_respawns = 8;
  return dist;
}

void ExpectAccountingInvariant(const DistReport& report) {
  EXPECT_EQ(report.robust.tasks_ok + report.robust.tasks_restored +
                report.robust.tasks_quarantined + report.robust.tasks_drained,
            report.robust.tasks_total);
  EXPECT_FALSE(report.robust.cancelled);
}

std::string InProcessDigest() {
  std::string digest;
  const DistReport report = sim::ChaosProbeDistributed(
      kProbeSeed, kProbeRounds, kProbeGrid, {}, FleetOptions(0), &digest);
  EXPECT_FALSE(report.distributed);
  ExpectAccountingInvariant(report);
  EXPECT_FALSE(digest.empty());
  return digest;
}

TEST(DistRunnerTest, FleetOutputIsByteIdenticalToInProcess) {
  sim::RegisterDistBodies();
  const std::string baseline = InProcessDigest();
  ScopedEnv bin("FREERIDER_WORKER_BIN", DIST_SWEEP_WORKER);
  std::string digest;
  const DistReport report = sim::ChaosProbeDistributed(
      kProbeSeed, kProbeRounds, kProbeGrid, {}, FleetOptions(2), &digest);
  EXPECT_TRUE(report.distributed);
  EXPECT_EQ(report.workers_requested, 2u);
  EXPECT_GE(report.workers_spawned, 2u);
  ExpectAccountingInvariant(report);
  EXPECT_EQ(digest, baseline);
}

TEST(DistRunnerTest, WorkerKillChaosDoesNotPerturbOutput) {
  sim::RegisterDistBodies();
  const std::string baseline = InProcessDigest();
  ScopedEnv bin("FREERIDER_WORKER_BIN", DIST_SWEEP_WORKER);
  // Arm both initial workers: one of them can drain the whole grid
  // before the other is ready, so a directive on a single worker may
  // never fire. Respawns get fresh indexes and run clean.
  ScopedEnv chaos("FREERIDER_CHAOS", "kill@0:1,kill@1:1");
  std::string digest;
  const DistReport report = sim::ChaosProbeDistributed(
      kProbeSeed, kProbeRounds, kProbeGrid, {}, FleetOptions(2), &digest);
  ExpectAccountingInvariant(report);
  EXPECT_EQ(digest, baseline);
  // A directive actually fired and the coordinator recovered.
  EXPECT_GE(report.worker_deaths + report.lease_expiries, 1u);
  EXPECT_GE(report.respawns, 1u);
}

TEST(DistRunnerTest, FlippedResultFrameIsQuarantinedAtTheCrc) {
  sim::RegisterDistBodies();
  const std::string baseline = InProcessDigest();
  ScopedEnv bin("FREERIDER_WORKER_BIN", DIST_SWEEP_WORKER);
  // Both initial workers, as in WorkerKillChaosDoesNotPerturbOutput.
  ScopedEnv chaos("FREERIDER_CHAOS", "flip@0:1,flip@1:1");
  std::string digest;
  const DistReport report = sim::ChaosProbeDistributed(
      kProbeSeed, kProbeRounds, kProbeGrid, {}, FleetOptions(2), &digest);
  ExpectAccountingInvariant(report);
  EXPECT_EQ(digest, baseline);
  // The corrupt frame was detected and never folded into the output.
  EXPECT_GE(report.corrupt_frames, 1u);
}

TEST(DistRunnerTest, UnusableWorkerBinaryDegradesToInProcess) {
  sim::RegisterDistBodies();
  const std::string baseline = InProcessDigest();
  // /bin/false exits immediately without speaking the protocol: the
  // fleet burns its respawn budget and the runner must finish the
  // campaign in-process with identical bytes.
  ScopedEnv bin("FREERIDER_WORKER_BIN", "/bin/false");
  std::string digest;
  const DistReport report = sim::ChaosProbeDistributed(
      kProbeSeed, kProbeRounds, kProbeGrid, {}, FleetOptions(2), &digest);
  ExpectAccountingInvariant(report);
  EXPECT_EQ(digest, baseline);
  EXPECT_GE(report.degraded_tasks, 1u);
}

TEST(DistRunnerTest, CheckpointResumeRestoresEveryTask) {
  sim::RegisterDistBodies();
  const std::string baseline = InProcessDigest();
  const std::string path = "dist_test_resume.ckpt";
  std::remove(path.c_str());
  ScopedEnv bin("FREERIDER_WORKER_BIN", DIST_SWEEP_WORKER);
  RobustSweepOptions robust;
  robust.checkpoint_path = path;
  robust.checkpoint_every = 1;
  {
    std::string digest;
    const DistReport report = sim::ChaosProbeDistributed(
        kProbeSeed, kProbeRounds, kProbeGrid, robust, FleetOptions(2),
        &digest);
    ExpectAccountingInvariant(report);
    EXPECT_EQ(digest, baseline);
    EXPECT_GE(report.robust.snapshots_written, 1u);
  }
  // Resume against the complete checkpoint: every task restores, no
  // worker computes anything, and the digest is still byte-identical.
  robust.resume = true;
  {
    std::string digest;
    const DistReport report = sim::ChaosProbeDistributed(
        kProbeSeed, kProbeRounds, kProbeGrid, robust, FleetOptions(2),
        &digest);
    ExpectAccountingInvariant(report);
    EXPECT_TRUE(report.robust.resumed);
    EXPECT_EQ(report.robust.tasks_restored, kProbeGrid.tasks());
    EXPECT_EQ(report.robust.tasks_ok, 0u);
    EXPECT_EQ(digest, baseline);
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(DistRunnerTest, PartialTornCheckpointResumesOnTheFleet) {
  sim::RegisterDistBodies();
  const std::string baseline = InProcessDigest();
  const std::string path = "dist_test_partial.ckpt";
  std::remove(path.c_str());
  RobustSweepOptions robust;
  robust.checkpoint_path = path;
  // A complete in-process checkpoint, cut down to tasks 1, 2, 5 and 6
  // with the last frame torn: the fleet must finish the other five.
  sim::ChaosProbeDistributed(kProbeSeed, kProbeRounds, kProbeGrid, robust,
                             FleetOptions(0));
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  const CheckpointDecodeResult full = DecodeCheckpoint(bytes);
  ASSERT_TRUE(full.ok);
  ASSERT_EQ(full.records.size(), kProbeGrid.tasks());
  std::vector<TaskRecord> kept;
  for (const TaskRecord& r : full.records) {
    if (r.index == 1 || r.index == 2 || r.index == 5 || r.index == 6) {
      kept.push_back(r);
    }
  }
  std::string partial = EncodeCheckpoint(full.header, kept);
  partial.resize(partial.size() - 3);
  ASSERT_TRUE(WriteFileAtomic(path, partial));

  ScopedEnv bin("FREERIDER_WORKER_BIN", DIST_SWEEP_WORKER);
  robust.resume = true;
  std::string digest;
  const DistReport report = sim::ChaosProbeDistributed(
      kProbeSeed, kProbeRounds, kProbeGrid, robust, FleetOptions(2), &digest);
  ExpectAccountingInvariant(report);
  EXPECT_TRUE(report.distributed);
  EXPECT_TRUE(report.robust.resumed);
  EXPECT_TRUE(report.robust.checkpoint_salvaged);
  EXPECT_EQ(report.robust.tasks_restored, 3u);  // task 6's frame was torn
  EXPECT_EQ(report.robust.tasks_ok, kProbeGrid.tasks() - 3);
  EXPECT_EQ(digest, baseline);
  // The final snapshot is whole again.
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  const CheckpointDecodeResult after = DecodeCheckpoint(bytes);
  EXPECT_TRUE(after.ok);
  EXPECT_FALSE(after.salvaged);
  EXPECT_EQ(after.records.size(), kProbeGrid.tasks());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ------------------------------------------------------ flag parser
//
// Parser only: an over-cap or malformed count is rejected before any
// worker could be spawned from it, so no fleet is ever launched here.

DistOptions ParseDistArgs(std::vector<std::string> args, bool* ok) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  return DistOptionsFromArgs(argc, argv.data(), ok);
}

TEST(DistOptionsTest, WorkerCountAboveTheCapIsAUsageError) {
  bool ok = true;
  ParseDistArgs({"prog", "--workers", std::to_string(kMaxWorkers)}, &ok);
  EXPECT_TRUE(ok);
  ParseDistArgs({"prog", "--workers", std::to_string(kMaxWorkers + 1)}, &ok);
  EXPECT_FALSE(ok);
  ok = true;
  ScopedEnv env("FREERIDER_WORKERS", "100000");
  ParseDistArgs({"prog"}, &ok);
  EXPECT_FALSE(ok);
}

TEST(DistOptionsTest, MalformedEnvironmentCountsAreUsageErrors) {
  for (const char* name : {"FREERIDER_WORKERS", "FREERIDER_DIST_RESPAWNS"}) {
    for (const char* value : {"-1", "abc", "3x", ""}) {
      ScopedEnv env(name, value);
      bool ok = true;
      ParseDistArgs({"prog"}, &ok);
      EXPECT_FALSE(ok) << name << "=" << value;
    }
  }
  ScopedEnv env("FREERIDER_DIST_RESPAWNS", "3");
  bool ok = true;
  EXPECT_EQ(ParseDistArgs({"prog"}, &ok).max_respawns, 3u);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace freerider::runtime::dist
