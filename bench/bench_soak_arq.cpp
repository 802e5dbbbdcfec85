// Chaos soak for the reliable tag-data transport (src/transport/).
//
// Drives the full-stack simulator for thousands of rounds under a
// randomized schedule of impairment mixes (regimes switch every couple
// hundred rounds) and checks the transport invariants every round: no
// duplicate delivery, no reordering, eventual delivery of everything
// offered, no stuck queue after the drain phase. The same schedule is
// then re-run with the transport disabled to show what the ARQ is
// actually buying: fire-and-forget demonstrably loses frames under the
// identical loss sequence.
//
// Any violated soak writes a self-contained replay record
// (soak_violation_<seed>.json) next to the results; tools/replay_soak
// re-runs it bit-for-bit. A deliberately broken configuration
// (max_transmissions=1 under heavy loss) exercises that pipeline on
// every run — the bench fails loudly if the record does not reproduce.
//
// Output: human tables on stdout plus machine-readable
// BENCH_soak_arq.json (TablePrinter::ToJson) for CI artifact
// collection.
//
//   bench_soak_arq [--rounds N] [--out-dir DIR] [--threads N]
//                  [--checkpoint PATH] [--resume [PATH]] [--watchdog-s X]
//
// Default 2000 chaos rounds (+drain); CI's sanitizer job uses fewer.
// The three acceptance seeds (and their legacy comparison runs) execute
// as a seed×{soak,legacy} task grid on the runtime executor; every
// table and digest is byte-identical at every --threads value — also
// across a SIGKILL + --resume cycle (each soak is a pure function of
// its config, and checkpoint payloads round-trip bit-exactly).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/cli.h"
#include "runtime/checkpoint.h"
#include "runtime/executor.h"
#include "runtime/recovery.h"
#include "sim/multitag.h"
#include "sim/soak.h"
#include "sim/sweep.h"

using namespace freerider;

namespace {

/// One randomized impairment regime. Severities stay inside the
/// transport's give-up envelope (~20% per-round frame loss) — the
/// acceptance bar is 100% eventual delivery, so offered stress must be
/// survivable by design.
impair::ImpairmentConfig DrawRegime(Rng& rng) {
  impair::ImpairmentConfig mix;
  switch (rng.NextBelow(5)) {
    case 0:  // clean
      break;
    case 1:  // excitation dropout
      mix.dropout.enabled = true;
      mix.dropout.dropout_probability = 0.05 + 0.15 * rng.NextDouble();
      mix.dropout.min_keep_fraction = 0.2;
      mix.dropout.max_keep_fraction = 0.8;
      break;
    case 2:  // interferer bursts
      mix.interferer.enabled = true;
      mix.interferer.burst_probability = 0.05 + 0.10 * rng.NextDouble();
      mix.interferer.burst_power_dbm = -72.0 - 6.0 * rng.NextDouble();
      break;
    case 3:  // receiver CFO + tag clock wobble
      mix.cfo.enabled = true;
      mix.cfo.cfo_hz = 500.0 * rng.NextDouble();
      mix.cfo.tag_clock_ppm = 500.0 * rng.NextDouble();
      break;
    default:  // dropout + interferer combined, both mild
      mix.dropout.enabled = true;
      mix.dropout.dropout_probability = 0.10;
      mix.dropout.min_keep_fraction = 0.3;
      mix.dropout.max_keep_fraction = 0.9;
      mix.interferer.enabled = true;
      mix.interferer.burst_probability = 0.08;
      mix.interferer.burst_power_dbm = -75.0;
      break;
  }
  return mix;
}

std::vector<sim::SoakSegment> DrawSchedule(std::uint64_t seed,
                                           std::size_t rounds) {
  Rng rng(seed ^ 0xC0FFEEull);
  std::vector<sim::SoakSegment> schedule;
  std::size_t start = 0;
  while (start < rounds) {
    sim::SoakSegment segment;
    segment.start_round = start;
    segment.impairments = DrawRegime(rng);
    schedule.push_back(segment);
    start += 100 + rng.NextBelow(150);
  }
  return schedule;
}

/// Count frames the legacy fire-and-forget stack loses under the same
/// schedule: every fired slot either decodes (raw frame) or is gone
/// forever — there is no retransmission to hide behind.
struct LegacyOutcome {
  std::size_t fired = 0;
  std::size_t received = 0;
};

LegacyOutcome RunLegacy(const sim::SoakConfig& soak) {
  sim::FullStackConfig config;
  config.num_tags = soak.num_tags;
  config.rounds = soak.rounds + soak.drain_rounds;
  config.reserve_impairment_stream = true;
  Rng rng(soak.seed);
  sim::FullStackSim sim(config, rng);
  LegacyOutcome outcome;
  std::size_t segment = 0;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    while (segment < soak.schedule.size() &&
           soak.schedule[segment].start_round <= round) {
      sim.SetImpairments(soak.schedule[segment].impairments);
      ++segment;
    }
    const sim::RoundReport report = sim.StepRound();
    outcome.fired += report.fired.size();
    outcome.received += report.raw_frames;
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  freerider::runtime::InitThreadsFromArgs(argc, argv);
  runtime::RobustSweepOptions robust =
      runtime::RobustOptionsFromArgs(argc, argv);
  std::size_t rounds = 2000;
  std::string out_dir = ".";
  bool args_ok = true;
  cli::ConsumeSize(argc, argv, "--rounds", &rounds, &args_ok);
  cli::ConsumeValue(argc, argv, "--out-dir", &out_dir);
  if (!args_ok) return cli::kUsageError;
  if (const int rc = cli::RejectUnknownArgs(
          argc, argv,
          "bench_soak_arq [--rounds N] [--out-dir DIR] [--threads N]"
          " [--checkpoint PATH] [--resume [PATH]] [--watchdog-s X]")) {
    return rc;
  }

  std::printf("=== Chaos soak: selective-repeat ARQ under impairment "
              "schedules ===\n");
  std::printf("%zu chaos rounds + drain, 4 tags, regime changes every "
              "100-250 rounds\n\n",
              rounds);

  sim::TablePrinter table({"seed", "segments", "offered", "delivered",
                           "retx", "escalations", "dup", "expired", "holes",
                           "violations", "legacy fired", "legacy rx",
                           "legacy lost"});
  const std::uint64_t seeds[] = {2026ull, 4242ull, 9001ull};
  const std::size_t num_seeds = sizeof seeds / sizeof seeds[0];
  std::vector<sim::SoakConfig> soaks(num_seeds);
  for (std::size_t i = 0; i < num_seeds; ++i) {
    sim::SoakConfig& soak = soaks[i];
    soak.seed = seeds[i];
    soak.num_tags = 4;
    soak.rounds = rounds;
    soak.drain_rounds = 400;
    // Offered load below the collision-limited channel capacity, and
    // give-up caps out of reach: the acceptance bar is 100% eventual
    // delivery, so the transport must never be configured to quit
    // before the loss schedule relents (the self-check below covers
    // the give-up path).
    soak.offer_every = 4;
    soak.transport.max_transmissions = 64;
    soak.transport.expiry_rounds = 1 << 20;
    soak.transport.hole_skip_rounds = 1 << 20;
    soak.schedule = DrawSchedule(seeds[i], rounds);
  }

  // seed×{soak, legacy} grid: trial 0 runs the ARQ soak, trial 1 the
  // fire-and-forget comparison under the identical schedule. Both are
  // pure functions of the config, so any interleaving is safe — and
  // both checkpoint/restore bit-exactly (SerializeSoakResult carries
  // the full stats + digest; a legacy outcome is two counters).
  std::vector<sim::SoakResult> results(num_seeds);
  std::vector<LegacyOutcome> legacy_outcomes(num_seeds);
  robust.campaign = runtime::CampaignId("soak_arq", rounds);
  runtime::RecoveryRunner runner(runtime::DefaultExecutor(), robust);
  const runtime::RobustSweepReport report = runner.Run(
      {num_seeds, 2},
      [&](std::size_t p, std::size_t t) {
        runtime::RobustTaskResult out;
        if (t == 0) {
          results[p] = sim::RunSoak(soaks[p]);
          out.payload = sim::SerializeSoakResult(results[p]);
        } else {
          legacy_outcomes[p] = RunLegacy(soaks[p]);
          runtime::PayloadWriter w;
          w.U64(legacy_outcomes[p].fired);
          w.U64(legacy_outcomes[p].received);
          out.payload = w.Take();
        }
        return out;
      },
      [&](std::size_t p, std::size_t t, const std::string& payload) {
        if (t == 0) return sim::DeserializeSoakResult(payload, &results[p]);
        runtime::PayloadReader r(payload);
        std::uint64_t fired = 0;
        std::uint64_t received = 0;
        if (!r.U64(fired) || !r.U64(received) || !r.AtEnd()) return false;
        legacy_outcomes[p].fired = static_cast<std::size_t>(fired);
        legacy_outcomes[p].received = static_cast<std::size_t>(received);
        return true;
      });

  bool all_passed = true;
  for (std::size_t i = 0; i < num_seeds; ++i) {
    const sim::SoakResult& result = results[i];
    const LegacyOutcome& legacy = legacy_outcomes[i];
    const sim::FullStackStats& s = result.stats;
    table.AddRow({std::to_string(seeds[i]),
                  std::to_string(soaks[i].schedule.size()),
                  std::to_string(s.transport_offered),
                  std::to_string(s.transport_delivered),
                  std::to_string(s.transport_retransmissions),
                  std::to_string(s.transport_escalations),
                  std::to_string(s.transport_duplicates),
                  std::to_string(s.transport_expired),
                  std::to_string(s.transport_holes_skipped),
                  std::to_string(result.violations.total()),
                  std::to_string(legacy.fired),
                  std::to_string(legacy.received),
                  std::to_string(legacy.fired - legacy.received)});
    if (!result.passed) {
      all_passed = false;
      const std::string path =
          out_dir + "/soak_violation_" + std::to_string(seeds[i]) + ".json";
      bench::WriteTextFile(path, sim::SoakReplayJson(soaks[i], result));
      std::printf("VIOLATION (seed %llu): replay record written to %s\n",
                  static_cast<unsigned long long>(seeds[i]), path.c_str());
      for (const sim::CampaignViolation& v : result.violations.records()) {
        std::printf("  round %zu: %s %s\n", v.round, v.kind.c_str(),
                    v.detail.c_str());
      }
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  // Replay pipeline self-check: a config engineered to violate
  // (single transmission, no retries, heavy loss) must fail, and its
  // record must reproduce the identical failure bit-for-bit.
  std::printf("=== Replay self-check: deliberate give-up violation ===\n");
  sim::SoakConfig broken;
  broken.seed = 77;
  broken.num_tags = 3;
  broken.rounds = 150;
  broken.drain_rounds = 100;
  broken.offer_every = 2;
  broken.transport.max_transmissions = 1;
  broken.transport.rto_rounds = 1;
  sim::SoakSegment harsh;
  harsh.start_round = 0;
  harsh.impairments.dropout.enabled = true;
  harsh.impairments.dropout.dropout_probability = 0.5;
  harsh.impairments.dropout.min_keep_fraction = 0.1;
  harsh.impairments.dropout.max_keep_fraction = 0.5;
  broken.schedule = {harsh};
  const sim::SoakResult broken_result = sim::RunSoak(broken);
  const std::string record = sim::SoakReplayJson(broken, broken_result);
  const std::string record_path = out_dir + "/soak_replay_selfcheck.json";
  bench::WriteTextFile(record_path, record);
  bool replay_ok = false;
  if (const auto replay = sim::ParseSoakReplay(record)) {
    const sim::SoakResult again = sim::RunSoak(replay->config);
    replay_ok = !broken_result.passed &&
                again.digest == broken_result.digest &&
                replay->expect_digest == broken_result.digest;
  }
  std::printf("deliberate violations=%zu, record=%s, reproduces=%s\n\n",
              broken_result.violations.total(), record_path.c_str(),
              replay_ok ? "bit-for-bit" : "NO (BUG)");

  sim::TablePrinter verdict({"check", "result"});
  verdict.AddRow({"soak invariants", all_passed ? "pass" : "VIOLATED"});
  verdict.AddRow({"replay self-check", replay_ok ? "pass" : "FAIL"});
  std::printf("%s\n", verdict.ToString().c_str());
  bench::WriteTextFile(out_dir + "/BENCH_soak_arq.json", table.ToJson("soak_arq") +
                                                  verdict.ToJson("verdict"));
  bench::WriteTextFile(out_dir + "/TIMING_soak_arq.json",
            report.SummaryJson("soak_arq"));
  std::fprintf(stderr, "[runtime] %s", report.SummaryJson("soak_arq").c_str());
  std::printf(
      "Reading: under regime-switching loss the ARQ delivers everything it\n"
      "accepted (zero duplicates, zero reorders) by retransmitting and\n"
      "escalating redundancy, while fire-and-forget loses every frame that\n"
      "collides or lands in a faulted slot.\n");
  return (all_passed && replay_ok) ? 0 : 1;
}
