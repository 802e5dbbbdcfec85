// Re-run a chaos-soak replay record and verify it reproduces.
//
// A soak failure is only a finding if it reproduces, so the harness
// (sim/soak.h) writes self-contained JSON records — config, impairment
// schedule, seed, and the outcome digest of the original run. This CLI
// re-executes a record and compares digests byte-for-byte:
//
//   replay_soak record.json            # re-run, verify digest
//   replay_soak --print record.json    # also dump the digest
//
// Exit codes: 0 = reproduced bit-for-bit, 1 = digest mismatch
// (non-determinism — itself a bug), 2 = unreadable/malformed record.
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "runtime/checkpoint.h"
#include "sim/soak.h"

using namespace freerider;

int main(int argc, char** argv) {
  constexpr const char* kUsage = "replay_soak [--print] <record.json>";
  const bool print = cli::ConsumeFlag(argc, argv, "--print");
  // Exactly one positional (the record path) may remain.
  if (const int rc = cli::RejectUnlessOneOperand(argc, argv, kUsage)) {
    return rc;
  }
  const char* path = argv[1];

  std::string record;
  if (!runtime::ReadFileBytes(path, &record)) {
    std::fprintf(stderr, "replay_soak: cannot read %s\n", path);
    return 2;
  }

  std::string parse_error;
  const auto replay = sim::ParseSoakReplay(record, &parse_error);
  if (!replay.has_value()) {
    std::fprintf(stderr, "replay_soak: %s is not a valid replay record: %s\n",
                 path, parse_error.c_str());
    return 2;
  }

  std::printf("replaying seed=%llu tags=%zu rounds=%zu+%zu segments=%zu\n",
              static_cast<unsigned long long>(replay->config.seed),
              replay->config.num_tags, replay->config.rounds,
              replay->config.drain_rounds, replay->config.schedule.size());
  const sim::SoakResult result = sim::RunSoak(replay->config);
  if (print) {
    std::printf("--- digest ---\n%s--------------\n", result.digest.c_str());
  }
  std::printf("replay: passed=%s violations=%zu\n",
              result.passed ? "yes" : "no", result.violations.total());

  if (replay->expect_digest.empty()) {
    std::printf("record carries no digest; nothing to verify\n");
    return 0;
  }
  if (result.digest == replay->expect_digest) {
    std::printf("digest match: the record reproduces bit-for-bit\n");
    return 0;
  }
  std::printf("DIGEST MISMATCH: replay diverged from the record\n");
  return 1;
}
