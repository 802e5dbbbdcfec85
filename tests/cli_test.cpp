// Unified CLI contract across tools/ and bench/ (common/cli.h): every
// binary rejects an unknown flag with exit code 2 and prints its usage
// line to stderr — no tool silently ignores a typo'd flag and burns an
// hour of compute on the wrong configuration.
//
// Binary paths are injected by CMake as compile definitions
// ($<TARGET_FILE:...>), so the test exercises the real executables.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string stderr_text;
};

CliResult RunCli(const std::string& binary, const std::string& args) {
  // Unique per test process: ctest -jN runs the cases in parallel and a
  // shared path would interleave their captures.
  const std::string err_path = testing::TempDir() + "cli_test_stderr." +
                               std::to_string(::getpid()) + ".txt";
  const std::string command =
      binary + " " + args + " >/dev/null 2>" + err_path;
  const int raw = std::system(command.c_str());
  CliResult result;
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(err_path);
  std::ostringstream text;
  text << in.rdbuf();
  result.stderr_text = text.str();
  std::remove(err_path.c_str());
  return result;
}

// A scratch file unique to this test process (ctest -jN runs the cases
// in parallel).
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "cli_test_" + std::to_string(::getpid()) +
         "_" + name;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

// The usage line `binary` prints after an unknown flag.
std::string UsageOf(const std::string& binary) {
  const std::string text =
      RunCli(binary, "--definitely-not-a-flag").stderr_text;
  const std::size_t at = text.find("usage: ");
  if (at == std::string::npos) return "";
  return text.substr(at + 7, text.find('\n', at) - at - 7);
}

// Each flag a usage line lists, followed by " 1" when it takes a value
// (`[--threads N]`, `--metrics FILE`); a switch or an optional value
// (`[--resume [PATH]]`) stands alone. Forms written `--x=...` are the
// worker handshake, not user flags, and are skipped.
std::vector<std::string> FlagsOf(const std::string& usage) {
  std::istringstream in(usage);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  std::vector<std::string> flags;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::string flag = tokens[i];
    flag.erase(0, flag.find_first_not_of('['));
    flag.erase(flag.find_last_not_of(']') + 1);
    if (flag.rfind("--", 0) != 0 || flag.find('=') != std::string::npos) {
      continue;
    }
    const std::string next = i + 1 < tokens.size() ? tokens[i + 1] : "";
    const bool takes_value = !next.empty() && next[0] != '[' &&
                             next[0] != '<' && next[0] != '-' && next != "|";
    flags.push_back(takes_value ? flag + " 1" : flag);
  }
  return flags;
}

// Every bench/ and tools/ entry point, injected by CMake as one
// '|'-joined list so a binary added to the build is swept here
// automatically (tests/CMakeLists.txt appends it to CLI_SWEPT_TARGETS
// in the same edit that adds the target).
std::vector<std::string> AllBinaries() {
  std::vector<std::string> binaries;
  std::istringstream in(CLI_ALL_BINARIES);
  std::string entry;
  while (std::getline(in, entry, '|')) {
    if (!entry.empty()) binaries.push_back(entry);
  }
  return binaries;
}

}  // namespace

TEST(CliContractTest, UnknownFlagExitsTwoWithUsageOnStderr) {
  const std::vector<std::string> binaries = AllBinaries();
  // Guard against the list silently collapsing (a bad generator
  // expression would yield one garbled entry, and the loop below would
  // "pass" on nothing).
  ASSERT_GE(binaries.size(), 32u);
  for (const std::string& binary : binaries) {
    const CliResult result = RunCli(binary, "--definitely-not-a-flag");
    EXPECT_EQ(result.exit_code, 2) << binary;
    EXPECT_NE(result.stderr_text.find("usage:"), std::string::npos)
        << binary << " stderr: " << result.stderr_text;
    EXPECT_NE(result.stderr_text.find("--definitely-not-a-flag"),
              std::string::npos)
        << binary << " stderr: " << result.stderr_text;
  }
}

TEST(CliContractTest, MicroPhyRejectsUnknownFlagAfterBenchmarkInit) {
  // bench_micro_phy routes argv through benchmark::Initialize first;
  // google-benchmark's own flags stay valid, anything else still hits
  // the shared rejection path.
  const CliResult result = RunCli(CLI_BENCH_MICRO_PHY, "--definitely-not-a-flag");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("usage:"), std::string::npos)
      << result.stderr_text;
}

TEST(CliContractTest, UnknownFlagRejectedEvenAfterKnownFlags) {
  // A known flag must not mask a later unknown one.
  const CliResult result =
      RunCli(CLI_BENCH_STRESS_SUPERVISOR, "--rounds 600 --oops");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("usage:"), std::string::npos);
  EXPECT_NE(result.stderr_text.find("--oops"), std::string::npos);
}

TEST(CliContractTest, MalformedNumericValueExitsTwo) {
  const CliResult result =
      RunCli(CLI_BENCH_STRESS_SUPERVISOR, "--rounds banana");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_FALSE(result.stderr_text.empty());
}

TEST(CliContractTest, ReplaySoakWithoutJournalPrintsUsage) {
  const CliResult result = RunCli(CLI_REPLAY_SOAK, "");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("usage:"), std::string::npos);
}

TEST(CliContractTest, EveryFlagAUsageLineListsIsParsed) {
  // Given a listed flag plus an unknown one, a binary must reject only
  // the unknown one: a usage line that advertises a flag the binary
  // does not parse sends the user from one usage error to the next.
  std::size_t swept = 0;
  for (const std::string& binary : AllBinaries()) {
    const std::string usage = UsageOf(binary);
    ASSERT_FALSE(usage.empty()) << binary;
    for (const std::string& flag : FlagsOf(usage)) {
      const CliResult result =
          RunCli(binary, flag + " --definitely-not-a-flag");
      EXPECT_EQ(result.exit_code, 2) << binary << " " << flag;
      EXPECT_NE(result.stderr_text.find(
                    "unknown argument '--definitely-not-a-flag'"),
                std::string::npos)
          << binary << " " << flag << " stderr: " << result.stderr_text;
      ++swept;
    }
  }
  // Guard against the usage parse collapsing to nothing.
  EXPECT_GE(swept, 60u);
}

// A malformed value of a runtime flag is a usage error that names the
// flag and the value, never a run with the default.
void ExpectMalformedValueRejected(const char* binary, const char* flag,
                                  const char* value) {
  const std::string args = std::string(flag) + " " + value +
                           " --out-dir " + testing::TempDir();
  const CliResult result = RunCli(binary, args);
  EXPECT_EQ(result.exit_code, 2) << args;
  EXPECT_NE(result.stderr_text.find(flag), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find(std::string("'") + value + "'"),
            std::string::npos)
      << result.stderr_text;
}

TEST(CliContractTest, MalformedThreadsValueExitsTwo) {
  ExpectMalformedValueRejected(CLI_BENCH_FIG12, "--threads", "abc");
}

TEST(CliContractTest, MalformedCheckpointEveryValueExitsTwo) {
  ExpectMalformedValueRejected(CLI_BENCH_FIG12, "--checkpoint-every", "4x");
}

TEST(CliContractTest, MalformedWatchdogValueExitsTwo) {
  ExpectMalformedValueRejected(CLI_BENCH_FIG12, "--watchdog-s", "xyz");
}

TEST(CliContractTest, MalformedWorkersValueExitsTwo) {
  ExpectMalformedValueRejected(CLI_BENCH_FIG14, "--workers", "two");
}

// An environment fallback follows its flag's parse rule: a malformed
// FREERIDER_THREADS is a usage error naming the variable, never a run
// on every core (`abc`) or a huge thread count (`-1`).
void ExpectMalformedEnvRejected(const char* binary, const char* name,
                                const char* value) {
  const std::string env = std::string(name) + "='" + value + "' ";
  const CliResult result =
      RunCli(env + binary, "--out-dir " + testing::TempDir());
  EXPECT_EQ(result.exit_code, 2) << env;
  EXPECT_NE(result.stderr_text.find(name), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find(std::string("'") + value + "'"),
            std::string::npos)
      << result.stderr_text;
}

TEST(CliContractTest, NegativeThreadsEnvExitsTwo) {
  ExpectMalformedEnvRejected(CLI_BENCH_FIG15, "FREERIDER_THREADS", "-1");
}

TEST(CliContractTest, NonNumericThreadsEnvExitsTwo) {
  ExpectMalformedEnvRejected(CLI_BENCH_FIG15, "FREERIDER_THREADS", "abc");
}

// The float variables follow --watchdog-s's rule (cli::ParseDouble): a
// malformed FREERIDER_WATCHDOG_S is a usage error, never a run with the
// watchdog silently off, and a FREERIDER_DIST_*_S time must also be
// positive.
TEST(CliContractTest, MalformedFloatEnvExitsTwo) {
  ExpectMalformedEnvRejected(CLI_BENCH_FIG12, "FREERIDER_WATCHDOG_S", "abc");
  ExpectMalformedEnvRejected(CLI_BENCH_FIG14, "FREERIDER_DIST_LEASE_S", "20s");
  ExpectMalformedEnvRejected(CLI_BENCH_FIG14, "FREERIDER_DIST_SPAWN_GRACE_S",
                             "inf");
  ExpectMalformedEnvRejected(CLI_BENCH_FIG14, "FREERIDER_DIST_SPECULATE_S",
                             "0");
}

TEST(CliContractTest, MetricsCheckReadsEachEntryOnItsOwn) {
  // The gate reads `a`; its neighbour `b` carries a value a substring
  // scan could borrow.
  const std::string thresholds = TempPath("gate.thresholds");
  const std::string metrics = TempPath("METRICS.json");
  WriteText(thresholds, "a >= 2000\n");
  const auto run = [&](const std::string& a_entry) {
    WriteText(metrics, "{\"metrics\":\"x\",\"values\":[" + a_entry +
                           ",{\"name\":\"b\",\"kind\":\"counter\","
                           "\"value\":5000}]}\n");
    return RunCli(CLI_METRICS_CHECK,
                  "--metrics " + metrics + " --thresholds " + thresholds);
  };
  EXPECT_EQ(run(R"({"name":"a","kind":"counter","value":2500})").exit_code,
            0);
  EXPECT_EQ(run(R"({"name":"a","kind":"counter","value":100})").exit_code,
            1);
  // A missing field, a field of the wrong kind and a non-finite value
  // are unreadable METRICS, not a value to gate on.
  for (const char* entry :
       {R"({"name":"a","kind":"counter"})",
        R"({"name":"a","kind":"counter","value":"5000"})",
        R"({"name":"a","kind":"gauge","value":1e999})",
        R"({"name":"a","kind":"histogram","count":1,"sum":5,"min":5})"}) {
    const CliResult result = run(entry);
    EXPECT_EQ(result.exit_code, 2) << entry;
    EXPECT_NE(result.stderr_text.find("'a'"), std::string::npos)
        << entry << " stderr: " << result.stderr_text;
  }
  std::remove(thresholds.c_str());
  std::remove(metrics.c_str());
}

TEST(CliContractTest, MetricsCheckRefusesANonFiniteBound) {
  // `a <= inf` would pass every value: a gate that no longer gates.
  const std::string thresholds = TempPath("inf.thresholds");
  const std::string metrics = TempPath("METRICS.json");
  WriteText(metrics,
            R"({"metrics":"x","values":[{"name":"a","kind":"counter",)"
            R"("value":5000}]})");
  for (const char* gate : {"a <= inf\n", "a >= nan\n", "a <= 1e999\n"}) {
    WriteText(thresholds, gate);
    const CliResult result =
        RunCli(CLI_METRICS_CHECK,
               "--metrics " + metrics + " --thresholds " + thresholds);
    EXPECT_EQ(result.exit_code, 2) << gate;
    EXPECT_NE(result.stderr_text.find("bad number"), std::string::npos)
        << gate << " stderr: " << result.stderr_text;
  }
  std::remove(thresholds.c_str());
  std::remove(metrics.c_str());
}
