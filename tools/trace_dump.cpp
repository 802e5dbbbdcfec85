// Inspect, filter and round-trip flight-recorder trace files.
//
// Campaign benches export their flight recordings as TRACE_<slug>.bin
// (obs binary codec, see src/obs/trace.h). This CLI decodes one,
// applies the optional query filters, and re-emits it:
//
//   trace_dump TRACE_x.bin                         # JSONL to stdout
//   trace_dump --kind frame_tx --tag 3 TRACE_x.bin # filtered JSONL
//   trace_dump --from-round 100 --to-round 200 TRACE_x.bin
//   trace_dump --bin out.bin TRACE_x.bin           # re-encode (binary)
//   trace_dump --summary TRACE_x.bin               # per-ring counts
//
// `trace_dump --bin out.bin in.bin` with no filters is the round-trip
// check CI leans on: out.bin must equal in.bin byte-for-byte, because
// decode restores the rings exactly (including drop counts). A torn or
// corrupted file decodes to its longest valid prefix; the dropped-byte
// count goes to stderr and the exit code stays 0 — salvage is the
// feature, not an error. A file whose first header is unreadable is an
// error (exit 2).
//
// Exit codes: 0 = decoded (possibly salvaged), 2 = unreadable input /
// usage error.
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "obs/trace.h"
#include "runtime/checkpoint.h"

using namespace freerider;

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "trace_dump [--kind NAME] [--tag N] [--from-round N] [--to-round N] "
      "[--summary] [--bin PATH] <trace.bin>";

  obs::TraceQuery query;
  std::string kind_name;
  std::size_t tag = 0;
  std::size_t from_round = 0;
  std::size_t to_round = 0;
  std::string bin_out;
  bool args_ok = true;
  const bool have_kind = cli::ConsumeValue(argc, argv, "--kind", &kind_name);
  const bool have_tag = cli::ConsumeSize(argc, argv, "--tag", &tag, &args_ok);
  const bool have_from =
      cli::ConsumeSize(argc, argv, "--from-round", &from_round, &args_ok);
  const bool have_to =
      cli::ConsumeSize(argc, argv, "--to-round", &to_round, &args_ok);
  const bool summary = cli::ConsumeFlag(argc, argv, "--summary");
  cli::ConsumeValue(argc, argv, "--bin", &bin_out);
  if (!args_ok) return cli::kUsageError;
  if (const int rc = cli::RejectUnlessOneOperand(argc, argv, kUsage)) {
    return rc;
  }
  if (have_kind) {
    query.kind = obs::EventKindFromName(kind_name);
    if (query.kind < 0) {
      std::fprintf(stderr, "trace_dump: unknown event kind '%s'\n",
                   kind_name.c_str());
      return cli::kUsageError;
    }
  }
  if (have_tag) query.tag = static_cast<int>(tag);
  if (have_from) query.from_round = static_cast<std::uint32_t>(from_round);
  if (have_to) query.to_round = static_cast<std::uint32_t>(to_round);

  const char* path = argv[1];
  std::string bytes;
  if (!runtime::ReadFileBytes(path, &bytes)) {
    std::fprintf(stderr, "trace_dump: cannot read %s\n", path);
    return 2;
  }

  const obs::TraceDecodeResult decoded = obs::DecodeTraces(bytes);
  if (!decoded.ok) {
    std::fprintf(stderr, "trace_dump: %s: %s\n", path,
                 decoded.error.c_str());
    return 2;
  }
  if (decoded.salvaged) {
    std::fprintf(stderr,
                 "trace_dump: %s: salvaged — %zu trailing byte(s) dropped\n",
                 path, decoded.dropped_bytes);
  }

  if (!bin_out.empty() && !runtime::WriteFileAtomic(
                              bin_out, obs::SerializeTraces(decoded.traces))) {
    std::fprintf(stderr, "trace_dump: cannot write %s\n", bin_out.c_str());
    return 2;
  }

  if (summary) {
    for (const obs::NamedTrace& t : decoded.traces) {
      std::size_t matched = 0;
      for (const obs::TraceEvent& e : t.ring.Events()) {
        if (Matches(query, e)) ++matched;
      }
      std::printf("%s: events=%zu recorded=%llu dropped=%llu matched=%zu\n",
                  t.name.c_str(), t.ring.size(),
                  static_cast<unsigned long long>(t.ring.recorded()),
                  static_cast<unsigned long long>(t.ring.dropped()), matched);
    }
  } else if (bin_out.empty()) {
    const std::string jsonl = obs::TracesToJsonl(decoded.traces, query);
    std::fwrite(jsonl.data(), 1, jsonl.size(), stdout);
  }
  return 0;
}
