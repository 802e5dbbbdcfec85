// Unified CLI argument validation for the bench/ and tools/ entry
// points.
//
// The historical pattern — each binary running its own partial flag
// loop — silently ignored anything it did not recognise, so a typo
// (`--thread 8`, `--rounds=100` on a binary that wanted `--rounds
// 100`) produced a *default* run that looked like the requested one.
// For benches whose entire value is comparability, a silently-wrong
// run is worse than no run.
//
// The contract every entry point now follows:
//   1. consume known flags with the Consume* helpers (or the runtime's
//      compacting parsers — runtime::InitThreadsFromArgs etc., which
//      consume through them); a malformed value clears the caller's
//      `ok` and the binary exits with kUsageError, naming the flag;
//   2. call RejectUnknownArgs(argc, argv, usage) exactly once, after
//      all consumers: anything still in argv is unknown, and the
//      binary prints the offending argument + its usage line to
//      stderr and exits with kUsageError (2) — never a silent default.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace freerider::cli {

/// Exit code for bad invocations, shared by every entry point.
inline constexpr int kUsageError = 2;

/// Consume `--name VALUE` or `--name=VALUE` from argv (compacting it).
/// Returns true when the flag was present and a value captured.
inline bool ConsumeValue(int& argc, char** argv, const char* name,
                         std::string* value) {
  const std::size_t name_len = std::strlen(name);
  bool found = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      *value = argv[++i];
      found = true;
    } else if (std::strncmp(argv[i], name, name_len) == 0 &&
               argv[i][name_len] == '=') {
      *value = argv[i] + name_len + 1;
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return found;
}

/// Reports a present-but-unparsable flag value: a usage error,
/// reported like an unknown flag (return via *ok).
inline bool RejectValue(const char* name, const char* expects,
                        const std::string& raw, bool* ok) {
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", name, expects,
               raw.c_str());
  *ok = false;
  return false;
}

/// Parse an unsigned decimal integer, the rule of every unsigned flag
/// and environment variable. strtoull alone would read "-1" as
/// 2^64-1, so the value must start with a digit and fit. A malformed
/// value is rejected (see RejectValue) and leaves *value untouched.
inline bool ParseSize(const char* name, const std::string& raw,
                      std::size_t* value, bool* ok) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(raw.c_str(), &end, 10);
  if (raw[0] < '0' || raw[0] > '9' || *end != '\0' || errno == ERANGE) {
    return RejectValue(name, "an unsigned integer", raw, ok);
  }
  *value = static_cast<std::size_t>(parsed);
  return true;
}

/// Consume an unsigned decimal integer flag (ParseSize's rule).
inline bool ConsumeSize(int& argc, char** argv, const char* name,
                        std::size_t* value, bool* ok) {
  std::string raw;
  if (!ConsumeValue(argc, argv, name, &raw)) return false;
  return ParseSize(name, raw, value, ok);
}

/// Parse a finite floating-point number, the rule of every float flag
/// and environment variable: strtod must read the whole value, and an
/// infinity or NaN is refused. A malformed value is rejected (see
/// RejectValue) and leaves *value untouched.
inline bool ParseDouble(const char* name, const std::string& raw,
                        double* value, bool* ok) {
  char* end = nullptr;
  const double parsed = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    return RejectValue(name, "a finite number", raw, ok);
  }
  *value = parsed;
  return true;
}

/// Consume a finite floating-point flag (ParseDouble's rule).
inline bool ConsumeDouble(int& argc, char** argv, const char* name,
                          double* value, bool* ok) {
  std::string raw;
  if (!ConsumeValue(argc, argv, name, &raw)) return false;
  return ParseDouble(name, raw, value, ok);
}

inline bool ConsumeU64(int& argc, char** argv, const char* name,
                       std::uint64_t* value, bool* ok) {
  std::size_t v = 0;
  const bool found = ConsumeSize(argc, argv, name, &v, ok);
  if (found) *value = v;
  return found;
}

/// The environment fallback of an unsigned flag: `fallback` when
/// unset; a malformed value (ParseSize's rule) clears `*ok`, naming the
/// variable, and yields `fallback`.
inline std::size_t EnvSize(const char* name, std::size_t fallback, bool* ok) {
  const char* env = std::getenv(name);
  std::size_t value = fallback;
  if (env != nullptr) ParseSize(name, env, &value, ok);
  return value;
}

/// The environment fallback of a float flag: `fallback` when unset; a
/// malformed value (ParseDouble's rule) clears `*ok`, naming the
/// variable, and yields `fallback`.
inline double EnvDouble(const char* name, double fallback, bool* ok) {
  const char* env = std::getenv(name);
  double value = fallback;
  if (env != nullptr) ParseDouble(name, env, &value, ok);
  return value;
}

/// EnvDouble for a quantity that must be positive (a timeout, an
/// interval): zero or a negative value is rejected like a malformed
/// one and yields `fallback`.
inline double EnvPositiveDouble(const char* name, double fallback, bool* ok) {
  const char* env = std::getenv(name);
  double value = fallback;
  if (env != nullptr && ParseDouble(name, env, &value, ok) && !(value > 0.0)) {
    RejectValue(name, "a positive number", env, ok);
    value = fallback;
  }
  return value;
}

/// Reject a parsed count above `cap`: a usage error raised before
/// anything is sized from it.
inline bool RejectAboveCap(const char* name, std::size_t value,
                           std::size_t cap, bool* ok) {
  if (value <= cap) return true;
  std::fprintf(stderr, "error: %s is %zu, above the cap of %zu\n", name,
               value, cap);
  *ok = false;
  return false;
}

/// Consume a bare `--name` switch from argv (compacting it).
inline bool ConsumeFlag(int& argc, char** argv, const char* name) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return found;
}

/// The terminal validation step: after every known-flag consumer has
/// compacted argv, anything left is unknown. Returns 0 when argv is
/// clean; otherwise prints the first offender and the usage line to
/// stderr and returns kUsageError for main() to propagate.
inline int RejectUnknownArgs(int argc, char** argv, const char* usage) {
  if (argc <= 1) return 0;
  std::fprintf(stderr, "error: unknown argument '%s'\n", argv[1]);
  std::fprintf(stderr, "usage: %s\n", usage);
  return kUsageError;
}

/// RejectUnknownArgs for a tool that takes exactly one operand: a
/// flag-like leftover is unknown, and a missing or extra operand is a
/// usage error too.
inline int RejectUnlessOneOperand(int argc, char** argv, const char* usage) {
  if (argc >= 2 && argv[1][0] == '-') {
    return RejectUnknownArgs(argc, argv, usage);
  }
  if (argc == 2) return 0;
  std::fprintf(stderr, "usage: %s\n", usage);
  return kUsageError;
}

}  // namespace freerider::cli
