// Declarative threshold gate over METRICS_<slug>.json artifacts.
//
// CI jobs byte-diff METRICS files for determinism; this tool adds the
// *semantic* gate: a plain-text threshold table, one assertion per
// line, checked against the merged metric values. Keeping the
// thresholds in data (tools/thresholds/*.thresholds) instead of shell
// arithmetic means the gated quantities and their bounds are reviewed
// in one place and the CI step is a single invocation.
//
//   metrics_check --metrics METRICS_x.json --thresholds FILE [--verbose]
//
// Threshold grammar (one check per line; '#' starts a comment):
//
//   <selector> <op> <number>
//
// where <op> is one of  >=  <=  >  <  ==  !=  and <selector> is a
// metric name, optionally suffixed for histograms:
//
//   stress.delivered.on >= 2000          # counter total / gauge value
//   stress.delivery_permille.on:min >= 950   # histogram min
//   latency:max <= 4096                  # histogram max
//   latency:count == 3                   # histogram sample count
//   latency:mean <= 100.5                # histogram sum/count
//
// A selector that names no metric in the file fails the run (a gate
// that silently stops gating is the worst kind of green), and a METRICS
// entry without a field its kind needs, or with a non-finite one, is a
// parse error.
// Exit: 0 all checks pass, 1 any check fails, 2 usage/parse error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/table.h"
#include "runtime/checkpoint.h"

using namespace freerider;

namespace {

/// Addressable fields: "" (counter/gauge value), "count", "sum", "min",
/// "max", "mean".
using MetricValues = std::map<std::string, double>;

/// Reads obs::MetricsToJson's document through the strict common/json
/// parser. Every entry needs a name, a known kind and that kind's
/// fields as finite numbers; anything else is a parse error, never a
/// value borrowed from a neighbouring entry.
bool ParseMetricsJson(const std::string& text,
                      std::map<std::string, MetricValues>* out,
                      std::string* error) {
  JsonValue root;
  if (!ParseJson(text, &root, error)) return false;
  const JsonValue* entries = root.Find("values");
  if (!entries || entries->kind != JsonValue::Kind::kArray) {
    *error = "no \"values\" array (is this a METRICS_*.json?)";
    return false;
  }
  for (const JsonValue& entry : entries->items) {
    const JsonValue* name = entry.Find("name");
    const JsonValue* kind = entry.Find("kind");
    if (!name || !kind || name->kind != JsonValue::Kind::kString ||
        kind->kind != JsonValue::Kind::kString) {
      *error = "metric entry without a string name and kind";
      return false;
    }
    MetricValues values;
    const auto read = [&](const char* key, const char* field) {
      const JsonValue* v = entry.Find(key);
      const double x = v && v->kind == JsonValue::Kind::kNumber
                           ? std::strtod(v->raw.c_str(), nullptr)
                           : NAN;
      if (!std::isfinite(x)) {
        *error = "metric '" + name->raw + "' has no finite \"" + key + "\"";
        return false;
      }
      values[field] = x;
      return true;
    };
    if (kind->raw == "counter" || kind->raw == "gauge") {
      if (!read("value", "")) return false;
    } else if (kind->raw == "histogram") {
      for (const char* key : {"count", "sum", "min", "max"}) {
        if (!read(key, key)) return false;
      }
      const double count = values["count"];
      values["mean"] = count > 0 ? values["sum"] / count : 0.0;
    } else {
      *error = "metric '" + name->raw + "' has unknown kind '" + kind->raw +
               "'";
      return false;
    }
    if (!out->emplace(name->raw, std::move(values)).second) {
      *error = "duplicate metric '" + name->raw + "'";
      return false;
    }
  }
  if (out->empty()) {
    *error = "no metrics parsed";
    return false;
  }
  return true;
}

struct Check {
  std::string selector;  ///< name or name:field
  std::string op;
  double bound = 0.0;
  std::size_t line = 0;
};

bool ParseThresholds(const std::string& path, std::vector<Check>* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    Check check;
    std::string bound;
    if (!(fields >> check.selector)) continue;  // blank / comment-only
    if (!(fields >> check.op >> bound)) {
      *error = path + ":" + std::to_string(lineno) +
               ": expected '<selector> <op> <number>'";
      return false;
    }
    std::string extra;
    if (fields >> extra) {
      *error = path + ":" + std::to_string(lineno) + ": trailing '" + extra +
               "'";
      return false;
    }
    if (check.op != ">=" && check.op != "<=" && check.op != ">" &&
        check.op != "<" && check.op != "==" && check.op != "!=") {
      *error = path + ":" + std::to_string(lineno) + ": unknown op '" +
               check.op + "'";
      return false;
    }
    char* end = nullptr;
    check.bound = std::strtod(bound.c_str(), &end);
    // A bound of inf or nan would pass or fail every value: no gate.
    if (end == bound.c_str() || *end != '\0' || !std::isfinite(check.bound)) {
      *error = path + ":" + std::to_string(lineno) + ": bad number '" +
               bound + "'";
      return false;
    }
    check.line = lineno;
    out->push_back(std::move(check));
  }
  if (out->empty()) {
    *error = path + ": no checks (empty gate)";
    return false;
  }
  return true;
}

bool Compare(double value, const std::string& op, double bound) {
  if (op == ">=") return value >= bound;
  if (op == "<=") return value <= bound;
  if (op == ">") return value > bound;
  if (op == "<") return value < bound;
  if (op == "==") return value == bound;
  return value != bound;  // !=
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string thresholds_path;
  cli::ConsumeValue(argc, argv, "--metrics", &metrics_path);
  cli::ConsumeValue(argc, argv, "--thresholds", &thresholds_path);
  const bool verbose = cli::ConsumeFlag(argc, argv, "--verbose");
  if (const int rc = cli::RejectUnknownArgs(
          argc, argv,
          "metrics_check --metrics METRICS_x.json --thresholds FILE"
          " [--verbose]")) {
    return rc;
  }
  if (metrics_path.empty() || thresholds_path.empty()) {
    std::fprintf(stderr, "error: --metrics and --thresholds are required\n");
    return cli::kUsageError;
  }

  std::string text;
  if (!runtime::ReadFileBytes(metrics_path, &text)) {
    std::fprintf(stderr, "error: cannot open %s\n", metrics_path.c_str());
    return cli::kUsageError;
  }
  std::map<std::string, MetricValues> metrics;
  std::string error;
  if (!ParseMetricsJson(text, &metrics, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", metrics_path.c_str(),
                 error.c_str());
    return cli::kUsageError;
  }
  std::vector<Check> checks;
  if (!ParseThresholds(thresholds_path, &checks, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return cli::kUsageError;
  }

  TablePrinter table({"check", "value", "verdict"});
  std::size_t failures = 0;
  for (const Check& check : checks) {
    std::string name = check.selector;
    std::string field;
    const std::size_t colon = name.rfind(':');
    if (colon != std::string::npos) {
      field = name.substr(colon + 1);
      name.resize(colon);
    }
    const std::string label = check.selector + " " + check.op + " " +
                              std::to_string(check.bound);
    const auto metric = metrics.find(name);
    if (metric == metrics.end()) {
      ++failures;
      table.AddRow({label, "(no such metric)", "FAIL"});
      continue;
    }
    const auto value = metric->second.find(field);
    if (value == metric->second.end()) {
      ++failures;
      table.AddRow({label, "(no field '" + field + "')", "FAIL"});
      continue;
    }
    const bool ok = Compare(value->second, check.op, check.bound);
    if (!ok) ++failures;
    if (!ok || verbose) {
      char value_buf[64];
      std::snprintf(value_buf, sizeof value_buf, "%g", value->second);
      table.AddRow({label, value_buf, ok ? "pass" : "FAIL"});
    }
  }
  if (failures > 0 || verbose) std::printf("%s", table.ToString().c_str());
  std::printf("metrics_check: %zu checks on %s, %zu failed -> %s\n",
              checks.size(), metrics_path.c_str(), failures,
              failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
