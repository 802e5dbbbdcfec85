// The repo's one JSON reader: strict, small, and shared by every tool
// that reads back a JSON artifact the repo wrote (soak replay records,
// METRICS_<slug>.json).
//
// Strict means a record that was hand-edited or corrupted is refused,
// not guessed at: duplicate keys, trailing bytes, non-ASCII \u escapes
// and nesting deeper than 16 are all errors. Numbers keep their raw
// token, so a 64-bit integer survives untouched and each reader decides
// how to convert it.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace freerider {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string raw;  ///< Number token or decoded string content.
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* Find(const char* key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses the whole of `text` as one JSON value. On failure `*error`
/// says why ("malformed JSON" when there is no more specific reason).
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

}  // namespace freerider
