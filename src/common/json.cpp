#include "common/json.h"

#include <cstdlib>
#include <cstring>

namespace freerider {

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Parse(JsonValue& out) {
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    if (p_ != end_) {
      error_ = "trailing bytes after JSON value";
      return false;
    }
    return true;
  }

  /// Why Parse() failed; "malformed JSON" if no specific reason was
  /// recorded.
  std::string error() const {
    return error_.empty() ? "malformed JSON" : error_;
  }

 private:
  static constexpr int kMaxDepth = 16;

  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      ++p_;
    }
  }

  bool Literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end_ - p_) < n) return false;
    if (std::memcmp(p_, lit, n) != 0) return false;
    p_ += n;
    return true;
  }

  bool ParseString(std::string& out) {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    out.clear();
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c == '\\') {
        if (p_ >= end_) return false;
        const char esc = *p_++;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            if (end_ - p_ < 4) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p_++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= h - '0';
              else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
              else return false;
            }
            if (code > 0x7F) return false;  // records are ASCII
            out += static_cast<char>(code);
            break;
          }
          default:
            return false;
        }
      } else {
        out += c;
      }
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipWs();
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': {
        ++p_;
        out.kind = JsonValue::Kind::kObject;
        SkipWs();
        if (p_ < end_ && *p_ == '}') { ++p_; return true; }
        while (true) {
          SkipWs();
          std::string key;
          if (!ParseString(key)) return false;
          SkipWs();
          if (p_ >= end_ || *p_++ != ':') return false;
          JsonValue value;
          if (!ParseValue(value, depth + 1)) return false;
          // Duplicate keys silently shadow each other in lenient
          // parsers; in a replay record a duplicated field means the
          // record was hand-edited or corrupted — reject it.
          if (out.Find(key.c_str()) != nullptr) {
            error_ = "duplicate key \"" + key + "\"";
            return false;
          }
          out.fields.emplace_back(std::move(key), std::move(value));
          SkipWs();
          if (p_ >= end_) return false;
          if (*p_ == ',') { ++p_; continue; }
          if (*p_ == '}') { ++p_; return true; }
          return false;
        }
      }
      case '[': {
        ++p_;
        out.kind = JsonValue::Kind::kArray;
        SkipWs();
        if (p_ < end_ && *p_ == ']') { ++p_; return true; }
        while (true) {
          JsonValue value;
          if (!ParseValue(value, depth + 1)) return false;
          out.items.push_back(std::move(value));
          SkipWs();
          if (p_ >= end_) return false;
          if (*p_ == ',') { ++p_; continue; }
          if (*p_ == ']') { ++p_; return true; }
          return false;
        }
      }
      case '"':
        out.kind = JsonValue::Kind::kString;
        return ParseString(out.raw);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return Literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return Literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return Literal("null");
      default: {
        const char* start = p_;
        if (p_ < end_ && (*p_ == '-' || *p_ == '+')) ++p_;
        while (p_ < end_ &&
               ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' ||
                *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
          ++p_;
        }
        if (p_ == start) return false;
        out.kind = JsonValue::Kind::kNumber;
        out.raw.assign(start, p_);
        char* parse_end = nullptr;
        std::strtod(out.raw.c_str(), &parse_end);
        return parse_end == out.raw.c_str() + out.raw.size();
      }
    }
  }

  const char* p_;
  const char* end_;
  std::string error_;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  JsonParser parser(text);
  if (parser.Parse(*out)) return true;
  *error = parser.error();
  return false;
}

}  // namespace freerider
