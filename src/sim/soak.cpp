#include "sim/soak.h"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "runtime/checkpoint.h"
#include "sim/campaign_audit.h"
#include "sim/link.h"

namespace freerider::sim {

SoakResult RunSoak(const SoakConfig& config) {
  FullStackConfig sim_cfg = CampaignSimConfig(config);
  sim_cfg.reserve_impairment_stream = true;

  Rng rng(config.seed);
  FullStackSim sim(sim_cfg, rng);
  SoakResult result;
  SeqAudit audit(config.num_tags, /*skips_violate=*/config.strict);

  SoakSegmentCursor segments{config.schedule};
  CampaignHooks hooks;
  hooks.before_step = [&](std::size_t round) { segments.Apply(round, sim); };
  std::size_t prev_expired = 0;
  std::size_t prev_rejected = 0;
  hooks.after_audit = [&](std::size_t round) {
    if (!config.strict) return;
    const FullStackStats snap = sim.Stats();
    if (snap.transport_expired > prev_expired) {
      result.violations.Add(
          round, "expired",
          Fmt("frames=%zu", snap.transport_expired - prev_expired));
    }
    if (snap.transport_rejected_full > prev_rejected) {
      result.violations.Add(
          round, "queue-full",
          Fmt("frames=%zu", snap.transport_rejected_full - prev_rejected));
    }
    prev_expired = snap.transport_expired;
    prev_rejected = snap.transport_rejected_full;
  };
  RunCampaignRounds(config, sim, audit, result.violations, hooks);

  // End-of-drain verdicts: nothing may be stuck, and in strict mode
  // everything accepted must have been delivered (or show up above as
  // an expiry/skip violation — never vanish silently).
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    const transport::TagTransport* arq = sim.tag_transport(t);
    if (arq->HasPending()) {
      result.violations.Add(
          config.total_rounds(), "stuck",
          Fmt("tag=%zu pending=%zu", t + 1, arq->pending()));
    }
    // Every accepted-but-undelivered frame must be explained by an
    // explicit give-up event (tag expiry, receiver skip — the two can
    // overlap on the same sequence) or still be pending (reported as
    // stuck above). A shortfall beyond that is silent loss: a frame
    // vanished without any invariant-visible event.
    const SeqAudit::Stream& stream = audit.stream(t);
    const std::uint64_t undelivered = arq->stats().offered - stream.delivered;
    const std::uint64_t explained =
        arq->stats().expired + stream.skipped + arq->pending();
    if (undelivered > explained) {
      result.violations.Add(
          config.total_rounds(), "lost",
          Fmt("tag=%zu offered=%zu delivered=%" PRIu64 " explained=%" PRIu64,
              t + 1, arq->stats().offered, stream.delivered, explained));
    }
  }

  result.stats = sim.Stats();
  result.passed = result.violations.empty();

  const FullStackStats& s = result.stats;
  result.digest = result.violations.Digest() + Fmt(
      "stats rounds=%zu slots=%zu raw=%zu offered=%zu delivered=%zu "
      "dup=%zu retx=%zu expired=%zu holes=%zu acked=%zu esc=%zu "
      "extrej=%zu rejfull=%zu faults=%zu airtime=%a goodput=%a\n",
      s.rounds, s.slots_total, s.deliveries, s.transport_offered,
      s.transport_delivered, s.transport_duplicates,
      s.transport_retransmissions, s.transport_expired,
      s.transport_holes_skipped, s.transport_acked,
      s.transport_escalations, s.transport_ext_rejected,
      s.transport_rejected_full, s.faults_injected, s.airtime_s,
      s.goodput_bps);
  return result;
}

// ------------------------------------------------------- JSON writing

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += Fmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) { return Fmt("%.17g", v); }

std::string ImpairmentsJson(const impair::ImpairmentConfig& c) {
  std::string out = "{";
  out += Fmt("\"cfo\":{\"enabled\":%s,\"cfo_hz\":%s,\"cfo_sigma_hz\":%s,"
             "\"tag_clock_ppm\":%s,\"tag_clock_ppm_sigma\":%s,"
             "\"start_slip_sigma_samples\":%s},",
             c.cfo.enabled ? "true" : "false", JsonDouble(c.cfo.cfo_hz).c_str(),
             JsonDouble(c.cfo.cfo_sigma_hz).c_str(),
             JsonDouble(c.cfo.tag_clock_ppm).c_str(),
             JsonDouble(c.cfo.tag_clock_ppm_sigma).c_str(),
             JsonDouble(c.cfo.start_slip_sigma_samples).c_str());
  out += Fmt("\"interferer\":{\"enabled\":%s,\"burst_probability\":%s,"
             "\"burst_power_dbm\":%s,\"min_fraction\":%s,\"max_fraction\":%s},",
             c.interferer.enabled ? "true" : "false",
             JsonDouble(c.interferer.burst_probability).c_str(),
             JsonDouble(c.interferer.burst_power_dbm).c_str(),
             JsonDouble(c.interferer.min_fraction).c_str(),
             JsonDouble(c.interferer.max_fraction).c_str());
  out += Fmt("\"dropout\":{\"enabled\":%s,\"dropout_probability\":%s,"
             "\"min_keep_fraction\":%s,\"max_keep_fraction\":%s},",
             c.dropout.enabled ? "true" : "false",
             JsonDouble(c.dropout.dropout_probability).c_str(),
             JsonDouble(c.dropout.min_keep_fraction).c_str(),
             JsonDouble(c.dropout.max_keep_fraction).c_str());
  out += Fmt("\"envelope\":{\"enabled\":%s,\"miss_probability\":%s,"
             "\"spurious_probability\":%s,\"spurious_max_duration_s\":%s,"
             "\"extra_jitter_s\":%s}",
             c.envelope.enabled ? "true" : "false",
             JsonDouble(c.envelope.miss_probability).c_str(),
             JsonDouble(c.envelope.spurious_probability).c_str(),
             JsonDouble(c.envelope.spurious_max_duration_s).c_str(),
             JsonDouble(c.envelope.extra_jitter_s).c_str());
  out += "}";
  return out;
}

}  // namespace

std::string SoakReplayJson(const SoakConfig& config,
                           const SoakResult& result) {
  std::string out = "{\n";
  // The seed is a string: u64 does not survive a double round-trip.
  out += Fmt("  \"version\": 1,\n  \"seed\": \"%" PRIu64 "\",\n",
             config.seed);
  out += Fmt("  \"num_tags\": %zu,\n  \"rounds\": %zu,\n"
             "  \"drain_rounds\": %zu,\n  \"offer_every\": %zu,\n"
             "  \"strict\": %s,\n",
             config.num_tags, config.rounds, config.drain_rounds,
             config.offer_every, config.strict ? "true" : "false");
  const transport::TransportConfig& t = config.transport;
  out += Fmt("  \"transport\": {\"window\":%zu,\"queue_capacity\":%zu,"
             "\"max_transmissions\":%zu,\"expiry_rounds\":%zu,"
             "\"rto_rounds\":%zu,\"escalate_after_nacks\":%zu,"
             "\"max_escalation_steps\":%zu,\"ack_blocks_per_round\":%zu,"
             "\"hole_skip_rounds\":%zu",
             t.window, t.queue_capacity, t.max_transmissions,
             t.expiry_rounds, t.rto_rounds, t.escalate_after_nacks,
             t.max_escalation_steps, t.ack_blocks_per_round,
             t.hole_skip_rounds);
  // The replay-guard knobs are written only when they differ from the
  // defaults, so records of default runs keep their historical bytes
  // (and older readers keep reading them).
  const transport::TransportConfig defaults;
  if (t.replay_guard != defaults.replay_guard) {
    out += Fmt(",\"replay_guard\":%s", t.replay_guard ? "true" : "false");
  }
  if (t.replay_stale_behind != defaults.replay_stale_behind) {
    out += Fmt(",\"replay_stale_behind\":%zu", t.replay_stale_behind);
  }
  out += "},\n";
  out += "  \"schedule\": [\n";
  for (std::size_t i = 0; i < config.schedule.size(); ++i) {
    out += Fmt("    {\"start_round\": %zu, \"impairments\": %s}%s\n",
               config.schedule[i].start_round,
               ImpairmentsJson(config.schedule[i].impairments).c_str(),
               i + 1 < config.schedule.size() ? "," : "");
  }
  out += "  ],\n";
  out += Fmt("  \"digest\": \"%s\"\n}\n",
             JsonEscape(result.digest).c_str());
  return out;
}

// ------------------------------------------------------- JSON parsing

namespace {

/// Minimal strict JSON value — just enough for replay records. Numbers
/// keep their raw token so 64-bit integers survive untouched.
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

bool GetSize(const JsonValue& obj, const char* key, std::size_t& out) {
  const JsonValue* v = obj.Find(key);
  if (!v || v->kind != JsonValue::Kind::kNumber) return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->raw.c_str(), &end, 10);
  if (end != v->raw.c_str() + v->raw.size()) return false;
  out = static_cast<std::size_t>(parsed);
  return true;
}

bool GetDouble(const JsonValue& obj, const char* key, double& out) {
  const JsonValue* v = obj.Find(key);
  if (!v || v->kind != JsonValue::Kind::kNumber) return false;
  const double parsed = std::strtod(v->raw.c_str(), nullptr);
  // An overflowing literal (1e999) parses to inf — poison downstream
  // arithmetic, never a legitimate record field.
  if (!std::isfinite(parsed)) return false;
  out = parsed;
  return true;
}

bool GetBool(const JsonValue& obj, const char* key, bool& out) {
  const JsonValue* v = obj.Find(key);
  if (!v || v->kind != JsonValue::Kind::kBool) return false;
  out = v->boolean;
  return true;
}

bool ParseImpairments(const JsonValue& obj, impair::ImpairmentConfig& out) {
  const JsonValue* cfo = obj.Find("cfo");
  const JsonValue* interferer = obj.Find("interferer");
  const JsonValue* dropout = obj.Find("dropout");
  const JsonValue* envelope = obj.Find("envelope");
  if (!cfo || !interferer || !dropout || !envelope) return false;
  return GetBool(*cfo, "enabled", out.cfo.enabled) &&
         GetDouble(*cfo, "cfo_hz", out.cfo.cfo_hz) &&
         GetDouble(*cfo, "cfo_sigma_hz", out.cfo.cfo_sigma_hz) &&
         GetDouble(*cfo, "tag_clock_ppm", out.cfo.tag_clock_ppm) &&
         GetDouble(*cfo, "tag_clock_ppm_sigma", out.cfo.tag_clock_ppm_sigma) &&
         GetDouble(*cfo, "start_slip_sigma_samples",
                   out.cfo.start_slip_sigma_samples) &&
         GetBool(*interferer, "enabled", out.interferer.enabled) &&
         GetDouble(*interferer, "burst_probability",
                   out.interferer.burst_probability) &&
         GetDouble(*interferer, "burst_power_dbm",
                   out.interferer.burst_power_dbm) &&
         GetDouble(*interferer, "min_fraction", out.interferer.min_fraction) &&
         GetDouble(*interferer, "max_fraction", out.interferer.max_fraction) &&
         GetBool(*dropout, "enabled", out.dropout.enabled) &&
         GetDouble(*dropout, "dropout_probability",
                   out.dropout.dropout_probability) &&
         GetDouble(*dropout, "min_keep_fraction",
                   out.dropout.min_keep_fraction) &&
         GetDouble(*dropout, "max_keep_fraction",
                   out.dropout.max_keep_fraction) &&
         GetBool(*envelope, "enabled", out.envelope.enabled) &&
         GetDouble(*envelope, "miss_probability",
                   out.envelope.miss_probability) &&
         GetDouble(*envelope, "spurious_probability",
                   out.envelope.spurious_probability) &&
         GetDouble(*envelope, "spurious_max_duration_s",
                   out.envelope.spurious_max_duration_s) &&
         GetDouble(*envelope, "extra_jitter_s", out.envelope.extra_jitter_s);
}

}  // namespace

namespace {

std::optional<SoakReplay> Reject(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return std::nullopt;
}

}  // namespace

std::optional<SoakReplay> ParseSoakReplay(const std::string& json) {
  return ParseSoakReplay(json, nullptr);
}

std::optional<SoakReplay> ParseSoakReplay(const std::string& json,
                                          std::string* error) {
  JsonParser parser(json);
  JsonValue root;
  if (!parser.Parse(root)) return Reject(error, parser.error());
  if (root.kind != JsonValue::Kind::kObject) {
    return Reject(error, "top level is not a JSON object");
  }
  std::size_t version = 0;
  if (!GetSize(root, "version", version)) {
    return Reject(error, "missing or non-integer \"version\"");
  }
  if (version != 1) {
    return Reject(error, Fmt("unsupported version %zu (expected 1)", version));
  }

  SoakReplay replay;
  const JsonValue* seed = root.Find("seed");
  if (!seed || seed->kind != JsonValue::Kind::kString) {
    return Reject(error, "missing \"seed\" (must be a decimal string)");
  }
  {
    char* end = nullptr;
    errno = 0;
    replay.config.seed = std::strtoull(seed->raw.c_str(), &end, 10);
    if (seed->raw.empty() || errno != 0 ||
        end != seed->raw.c_str() + seed->raw.size()) {
      return Reject(error, "\"seed\" is not a u64 decimal string");
    }
  }
  // Field-by-field so the error names the offender.
  struct SizeField {
    const char* key;
    std::size_t* dest;
    std::size_t min;
    std::size_t max;
  };
  const SizeField root_fields[] = {
      {"num_tags", &replay.config.num_tags, 1, 64},
      {"rounds", &replay.config.rounds, 0, 1000000},
      {"drain_rounds", &replay.config.drain_rounds, 0, 1000000},
      {"offer_every", &replay.config.offer_every, 0, 1000000},
  };
  for (const SizeField& f : root_fields) {
    if (!GetSize(root, f.key, *f.dest)) {
      return Reject(error,
                    Fmt("missing or non-integer \"%s\"", f.key));
    }
    if (*f.dest < f.min || *f.dest > f.max) {
      return Reject(error, Fmt("\"%s\" = %zu out of range [%zu, %zu]", f.key,
                               *f.dest, f.min, f.max));
    }
  }
  if (!GetBool(root, "strict", replay.config.strict)) {
    return Reject(error, "missing or non-boolean \"strict\"");
  }

  const JsonValue* t = root.Find("transport");
  if (!t || t->kind != JsonValue::Kind::kObject) {
    return Reject(error, "missing \"transport\" object");
  }
  transport::TransportConfig& tc = replay.config.transport;
  // Bounds are generous (the soak drivers legitimately run
  // expiry/hole-skip horizons of 2^20 rounds) but still reject the
  // absurd before a hostile record allocates or spins on it.
  const SizeField transport_fields[] = {
      {"window", &tc.window, 1, 256},
      {"queue_capacity", &tc.queue_capacity, 1, 1u << 16},
      {"max_transmissions", &tc.max_transmissions, 1, 1u << 20},
      {"expiry_rounds", &tc.expiry_rounds, 1, 1u << 30},
      {"rto_rounds", &tc.rto_rounds, 1, 1u << 20},
      {"escalate_after_nacks", &tc.escalate_after_nacks, 0, 1u << 20},
      {"max_escalation_steps", &tc.max_escalation_steps, 0, 64},
      {"ack_blocks_per_round", &tc.ack_blocks_per_round, 1, 64},
      {"hole_skip_rounds", &tc.hole_skip_rounds, 1, 1u << 30},
  };
  for (const SizeField& f : transport_fields) {
    if (!GetSize(*t, f.key, *f.dest)) {
      return Reject(error,
                    Fmt("missing or non-integer \"transport.%s\"", f.key));
    }
    if (*f.dest < f.min || *f.dest > f.max) {
      return Reject(error,
                    Fmt("\"transport.%s\" = %zu out of range [%zu, %zu]",
                        f.key, *f.dest, f.min, f.max));
    }
  }
  // Optional: absent means the TransportConfig default.
  if (t->Find("replay_guard") != nullptr &&
      !GetBool(*t, "replay_guard", tc.replay_guard)) {
    return Reject(error, "non-boolean \"transport.replay_guard\"");
  }
  if (t->Find("replay_stale_behind") != nullptr) {
    if (!GetSize(*t, "replay_stale_behind", tc.replay_stale_behind)) {
      return Reject(error, "non-integer \"transport.replay_stale_behind\"");
    }
    if (tc.replay_stale_behind > (1u << 20)) {
      return Reject(error,
                    Fmt("\"transport.replay_stale_behind\" = %zu out of "
                        "range [0, %u]",
                        tc.replay_stale_behind, 1u << 20));
    }
  }
  tc.enabled = true;

  const JsonValue* schedule = root.Find("schedule");
  if (!schedule || schedule->kind != JsonValue::Kind::kArray) {
    return Reject(error, "missing \"schedule\" array");
  }
  if (schedule->items.size() > 4096) {
    return Reject(error, Fmt("schedule has %zu segments (max 4096)",
                             schedule->items.size()));
  }
  for (std::size_t i = 0; i < schedule->items.size(); ++i) {
    const JsonValue& item = schedule->items[i];
    if (item.kind != JsonValue::Kind::kObject) {
      return Reject(error, Fmt("schedule[%zu] is not an object", i));
    }
    SoakSegment segment;
    if (!GetSize(item, "start_round", segment.start_round)) {
      return Reject(error,
                    Fmt("schedule[%zu] missing integer \"start_round\"", i));
    }
    if (segment.start_round > (1u << 30)) {
      return Reject(error, Fmt("schedule[%zu].start_round = %zu out of range",
                               i, segment.start_round));
    }
    // SoakSegmentCursor applies segments front-to-back assuming
    // ascending start_round; an unsorted schedule would silently apply
    // the wrong impairment mix, which is exactly the class of quiet
    // corruption a replay record must not carry.
    if (!replay.config.schedule.empty() &&
        segment.start_round < replay.config.schedule.back().start_round) {
      return Reject(error,
                    Fmt("schedule[%zu].start_round = %zu not ascending "
                        "(previous %zu)",
                        i, segment.start_round,
                        replay.config.schedule.back().start_round));
    }
    const JsonValue* imp = item.Find("impairments");
    if (!imp || imp->kind != JsonValue::Kind::kObject ||
        !ParseImpairments(*imp, segment.impairments)) {
      return Reject(
          error,
          Fmt("schedule[%zu] has a missing or malformed \"impairments\" "
              "object (every sub-block and field is required; doubles must "
              "be finite)",
              i));
    }
    replay.config.schedule.push_back(std::move(segment));
  }

  if (const JsonValue* digest = root.Find("digest");
      digest && digest->kind == JsonValue::Kind::kString) {
    replay.expect_digest = digest->raw;
  }
  return replay;
}

// ------------------------------------------- checkpoint payload codec

namespace {

constexpr std::uint64_t kSoakResultVersion = 1;

/// The FullStackStats fields a soak result carries.
template <class Io, class T>
bool SoakStatsFields(Io& io, T& s) {
  return io.Size(s.rounds) && io.Size(s.slots_total) &&
         io.Size(s.deliveries) && io.Size(s.observed_collisions) &&
         io.Size(s.observed_empties) &&
         io.Seq(s.per_tag_deliveries, std::size_t{1} << 16,
                [&io](auto& d) { return io.Size(d); }) &&
         io.F64(s.airtime_s) && io.F64(s.goodput_bps) &&
         io.F64(s.jain_fairness) && io.Size(s.faults_injected) &&
         io.Size(s.desync_events) && io.Size(s.sequence_gaps) &&
         io.Size(s.reannouncements) && io.Size(s.rounds_recovered) &&
         io.F64(s.backoff_airtime_s) &&
         FaultCountersFields(io, s.fault_counters) &&
         io.Size(s.transport_offered) && io.Size(s.transport_delivered) &&
         io.Size(s.transport_duplicates) &&
         io.Size(s.transport_retransmissions) &&
         io.Size(s.transport_expired) && io.Size(s.transport_holes_skipped) &&
         io.Size(s.transport_acked) && io.Size(s.transport_escalations) &&
         io.Size(s.transport_ext_rejected) &&
         io.Size(s.transport_rejected_full);
}

template <class Io, class T>
bool SoakResultFields(Io& io, T& r) {
  return io.Version(kSoakResultVersion) && io.Bool(r.passed) &&
         ViolationLogFields(io, r.violations) &&
         SoakStatsFields(io, r.stats) && io.Str(r.digest);
}

}  // namespace

std::string SerializeSoakResult(const SoakResult& result) {
  runtime::PayloadWriter w;
  SoakResultFields(w, result);
  return w.Take();
}

bool DeserializeSoakResult(const std::string& payload, SoakResult* result) {
  return runtime::ReadPayload(
      payload, result, [](auto& r, auto& s) { return SoakResultFields(r, s); });
}

}  // namespace freerider::sim
