#include "sim/soak.h"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <tuple>
#include <utility>

#include "common/json.h"
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

// ---------------------------------------------------- replay record

namespace {

/// An impairment block: its `enabled` switch, then its knobs.
template <class Io, class Block, class Knobs>
bool ImpairmentBlock(Io& io, const char* key, Block& b, Knobs knobs) {
  return io.Object(key,
                   [&] { return io.Bool("enabled", b.enabled) && knobs(b); });
}

template <class Io, class I>
bool ImpairmentFields(Io& io, I& c) {
  return ImpairmentBlock(io, "cfo", c.cfo, [&](auto& b) {
           return io.F64("cfo_hz", b.cfo_hz) &&
                  io.F64("cfo_sigma_hz", b.cfo_sigma_hz) &&
                  io.F64("tag_clock_ppm", b.tag_clock_ppm) &&
                  io.F64("tag_clock_ppm_sigma", b.tag_clock_ppm_sigma) &&
                  io.F64("start_slip_sigma_samples",
                         b.start_slip_sigma_samples);
         }) &&
         ImpairmentBlock(io, "interferer", c.interferer, [&](auto& b) {
           return io.F64("burst_probability", b.burst_probability) &&
                  io.F64("burst_power_dbm", b.burst_power_dbm) &&
                  io.F64("min_fraction", b.min_fraction) &&
                  io.F64("max_fraction", b.max_fraction);
         }) &&
         ImpairmentBlock(io, "dropout", c.dropout, [&](auto& b) {
           return io.F64("dropout_probability", b.dropout_probability) &&
                  io.F64("min_keep_fraction", b.min_keep_fraction) &&
                  io.F64("max_keep_fraction", b.max_keep_fraction);
         }) &&
         ImpairmentBlock(io, "envelope", c.envelope, [&](auto& b) {
           return io.F64("miss_probability", b.miss_probability) &&
                  io.F64("spurious_probability", b.spurious_probability) &&
                  io.F64("spurious_max_duration_s",
                         b.spurious_max_duration_s) &&
                  io.F64("extra_jitter_s", b.extra_jitter_s);
         });
}

template <class Io, class T>
bool TransportFields(Io& io, T& t) {
  constexpr std::size_t k16 = 1u << 16, k20 = 1u << 20, k30 = 1u << 30;
  const transport::TransportConfig defaults;
  // Bounds are generous (the soak drivers legitimately run
  // expiry/hole-skip horizons of 2^20 rounds) but still reject the
  // absurd before a hostile record allocates or spins on it.
  return io.Size("window", t.window, 1, 256) &&
         io.Size("queue_capacity", t.queue_capacity, 1, k16) &&
         io.Size("max_transmissions", t.max_transmissions, 1, k20) &&
         io.Size("expiry_rounds", t.expiry_rounds, 1, k30) &&
         io.Size("rto_rounds", t.rto_rounds, 1, k20) &&
         io.Size("escalate_after_nacks", t.escalate_after_nacks, 0, k20) &&
         io.Size("max_escalation_steps", t.max_escalation_steps, 0, 64) &&
         io.Size("ack_blocks_per_round", t.ack_blocks_per_round, 1, 64) &&
         io.Size("hole_skip_rounds", t.hole_skip_rounds, 1, k30) &&
         io.BoolOr("replay_guard", t.replay_guard, defaults.replay_guard) &&
         io.SizeOr("replay_stale_behind", t.replay_stale_behind,
                   defaults.replay_stale_behind, 0, k20);
}

/// The replay record's fields, in record order: the one list that both
/// SoakReplayJson (RecordWriter) and ParseSoakReplay (RecordReader) run.
/// R is a SoakReplay, const when writing. A new SoakConfig knob is added
/// here as an …Or field: written only when it differs from its default,
/// and read as the default when absent, so older records keep their
/// bytes and still replay.
template <class Io, class R>
bool SoakRecordFields(Io& io, R& r) {
  auto& c = r.config;
  return io.Version("version", 1) && io.U64Str("seed", c.seed) &&
         io.Size("num_tags", c.num_tags, 1, 64) &&
         io.Size("rounds", c.rounds, 0, 1000000) &&
         io.Size("drain_rounds", c.drain_rounds, 0, 1000000) &&
         io.Size("offer_every", c.offer_every, 0, 1000000) &&
         io.Bool("strict", c.strict) &&
         io.Object("transport",
                   [&] { return TransportFields(io, c.transport); }) &&
         io.Seq("schedule", c.schedule, 4096, [&](auto& segment) {
           return io.Size("start_round", segment.start_round, 0, 1u << 30) &&
                  io.Object("impairments", [&] {
                    return ImpairmentFields(io, segment.impairments);
                  });
         }) &&
         io.Str("digest", r.expect_digest);
}

/// Where a field sits in the record. The writer's layout and the
/// reader's messages both follow from it: root keys go one per line, a
/// schedule item's keys share the item's line, and an object that is a
/// key's value (`transport`, the impairment blocks) is compact.
enum class Nest { kRoot, kItem, kValue };

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

class RecordWriter {
 public:
  bool Version(const char* key, std::size_t v) { return Size(key, v, v, v); }
  // The seed is a string: u64 does not survive a double round-trip.
  bool U64Str(const char* key, std::uint64_t v) {
    return Put(key, Fmt("\"%" PRIu64 "\"", v));
  }
  bool Size(const char* key, std::size_t v, std::size_t, std::size_t) {
    return Put(key, Fmt("%zu", v));
  }
  bool SizeOr(const char* key, std::size_t v, std::size_t fallback,
              std::size_t min, std::size_t max) {
    return v == fallback || Size(key, v, min, max);
  }
  bool F64(const char* key, double v) { return Put(key, Fmt("%.17g", v)); }
  bool Bool(const char* key, bool v) { return Put(key, v ? "true" : "false"); }
  bool BoolOr(const char* key, bool v, bool fallback) {
    return v == fallback || Bool(key, v);
  }
  bool Str(const char* key, const std::string& s) {
    return Put(key, "\"" + JsonEscape(s) + "\"");
  }
  template <class Fields>
  bool Object(const char* key, Fields fields) {
    Key(key);
    return Braced(Nest::kValue, fields);
  }
  template <class Vec, class Field>
  bool Seq(const char* key, const Vec& seq, std::size_t /*cap*/,
           Field field) {
    Key(key);
    out_ += "[\n";
    for (std::size_t i = 0; i < seq.size(); ++i) {
      out_ += i == 0 ? "    " : ",\n    ";
      Braced(Nest::kItem, [&] { return field(seq[i]); });
    }
    out_ += seq.empty() ? "  ]" : "\n  ]";
    return true;
  }

  std::string Take() { return std::move(out_ += "\n}\n"); }

 private:
  void Key(const char* key) {
    static constexpr const char* kSeparator[] = {",\n", ", ", ","};
    if (!first_) out_ += kSeparator[static_cast<int>(nest_)];
    first_ = false;
    if (nest_ == Nest::kRoot) out_ += "  ";
    out_ += '"';
    out_ += key;
    out_ += nest_ == Nest::kValue ? "\":" : "\": ";
  }
  bool Put(const char* key, const std::string& value) {
    Key(key);
    out_ += value;
    return true;
  }
  template <class Fields>
  bool Braced(Nest nest, Fields fields) {
    const Nest outer = std::exchange(nest_, nest);
    out_ += '{';
    first_ = true;
    fields();
    out_ += '}';
    nest_ = outer;
    first_ = false;
    return true;
  }

  std::string out_ = "{\n";
  Nest nest_ = Nest::kRoot;
  bool first_ = true;
};

/// Reads a parsed record, field by field, so the error names the
/// offender: root keys bare (`num_tags`), object keys dotted
/// (`transport.window`), item keys after their index
/// (`schedule[2].start_round`). An object inside a schedule item fails
/// as a whole.
class RecordReader {
 public:
  explicit RecordReader(const JsonValue& root) : obj_(&root) {}

  const std::string& error() const { return error_; }

  bool Version(const char* key, std::size_t version) {
    std::size_t v = 0;
    return Size(key, v, 0, SIZE_MAX) &&
           (v == version ||
            Fail(Fmt("unsupported version %zu (expected %zu)", v, version)));
  }
  bool U64Str(const char* key, std::uint64_t& v) {
    const JsonValue* s = Get(key, JsonValue::Kind::kString);
    if (!s) return Fail(Fmt("missing \"%s\" (must be a decimal string)", key));
    char* end = nullptr;
    errno = 0;
    v = std::strtoull(s->raw.c_str(), &end, 10);
    return (!s->raw.empty() && errno == 0 &&
            end == s->raw.c_str() + s->raw.size()) ||
           Fail(Fmt("\"%s\" is not a u64 decimal string", key));
  }
  /// `lead` starts the type error: "missing or non-" for a required
  /// field, "non-" for an optional one that is present.
  bool Size(const char* key, std::size_t& v, std::size_t min,
            std::size_t max, const char* lead = "missing or non-") {
    const JsonValue* n = Get(key, JsonValue::Kind::kNumber);
    char* end = nullptr;
    if (n) v = std::strtoull(n->raw.c_str(), &end, 10);
    const bool item = nest_ == Nest::kItem;
    if (!n || end != n->raw.c_str() + n->raw.size()) {
      return Fail(item ? Fmt("%s missing integer \"%s\"", where_.c_str(), key)
                       : Fmt("%sinteger \"%s\"", lead, Name(key).c_str()));
    }
    if (v >= min && v <= max) return true;
    return Fail(item ? Fmt("%s = %zu out of range", Name(key).c_str(), v)
                     : Fmt("\"%s\" = %zu out of range [%zu, %zu]",
                           Name(key).c_str(), v, min, max));
  }
  bool SizeOr(const char* key, std::size_t& v, std::size_t fallback,
              std::size_t min, std::size_t max) {
    v = fallback;
    return !obj_->Find(key) || Size(key, v, min, max, "non-");
  }
  bool F64(const char* key, double& v) {
    const JsonValue* n = Get(key, JsonValue::Kind::kNumber);
    // An overflowing literal (1e999) parses to inf — poison downstream
    // arithmetic, never a legitimate record field.
    v = n ? std::strtod(n->raw.c_str(), nullptr) : NAN;
    return std::isfinite(v) ||
           Fail("missing or non-finite \"" + Name(key) + "\"");
  }
  bool Bool(const char* key, bool& v, const char* lead = "missing or non-") {
    const JsonValue* b = Get(key, JsonValue::Kind::kBool);
    if (b) v = b->boolean;
    return b || Fail(Fmt("%sboolean \"%s\"", lead, Name(key).c_str()));
  }
  bool BoolOr(const char* key, bool& v, bool fallback) {
    v = fallback;
    return !obj_->Find(key) || Bool(key, v, "non-");
  }
  /// Optional: a record without a string here replays without a verdict.
  bool Str(const char* key, std::string& s) {
    if (const JsonValue* v = Get(key, JsonValue::Kind::kString)) s = v->raw;
    return true;
  }
  template <class Fields>
  bool Object(const char* key, Fields fields) {
    const JsonValue* v = Get(key, JsonValue::Kind::kObject);
    if (v && Nested(*v, Name(key), Nest::kValue, fields)) return true;
    if (nest_ == Nest::kItem) {
      return Fail(Fmt("%s has a missing or malformed \"%s\" object (every "
                      "sub-block and field is required; doubles must be "
                      "finite)",
                      where_.c_str(), key));
    }
    // A field inside has already said why.
    return !v && Fail("missing \"" + Name(key) + "\" object");
  }
  template <class Vec, class Field>
  bool Seq(const char* key, Vec& seq, std::size_t cap, Field field) {
    const JsonValue* v = Get(key, JsonValue::Kind::kArray);
    if (!v) return Fail("missing \"" + Name(key) + "\" array");
    // The record's one array is the impairment schedule.
    if (v->items.size() > cap) {
      return Fail(Fmt("%s has %zu segments (max %zu)", Name(key).c_str(),
                      v->items.size(), cap));
    }
    for (std::size_t i = 0; i < v->items.size(); ++i) {
      const std::string item = Fmt("%s[%zu]", Name(key).c_str(), i);
      if (v->items[i].kind != JsonValue::Kind::kObject) {
        return Fail(item + " is not an object");
      }
      if (!Nested(v->items[i], item, Nest::kItem,
                  [&] { return field(seq.emplace_back()); })) {
        return false;
      }
    }
    return true;
  }

 private:
  bool Fail(std::string why) {
    error_ = std::move(why);
    return false;
  }
  std::string Name(const char* key) const {
    return where_.empty() ? key : where_ + "." + key;
  }
  const JsonValue* Get(const char* key, JsonValue::Kind kind) const {
    const JsonValue* v = obj_->Find(key);
    return v && v->kind == kind ? v : nullptr;
  }
  template <class Fields>
  bool Nested(const JsonValue& obj, std::string where, Nest nest,
              Fields fields) {
    auto outer = std::tuple(obj_, std::move(where_), nest_);
    std::tie(obj_, where_, nest_) = std::tuple(&obj, std::move(where), nest);
    const bool ok = fields();
    std::tie(obj_, where_, nest_) = std::move(outer);
    return ok;
  }

  const JsonValue* obj_;
  std::string where_;  ///< Dotted path of obj_; empty at the root.
  Nest nest_ = Nest::kRoot;
  std::string error_;
};

std::optional<SoakReplay> Reject(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return std::nullopt;
}

}  // namespace

std::string SoakReplayJson(const SoakConfig& config,
                           const SoakResult& result) {
  const SoakReplay record{config, result.digest};
  RecordWriter writer;
  SoakRecordFields(writer, record);
  return writer.Take();
}

std::optional<SoakReplay> ParseSoakReplay(const std::string& json) {
  return ParseSoakReplay(json, nullptr);
}

std::optional<SoakReplay> ParseSoakReplay(const std::string& json,
                                          std::string* error) {
  JsonValue root;
  std::string why;
  if (!ParseJson(json, &root, &why)) return Reject(error, why);
  if (root.kind != JsonValue::Kind::kObject) {
    return Reject(error, "top level is not a JSON object");
  }
  SoakReplay replay;
  RecordReader reader(root);
  if (!SoakRecordFields(reader, replay)) return Reject(error, reader.error());

  // SoakSegmentCursor applies segments front-to-back assuming
  // ascending start_round; an unsorted schedule would silently apply
  // the wrong impairment mix, which is exactly the class of quiet
  // corruption a replay record must not carry.
  const std::vector<SoakSegment>& schedule = replay.config.schedule;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i].start_round < schedule[i - 1].start_round) {
      return Reject(error,
                    Fmt("schedule[%zu].start_round = %zu not ascending "
                        "(previous %zu)",
                        i, schedule[i].start_round,
                        schedule[i - 1].start_round));
    }
  }
  replay.config.transport.enabled = true;
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
