#include "obs/trace.h"

#include <array>
#include <cinttypes>
#include <cstdio>

#include "common/frame.h"

namespace freerider::obs {
namespace {

struct KindName {
  EventKind kind;
  const char* name;
};

constexpr std::array<KindName, 15> kKindNames = {{
    {EventKind::kFrameTx, "frame_tx"},
    {EventKind::kFrameRx, "frame_rx"},
    {EventKind::kFrameFaded, "frame_faded"},
    {EventKind::kHoleSkip, "hole_skip"},
    {EventKind::kArqResend, "arq_resend"},
    {EventKind::kArqExpire, "arq_expire"},
    {EventKind::kRxReject, "rx_reject"},
    {EventKind::kFsmTransition, "fsm_transition"},
    {EventKind::kProbe, "probe"},
    {EventKind::kQuarantine, "quarantine"},
    {EventKind::kResync, "resync"},
    {EventKind::kPoliceEvidence, "police_evidence"},
    {EventKind::kRogueFire, "rogue_fire"},
    {EventKind::kCheckpoint, "checkpoint"},
    {EventKind::kMacRound, "mac_round"},
}};

constexpr char kHeaderTag = 'H';
constexpr char kEventTag = 'E';

}  // namespace

const char* EventKindName(EventKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

int EventKindFromName(std::string_view name) {
  for (const KindName& entry : kKindNames) {
    if (name == entry.name) return static_cast<int>(entry.kind);
  }
  return -1;
}

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  if (capacity_ > kMaxCapacity) capacity_ = kMaxCapacity;
}

void TraceRing::Record(const TraceEvent& event) {
  ++recorded_;
  if (buf_.size() < capacity_) {
    buf_.push_back(event);
    return;
  }
  buf_[head_] = event;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceRing::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(buf_.size());
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    out.push_back(buf_[(head_ + i) % buf_.size()]);
  }
  return out;
}

void TraceRing::Clear() {
  buf_.clear();
  head_ = 0;
  recorded_ = 0;
}

std::string SerializeTraces(const std::vector<NamedTrace>& traces) {
  std::string out;
  std::string payload;
  for (const NamedTrace& trace : traces) {
    payload.clear();
    payload.push_back(kHeaderTag);
    AppendU32(payload, kTraceMagic);
    AppendU32(payload, kTraceVersion);
    AppendStr(payload, trace.name);
    AppendU64(payload, trace.ring.capacity());
    AppendU64(payload, trace.ring.recorded());
    AppendFrame(out, payload);
    for (const TraceEvent& event : trace.ring.Events()) {
      payload.clear();
      payload.push_back(kEventTag);
      AppendU32(payload, event.round);
      AppendU16(payload, event.slot);
      payload.push_back(static_cast<char>(event.kind));
      payload.push_back(static_cast<char>(event.tag));
      AppendU64(payload, event.a);
      AppendU64(payload, event.b);
      AppendFrame(out, payload);
    }
  }
  return out;
}

std::string SerializeTrace(std::string_view name, const TraceRing& ring) {
  std::vector<NamedTrace> traces(1);
  traces[0].name = std::string(name);
  traces[0].ring = ring;
  return SerializeTraces(traces);
}

TraceDecodeResult DecodeTraces(std::string_view bytes) {
  TraceDecodeResult result;
  std::size_t pos = 0;
  bool have_ring = false;
  while (pos < bytes.size()) {
    // A torn tail (kNeedMore on the whole file) ends the prefix like a
    // corrupt frame does.
    const ParsedFrame frame = ParseFrame(bytes.substr(pos));
    if (frame.status != FrameStatus::kFrame) break;
    pos += frame.size;
    ByteReader r(frame.payload);
    std::uint8_t type = 0;
    if (!r.ReadU8(type)) break;
    if (type == static_cast<std::uint8_t>(kHeaderTag)) {
      std::uint32_t magic = 0;
      std::uint32_t version = 0;
      std::string name;
      std::uint64_t capacity = 0;
      std::uint64_t recorded = 0;
      if (!r.ReadU32(magic) || magic != kTraceMagic || !r.ReadU32(version) ||
          version != kTraceVersion || !r.ReadStr(name) ||
          !r.ReadU64(capacity) || !r.ReadU64(recorded) || !r.AtEnd() ||
          capacity == 0 || capacity > TraceRing::kMaxCapacity) {
        break;  // malformed header: salvage what we have
      }
      NamedTrace trace;
      trace.name = std::move(name);
      trace.ring = TraceRing(static_cast<std::size_t>(capacity));
      result.traces.push_back(std::move(trace));
      have_ring = true;
      // Restore the drop count so recorded() round-trips: events that fell
      // out of the ring before export stay counted without being replayed.
      if (recorded > capacity) {
        result.traces.back().ring.RestoreDropCount(recorded - capacity);
      }
    } else if (type == static_cast<std::uint8_t>(kEventTag)) {
      if (!have_ring) break;  // events before any header: corrupt
      TraceEvent event;
      std::uint8_t kind = 0;
      if (!r.ReadU32(event.round) || !r.ReadU16(event.slot) ||
          !r.ReadU8(kind) || !r.ReadU8(event.tag) || !r.ReadU64(event.a) ||
          !r.ReadU64(event.b) || !r.AtEnd()) {
        break;
      }
      event.kind = static_cast<EventKind>(kind);
      result.traces.back().ring.Record(event);
    } else {
      break;  // unknown frame type
    }
  }
  if (pos < bytes.size()) {
    result.salvaged = true;
    result.dropped_bytes = bytes.size() - pos;
  }
  if (result.traces.empty()) {
    result.ok = bytes.empty();
    if (!result.ok) result.error = "no valid trace header";
    return result;
  }
  result.ok = true;
  return result;
}

bool Matches(const TraceQuery& query, const TraceEvent& event) {
  if (event.round < query.from_round || event.round > query.to_round) {
    return false;
  }
  if (query.tag >= 0 && event.tag != static_cast<std::uint8_t>(query.tag)) {
    return false;
  }
  if (query.kind >= 0 &&
      static_cast<int>(event.kind) != query.kind) {
    return false;
  }
  return true;
}

std::string TraceToJsonl(std::string_view name, const TraceRing& ring,
                         const TraceQuery& query) {
  std::string out;
  char line[256];
  for (const TraceEvent& event : ring.Events()) {
    if (!Matches(query, event)) continue;
    char slot_buf[16];
    if (event.slot == kNoSlot) {
      std::snprintf(slot_buf, sizeof slot_buf, "null");
    } else {
      std::snprintf(slot_buf, sizeof slot_buf, "%u",
                    static_cast<unsigned>(event.slot));
    }
    std::snprintf(line, sizeof line,
                  "{\"trace\":\"%.*s\",\"round\":%" PRIu32
                  ",\"slot\":%s,\"kind\":\"%s\",\"tag\":%u,\"a\":%" PRIu64
                  ",\"b\":%" PRIu64 "}\n",
                  static_cast<int>(name.size()), name.data(), event.round,
                  slot_buf, EventKindName(event.kind),
                  static_cast<unsigned>(event.tag), event.a, event.b);
    out += line;
  }
  return out;
}

std::string TracesToJsonl(const std::vector<NamedTrace>& traces,
                          const TraceQuery& query) {
  std::string out;
  for (const NamedTrace& trace : traces) {
    out += TraceToJsonl(trace.name, trace.ring, query);
  }
  return out;
}

}  // namespace freerider::obs
