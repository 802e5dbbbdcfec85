#pragma once

// Flight-recorder trace ring.
//
// The flight recorder answers "why did this campaign produce that number"
// after the fact: every layer of the simulated stack records small,
// fixed-size events into a bounded ring, and the ring survives into the
// campaign's result payload so a resumed run replays the exact recording.
//
// Determinism contract: events are timestamped in VIRTUAL time — the
// (round, slot) coordinates of the simulation — never wall clock.  Any
// code path that records into a TraceRing must itself be deterministic in
// the campaign seed, so serialized rings are byte-identical at any
// --threads and across kill/resume.  Scheduling-dependent happenings
// (task steals, retries, checkpoint writes, wall-clock durations) belong
// in the TIMING channel instead: obs/profile.h, which is explicitly
// excluded from byte-diffs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace freerider::obs {

// Event taxonomy.  Explicit values: they are the on-wire encoding.
enum class EventKind : std::uint8_t {
  kFrameTx = 1,        // tag fired a data frame       a=seq b=redundancy reps
  kFrameRx = 2,        // in-order delivery to the app a=seq b=flush batch pos
  kFrameFaded = 3,     // frame lost to the channel    a=seq b=redundancy reps
  kHoleSkip = 4,       // receiver skipped a lost seq  a=seq
  kArqResend = 5,      // tag retransmitted            a=seq b=tx count so far
  kArqExpire = 6,      // tag gave up on a seq         a=seq b=tx count total
  kRxReject = 7,       // rx dropped a frame           a=seq b=RxError value
  kFsmTransition = 8,  // health FSM moved             a=(from<<8)|to b=misbeh
  kProbe = 9,          // supervisor sent a probe      a=probes so far
  kQuarantine = 10,    // sim acted on a quarantine    a=misbehavior flag
  kResync = 11,        // receive stream re-anchored   a=readmitted tag count
  kPoliceEvidence = 12,  // MAC police flagged a tag   a=evidence b=collisions
  kRogueFire = 13,     // rogue emitted a frame        a=seq b=fault model
  kCheckpoint = 14,    // campaign-visible checkpoint  a=payload bytes
  kMacRound = 15,      // Aloha round summary a=(singles<<16)|collisions b=slots
};

// Slot value for events that happen at round scope (between slots).
inline constexpr std::uint16_t kNoSlot = 0xFFFF;

// Stable lowercase name for an event kind ("frame_tx", ...); "unknown"
// for values outside the taxonomy.
const char* EventKindName(EventKind kind);

// Reverse lookup for CLI filters.  Returns -1 if the name is not a kind.
int EventKindFromName(std::string_view name);

struct TraceEvent {
  std::uint32_t round = 0;
  std::uint16_t slot = kNoSlot;
  EventKind kind = EventKind::kFrameTx;
  std::uint8_t tag = 0;  // 1-based wire id; 0 = no tag association
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  bool operator==(const TraceEvent&) const = default;
};

// Bounded ring of TraceEvents.  Keeps the most recent `capacity` events;
// older events are dropped (counted, never resized).  Not thread-safe by
// design: each ring is owned by one deterministic campaign.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = kDefaultCapacity);

  void Record(const TraceEvent& event);
  void Record(EventKind kind, std::uint32_t round, std::uint16_t slot,
              std::uint8_t tag, std::uint64_t a = 0, std::uint64_t b = 0) {
    Record(TraceEvent{round, slot, kind, tag, a, b});
  }

  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  // Total events ever recorded (size() + dropped()).
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(buf_.size());
  }

  // Events oldest -> newest.
  std::vector<TraceEvent> Events() const;

  void Clear();

  // Codec-only: restores the pre-export drop count when a serialized ring
  // is decoded, so recorded()/dropped() round-trip without replaying the
  // dropped events.
  void RestoreDropCount(std::uint64_t n) { recorded_ += n; }

  static constexpr std::size_t kDefaultCapacity = 4096;
  // Hard upper bound on capacity accepted by the codec; keeps a flipped
  // header from asking the decoder to reserve gigabytes.
  static constexpr std::size_t kMaxCapacity = 1u << 20;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of oldest event when the ring is full
  std::uint64_t recorded_ = 0;
  std::vector<TraceEvent> buf_;
};

// A ring plus the label it is exported under ("seed17_on", ...).
struct NamedTrace {
  std::string name;
  TraceRing ring;
};

// ---- Binary codec ----------------------------------------------------
//
// file   := ring*
// ring   := header-frame event-frame*
// frame  := [u32 len][payload][u32 crc32(payload)]      (common/frame.h)
// header := 'H' magic:u32('FROB') version:u32 name:str
//           capacity:u64 recorded:u64
// event  := 'E' round:u32 slot:u16 kind:u8 tag:u8 a:u64 b:u64
//
// Decoding salvages: the longest valid frame prefix is kept, the torn or
// corrupt tail is dropped and reported, and a ring whose trailing events
// are missing still round-trips what survived.

inline constexpr std::uint32_t kTraceMagic = 0x464F5242;  // 'BROF' LE
inline constexpr std::uint32_t kTraceVersion = 1;

std::string SerializeTraces(const std::vector<NamedTrace>& traces);
std::string SerializeTrace(std::string_view name, const TraceRing& ring);

struct TraceDecodeResult {
  bool ok = false;         // at least the first header decoded
  bool salvaged = false;   // trailing bytes were dropped
  std::size_t dropped_bytes = 0;
  std::string error;       // set when !ok
  std::vector<NamedTrace> traces;
};

TraceDecodeResult DecodeTraces(std::string_view bytes);

// ---- Queries and JSONL export ----------------------------------------

struct TraceQuery {
  std::uint32_t from_round = 0;
  std::uint32_t to_round = 0xFFFFFFFFu;  // inclusive
  int tag = -1;   // -1 = any
  int kind = -1;  // -1 = any; otherwise an EventKind value
};

bool Matches(const TraceQuery& query, const TraceEvent& event);

// One JSON object per line, deterministic field order:
// {"trace":"...","round":N,"slot":N,"kind":"frame_tx","tag":N,"a":N,"b":N}
// Round-scope events serialize "slot":null.
std::string TraceToJsonl(std::string_view name, const TraceRing& ring,
                         const TraceQuery& query = {});
std::string TracesToJsonl(const std::vector<NamedTrace>& traces,
                          const TraceQuery& query = {});

}  // namespace freerider::obs
