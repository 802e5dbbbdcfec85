// Versioned, CRC-32-framed campaign checkpoints for the sweep runtime.
//
// A long campaign (figure sweep, chaos soak, multitag run) is a grid
// of deterministic (point, trial) tasks; losing the process to a kill,
// OOM or CI timeout should cost the *in-flight* work only, never the
// completed points. A checkpoint is therefore a flat sequence of
// self-validating frames:
//
//   file   := header-frame record-frame*
//   frame  := [u32 payload_len][payload bytes][u32 crc32(payload)]
//             (common/frame.h, which owns the format and its cap)
//   header := magic 'FRCK', format version, campaign id, grid shape
//   record := grid index, task state (done | quarantined), an opaque
//             caller-serialized result payload
//
// Durability rules, in order of what they defend against:
//   * every snapshot is written whole to `<path>.tmp`, fsync'd, then
//     atomically renamed over `<path>` — a kill mid-snapshot leaves
//     the previous complete checkpoint in place, never a torn one;
//   * every frame carries its own CRC-32, so a truncated or bit-
//     flipped file (torn rename on a lesser filesystem, disk rot) is
//     detected and *salvaged*: decoding keeps every frame up to the
//     first invalid one and reports how many bytes it dropped;
//   * duplicate frames for the same grid index are tolerated (first
//     occurrence wins — results are deterministic, so any duplicate
//     of a valid frame carries the same payload) and counted.
//
// Resume correctness rests on the runtime's determinism contract: a
// task's result is a pure function of (seed, point, trial), so a
// restored payload is bit-identical to what re-running the task would
// produce, and a resumed campaign's BENCH_*.json output matches an
// uninterrupted run byte for byte at any --threads value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace freerider::runtime {

inline constexpr std::uint32_t kCheckpointMagic = 0x4652434Bu;  // 'FRCK'
inline constexpr std::uint32_t kCheckpointVersion = 1;

struct CheckpointHeader {
  std::uint32_t version = kCheckpointVersion;
  std::uint64_t campaign = 0;  ///< CampaignId() of the owning sweep.
  std::uint64_t points = 0;
  std::uint64_t trials = 0;
};

enum class TaskState : std::uint8_t {
  kDone = 1,
  kQuarantined = 2,
};

struct TaskRecord {
  std::uint64_t index = 0;  ///< Grid index (point * trials + trial).
  TaskState state = TaskState::kDone;
  std::string payload;  ///< Caller-serialized result (empty if quarantined).
};

/// Stable campaign identity: a hash of the driver's name and master
/// seed. Resume refuses a checkpoint whose campaign id (or grid shape,
/// carried separately in the header) does not match the running sweep.
std::uint64_t CampaignId(std::string_view name, std::uint64_t seed);

/// Serialize a full checkpoint image (header frame + one frame per
/// record, in the order given).
std::string EncodeCheckpoint(const CheckpointHeader& header,
                             const std::vector<TaskRecord>& records);

struct CheckpointDecodeResult {
  /// Header frame decoded and sane. False means the file is not a
  /// checkpoint (or its very first frame is corrupt) — nothing usable.
  bool ok = false;
  /// True when trailing bytes after the last valid frame were dropped
  /// (truncation, torn write, bit flip). The kept prefix is valid.
  bool salvaged = false;
  std::size_t frames_kept = 0;      ///< Record frames accepted.
  std::size_t duplicates = 0;       ///< Frames ignored (index seen before).
  std::size_t dropped_bytes = 0;    ///< Bytes discarded after the prefix.
  CheckpointHeader header;
  std::vector<TaskRecord> records;  ///< First-wins deduped, frame order.
  std::string error;                ///< Set when !ok.
};

/// Decode a checkpoint image. Never throws on hostile input: any
/// malformed suffix is dropped (salvage) and a malformed header yields
/// `ok == false`. Deterministic: the same bytes always decode to the
/// same result.
CheckpointDecodeResult DecodeCheckpoint(std::string_view bytes);

/// Write `bytes` to `path` atomically: write `<path>.tmp`, fsync,
/// rename over `path`. Returns false (with `error` set) on any I/O
/// failure; `path` then still holds its previous content.
bool WriteFileAtomic(const std::string& path, std::string_view bytes,
                     std::string* error = nullptr);

/// Read a whole file. Returns false if it cannot be opened/read.
bool ReadFileBytes(const std::string& path, std::string* out);

// ------------------------------------------------------------------
// Payload (de)serialization helpers. Text-based and byte-exact:
// integers in decimal, doubles as hex-floats (%a round-trips every
// finite double bit for bit), strings length-prefixed so they may
// contain any byte. Restored results must be *bit-identical* to
// recomputed ones — this is the resume-determinism currency.
//
// PayloadWriter and PayloadReader share one method set, so each
// payload is a single field list that both directions run:
//
//   template <class Io, class T>  // T is const when writing
//   bool PointFields(Io& io, T& p) {
//     return io.Version(kPointVersion) && io.F64(p.rate) &&
//            io.Seq(p.counts, kMaxTags,
//                   [&io](auto& c) { return io.Size(c); });
//   }
//
// Every writer method appends its field and returns true. Every reader
// method returns false on a malformed or out-of-bounds field.

class PayloadWriter {
 public:
  bool U64(std::uint64_t v);
  bool Size(std::size_t v) { return U64(v); }
  bool Bool(bool v) { return U64(v ? 1 : 0); }
  bool U8(std::uint8_t v) { return U64(v); }
  bool F64(double v);
  bool Str(std::string_view s);
  bool Version(std::uint64_t version) { return U64(version); }
  template <class E>
  bool Enum(E v, E /*max*/) {
    return U64(static_cast<std::uint64_t>(v));
  }
  /// The element count, then each element through `field`.
  template <class Vec, class Field>
  bool Seq(const Vec& seq, std::size_t /*cap*/, Field field) {
    U64(seq.size());
    for (const auto& element : seq) field(element);
    return true;
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  bool U64(std::uint64_t& v);
  bool Size(std::size_t& v);
  /// A U64 field that must be 0 or 1.
  bool Bool(bool& v);
  /// A U64 field that must be at most 255.
  bool U8(std::uint8_t& v);
  bool F64(double& v);
  bool Str(std::string& s);
  /// A U64 field that must equal `version`.
  bool Version(std::uint64_t version);
  /// A U64 field that must be at most `max`.
  template <class E>
  bool Enum(E& v, E max) {
    std::uint64_t u = 0;
    if (!U64(u) || u > static_cast<std::uint64_t>(max)) return false;
    v = static_cast<E>(u);
    return true;
  }
  /// An element count of at most `cap`, then each element through
  /// `field`. Elements are appended one at a time, so a hostile count
  /// allocates nothing its bytes do not back.
  template <class Vec, class Field>
  bool Seq(Vec& seq, std::size_t cap, Field field) {
    std::size_t n = 0;
    if (!Size(n) || n > cap) return false;
    seq.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!field(seq.emplace_back())) return false;
    }
    return true;
  }
  /// True when every field has been consumed (trailing garbage is a
  /// deserialization failure, not silence).
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Reads a whole payload into a fresh T through `fields(reader, value)`.
/// `*out` changes only when the field list succeeds and consumes every
/// byte, so a failed decode leaves the target untouched.
template <class T, class Fields>
bool ReadPayload(std::string_view payload, T* out, Fields fields) {
  PayloadReader r(payload);
  T value;
  if (!fields(r, value) || !r.AtEnd()) return false;
  *out = std::move(value);
  return true;
}

}  // namespace freerider::runtime
