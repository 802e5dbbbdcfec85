// The one [u32 len][payload bytes][u32 crc32(payload)] frame format.
//
// Every byte stream the repo writes is a sequence of these frames:
// campaign checkpoints (runtime/checkpoint), TRACE and METRICS .bin
// files (obs/trace, obs/metrics) and the distributed sweep's pipes
// (runtime/dist/wire). One writer, one parser and one payload cap give
// one salvage rule: read frames until the first one that does not
// parse, keep the valid prefix, report the bytes dropped. Integers are
// little-endian throughout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace freerider {

/// Frames larger than this are corruption, not data: a length field
/// beyond it can only come from a torn or flipped header, and it is
/// rejected before any allocation is sized from it.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 28;

inline void AppendU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

inline void AppendU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void AppendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// A u32 length, then the bytes.
inline void AppendStr(std::string& out, std::string_view s) {
  AppendU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

/// Appends one frame: [u32 len][payload][u32 crc32(payload)].
void AppendFrame(std::string& out, std::string_view payload);

enum class FrameStatus : std::uint8_t {
  kFrame = 0,     ///< A whole, CRC-valid frame starts the bytes.
  kNeedMore = 1,  ///< Only a prefix of a frame is present.
  kCorrupt = 2,   ///< Oversized length field or CRC mismatch.
};

struct ParsedFrame {
  FrameStatus status = FrameStatus::kNeedMore;
  std::string_view payload;  ///< kFrame only: views into the input.
  std::size_t size = 0;      ///< kFrame only: bytes the whole frame spans.
};

/// Parses the frame at the start of `bytes`. On a pipe, kNeedMore means
/// "read more"; at the end of a whole buffer it is a torn tail.
ParsedFrame ParseFrame(std::string_view bytes);

/// Cursor over a byte buffer with bounds-checked little-endian reads.
/// Every Read* returns false (and leaves the output untouched) instead
/// of reading past the end, so decoders degrade to "truncated" rather
/// than UB on hostile input.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(std::uint8_t& v) { return ReadLe(v); }
  bool ReadU16(std::uint16_t& v) { return ReadLe(v); }
  bool ReadU32(std::uint32_t& v) { return ReadLe(v); }
  bool ReadU64(std::uint64_t& v) { return ReadLe(v); }

  /// Reads an AppendStr field.
  bool ReadStr(std::string& v) {
    std::uint32_t len = 0;
    if (!ReadU32(len)) return false;
    if (bytes_.size() - pos_ < len) return false;
    v.assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  bool ReadLe(T& v) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out |= std::uint64_t{static_cast<std::uint8_t>(bytes_[pos_ + i])}
             << (8 * i);
    }
    v = static_cast<T>(out);
    pos_ += sizeof(T);
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace freerider
