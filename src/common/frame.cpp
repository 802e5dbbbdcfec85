#include "common/frame.h"

#include "common/crc.h"

namespace freerider {

namespace {

std::uint32_t FramePayloadCrc(std::string_view payload) {
  return Crc32({reinterpret_cast<const std::uint8_t*>(payload.data()),
                payload.size()});
}

}  // namespace

void AppendFrame(std::string& out, std::string_view payload) {
  AppendU32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  AppendU32(out, FramePayloadCrc(payload));
}

ParsedFrame ParseFrame(std::string_view bytes) {
  ParsedFrame frame;
  ByteReader r(bytes);
  std::uint32_t len = 0;
  if (!r.ReadU32(len)) return frame;
  if (len > kMaxFramePayload) {
    frame.status = FrameStatus::kCorrupt;
    return frame;
  }
  if (bytes.size() - 4 < std::size_t{len} + 4) return frame;
  const std::string_view payload = bytes.substr(4, len);
  std::uint32_t stored = 0;
  ByteReader(bytes.substr(4 + std::size_t{len})).ReadU32(stored);
  if (stored != FramePayloadCrc(payload)) {
    frame.status = FrameStatus::kCorrupt;
    return frame;
  }
  frame.status = FrameStatus::kFrame;
  frame.payload = payload;
  frame.size = 8 + std::size_t{len};
  return frame;
}

}  // namespace freerider
