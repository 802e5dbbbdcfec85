#include "runtime/dist/wire.h"

#include "runtime/checkpoint.h"

namespace freerider::runtime::dist {

namespace {

/// The type, then the fields that type carries. An unknown type never
/// decodes. M is const when writing.
template <class Io, class M>
bool MsgFields(Io& io, M& m) {
  if (!io.Enum(m.type, MsgType::kShutdown)) return false;
  switch (m.type) {
    case MsgType::kStart:
      return io.U64(m.points) && io.U64(m.trials) && io.Str(m.body) &&
             io.Str(m.params);
    case MsgType::kStartAck:
      return io.Bool(m.ok) && io.Str(m.error);
    case MsgType::kTask:
      return io.U64(m.index);
    case MsgType::kResult:
      return io.U64(m.index) && io.Enum(m.status, ResultStatus::kThrew) &&
             io.Str(m.payload);
    case MsgType::kHeartbeat:
      return io.U64(m.seq);
    case MsgType::kShutdown:
      return true;
  }
  return false;
}

}  // namespace

std::string EncodeMsg(const WireMsg& msg) {
  PayloadWriter w;
  MsgFields(w, msg);
  return w.Take();
}

bool DecodeMsg(std::string_view payload, WireMsg* msg) {
  return ReadPayload(payload, msg,
                     [](auto& r, auto& m) { return MsgFields(r, m); });
}

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 8);
  AppendFrame(out, payload);
  return out;
}

FrameStatus FrameStream::Next(std::string* payload) {
  if (corrupt_) return FrameStatus::kCorrupt;
  // Compact lazily so repeated short reads do not re-copy the buffer.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  const ParsedFrame frame = ParseFrame(std::string_view(buf_).substr(pos_));
  if (frame.status == FrameStatus::kCorrupt) corrupt_ = true;
  if (frame.status != FrameStatus::kFrame) return frame.status;
  payload->assign(frame.payload);
  pos_ += frame.size;
  return FrameStatus::kFrame;
}

}  // namespace freerider::runtime::dist
