#include "runtime/dist/wire.h"

#include "runtime/checkpoint.h"

namespace freerider::runtime::dist {

std::string EncodeMsg(const WireMsg& msg) {
  PayloadWriter w;
  w.U64(static_cast<std::uint64_t>(msg.type));
  switch (msg.type) {
    case MsgType::kStart:
      w.U64(msg.points);
      w.U64(msg.trials);
      w.Str(msg.body);
      w.Str(msg.params);
      break;
    case MsgType::kStartAck:
      w.U64(msg.ok ? 1 : 0);
      w.Str(msg.error);
      break;
    case MsgType::kTask:
      w.U64(msg.index);
      break;
    case MsgType::kResult:
      w.U64(msg.index);
      w.U64(static_cast<std::uint64_t>(msg.status));
      w.Str(msg.payload);
      break;
    case MsgType::kHeartbeat:
      w.U64(msg.seq);
      break;
    case MsgType::kShutdown:
      break;
  }
  return w.Take();
}

bool DecodeMsg(std::string_view payload, WireMsg* msg) {
  PayloadReader r(payload);
  std::uint64_t type = 0;
  if (!r.U64(&type)) return false;
  WireMsg out;
  switch (type) {
    case static_cast<std::uint64_t>(MsgType::kStart): {
      out.type = MsgType::kStart;
      if (!r.U64(&out.points) || !r.U64(&out.trials) || !r.Str(&out.body) ||
          !r.Str(&out.params)) {
        return false;
      }
      break;
    }
    case static_cast<std::uint64_t>(MsgType::kStartAck): {
      out.type = MsgType::kStartAck;
      if (!r.Bool(&out.ok) || !r.Str(&out.error)) return false;
      break;
    }
    case static_cast<std::uint64_t>(MsgType::kTask): {
      out.type = MsgType::kTask;
      if (!r.U64(&out.index)) return false;
      break;
    }
    case static_cast<std::uint64_t>(MsgType::kResult): {
      out.type = MsgType::kResult;
      std::uint64_t status = 0;
      if (!r.U64(&out.index) || !r.U64(&status) || status > 2 ||
          !r.Str(&out.payload)) {
        return false;
      }
      out.status = static_cast<ResultStatus>(status);
      break;
    }
    case static_cast<std::uint64_t>(MsgType::kHeartbeat): {
      out.type = MsgType::kHeartbeat;
      if (!r.U64(&out.seq)) return false;
      break;
    }
    case static_cast<std::uint64_t>(MsgType::kShutdown): {
      out.type = MsgType::kShutdown;
      break;
    }
    default:
      return false;
  }
  if (!r.AtEnd()) return false;
  *msg = std::move(out);
  return true;
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
