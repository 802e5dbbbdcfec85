// Wire protocol for the distributed sweep coordinator (DESIGN.md §12).
//
// Coordinator and workers talk over anonymous pipes in the repo's one
// frame format — [u32 len][payload][u32 crc32(payload)], owned with its
// payload cap by common/frame.h — so one salvage/corruption rule covers
// every byte stream the repo produces. Message payloads use the checkpoint
// PayloadWriter grammar (decimal u64s, length-prefixed strings), so a
// result payload rides the wire bit-exactly the way it rides a
// checkpoint record.
//
// Robustness contract: the coordinator treats a worker's pipe as a
// hostile byte source. FrameStream classifies every read into whole
// frames, "need more bytes", or *corrupt* (oversized length field or
// CRC mismatch — a torn write or an injected bit flip). A corrupt
// stream is unrecoverable by construction (frame boundaries are gone),
// so the coordinator's move is always: kill the worker, release its
// leases, respawn. It never crashes and never trusts a frame whose CRC
// does not check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/frame.h"

namespace freerider::runtime::dist {

enum class MsgType : std::uint8_t {
  kStart = 1,     ///< coord→worker: body name/params + grid shape.
  kStartAck = 2,  ///< worker→coord: body factory found (or not).
  kTask = 3,      ///< coord→worker: one grid index to run.
  kResult = 4,    ///< worker→coord: index + status + payload.
  kHeartbeat = 5, ///< worker→coord: liveness beacon.
  kShutdown = 6,  ///< coord→worker: drain and exit 0.
};

/// Worker-side outcome of one task body invocation. Mirrors
/// RecoveryRunner's split: a *throwing* body is retryable, a body that
/// returns ok == false is a deterministic campaign-level failure.
enum class ResultStatus : std::uint8_t {
  kOk = 0,
  kFailed = 1,  ///< body returned ok == false (no retry).
  kThrew = 2,   ///< body threw (retry up to max_retries).
};

/// One decoded protocol message (tagged union, unused fields zero).
struct WireMsg {
  MsgType type = MsgType::kHeartbeat;
  // kStart
  std::uint64_t points = 0;
  std::uint64_t trials = 0;
  std::string body;
  std::string params;
  // kStartAck
  bool ok = false;
  std::string error;
  // kTask / kResult
  std::uint64_t index = 0;
  ResultStatus status = ResultStatus::kOk;
  std::string payload;
  // kHeartbeat
  std::uint64_t seq = 0;
};

/// Serialize one message payload (no outer frame).
std::string EncodeMsg(const WireMsg& msg);

/// Decode one message payload. False on any malformed input (unknown
/// type, short fields, trailing garbage) — never throws.
bool DecodeMsg(std::string_view payload, WireMsg* msg);

/// Wrap a payload in the outer [len][payload][crc32] frame.
std::string EncodeFrame(std::string_view payload);

/// FrameStream::Next reports ParseFrame's outcome for the next frame.
using ::freerider::FrameStatus;

/// Incremental frame extractor over a pipe byte stream. Feed() appends
/// raw read() bytes; Next() pops whole frames via ParseFrame. Once a
/// stream turns corrupt it stays corrupt: with the length fields
/// untrustworthy there is no way to find the next frame boundary.
class FrameStream {
 public:
  void Feed(const char* data, std::size_t n) { buf_.append(data, n); }
  void Feed(std::string_view bytes) { buf_.append(bytes); }

  FrameStatus Next(std::string* payload);

  bool corrupt() const { return corrupt_; }
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
};

}  // namespace freerider::runtime::dist
