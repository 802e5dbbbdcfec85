// Reliable tag-data transport: PLM-acknowledged selective-repeat ARQ.
//
// The uplink (tag → coordinator) rides backscattered tag frames that
// now carry an 8-bit transport sequence number; the downlink feedback
// (coordinator → tag) is the ACK extension piggybacked on the round
// announcement (transport/ack.h). Both ends are deliberately tiny
// state machines — the tag side has to be plausible on an AGLN250-class
// FPGA, so there is no clock beyond the MAC round counter and every
// buffer is bounded up front.
//
// Tag side (TagTransport): a bounded queue of frames awaiting
// acknowledgement. Selective repeat: NACKed sequences are resent
// first, then never-sent frames inside the window, then unacknowledged
// frames whose last transmission is older than the retransmit timeout
// (tail-loss recovery — a lost frame at the window edge produces no
// NACK because the coordinator never sees anything newer). Repeated
// NACKs escalate the frame's translation redundancy up PR 1's ladder
// (each step doubles codewords per tag bit), trading rate for
// reliability exactly like the link-level rate controller. A frame
// that exhausts max_transmissions or outlives expiry_rounds is dropped
// (give-up policy): a dead link must never wedge the queue.
//
// Coordinator side (CoordinatorTransport): per-tag receive state —
// next expected sequence, a window bitmap of out-of-order arrivals,
// duplicate rejection, and in-order delivery to the application. A
// hole that persists hole_skip_rounds (the receiver's mirror of the
// tag's give-up) is skipped so one expired frame cannot dam the
// stream forever; skips are reported, never silent.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"
#include "transport/ack.h"

namespace freerider::transport {

struct TransportConfig {
  /// Off by default: every consumer of the multitag simulator keeps
  /// bit-for-bit legacy behaviour unless it opts in.
  bool enabled = false;
  /// Selective-repeat window (frames in flight past the first
  /// unacknowledged one). Capped by the NACK bitmap span.
  std::size_t window = kNackBitmapBits;
  /// Bound on queued + in-flight frames at the tag.
  std::size_t queue_capacity = 64;
  /// Give-up: drop a frame after this many transmissions...
  std::size_t max_transmissions = 10;
  /// ...or once it has aged this many rounds since enqueue.
  std::size_t expiry_rounds = 128;
  /// Resend an unacknowledged frame after this many rounds without
  /// feedback (tail-loss recovery).
  std::size_t rto_rounds = 3;
  /// Escalate translation redundancy one ladder step (×2) per this
  /// many NACKs of the same frame.
  std::size_t escalate_after_nacks = 2;
  /// Ladder steps above the base redundancy a frame may climb.
  std::size_t max_escalation_steps = 2;
  /// ACK blocks the coordinator piggybacks per announcement (rotated
  /// round-robin over tags; capped at kMaxAckBlocks).
  std::size_t ack_blocks_per_round = 4;
  /// Receiver-side give-up: skip a missing sequence after the stream
  /// has been blocked on it this many rounds.
  std::size_t hole_skip_rounds = 64;
  /// Replay protection: reject an in-window arrival whose sequence was
  /// already delivered fewer than 256 stream positions ago. Exact by
  /// serial arithmetic — a legitimate new instance of the same 8-bit
  /// sequence requires a full wrap of the space — so it costs honest
  /// tags nothing and closes the across-the-wrap forward alias a
  /// replaying rogue can reach. The memory is cleared on a stream
  /// resync (the re-anchor makes old positions meaningless and the tag
  /// may legally retransmit across it).
  bool replay_guard = true;
  /// Classification threshold for behind-the-delivery-point arrivals:
  /// deeper than this many sequences behind is a *stale replay*
  /// (misbehavior evidence), not a plausible retransmission. Honest
  /// retries trail the delivery point by at most a window or two even
  /// through hole-skips.
  std::size_t replay_stale_behind = 64;
};

/// Receive-path error taxonomy: every frame the coordinator does not
/// deliver is classified, counted and surfaced — malformed or hostile
/// input never crashes the receive path and is never silently dropped.
enum class RxError : std::uint8_t {
  kNone = 0,        ///< Frame delivered (or buffered) normally.
  kDuplicate,       ///< Behind the delivery point: plausible retransmit.
  kStaleReplay,     ///< Deep behind the delivery point: replayed frame.
  kReplayAlias,     ///< In-window but delivered <256 positions ago —
                    ///< a replay aliased across the 8-bit wrap.
  kBeyondWindow,    ///< Ahead of the receive window: corrupt or hostile.
  kDuplicateOoo,    ///< Already buffered out-of-order: retransmit race.
};

const char* RxErrorName(RxError error);

/// Serial (mod-256) sequence comparison: distance from `from` to `to`
/// going forward.
inline std::uint8_t SeqDistance(std::uint8_t from, std::uint8_t to) {
  return static_cast<std::uint8_t>(to - from);
}

// ---------------------------------------------------------------- tag

struct TagTxStats {
  std::size_t offered = 0;          ///< Frames accepted into the queue.
  std::size_t rejected_full = 0;    ///< Enqueue refused, queue at capacity.
  std::size_t transmissions = 0;    ///< Frames sent, first tries included.
  std::size_t retransmissions = 0;  ///< Second and later tries.
  std::size_t acked = 0;            ///< Frames cumulatively acknowledged.
  std::size_t nacks = 0;            ///< NACK bits received for live frames.
  std::size_t expired = 0;          ///< Frames dropped by the give-up policy.
  std::size_t escalations = 0;      ///< Transmissions sent above base N.
};

class TagTransport {
 public:
  explicit TagTransport(const TransportConfig& config);

  /// Hand a frame to the transport. False (and no sequence consumed)
  /// when the bounded queue is full.
  bool Enqueue(std::size_t round);

  struct TxDecision {
    std::uint8_t seq = 0;
    /// Redundancy ladder steps above base for this transmission.
    std::size_t escalation_steps = 0;
    bool retransmission = false;
  };

  /// Pick the frame to backscatter this slot, selective-repeat order.
  /// std::nullopt when nothing is pending inside the window. Marks the
  /// transmission (call at most once per slot actually used).
  std::optional<TxDecision> NextFrame(std::size_t round);

  /// Apply ACK feedback heard on the announcement downlink.
  void OnAck(const TagAck& ack, std::size_t round);

  /// Per-round housekeeping: age-based expiry.
  void OnRoundStart(std::size_t round);

  bool HasPending() const { return !queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint8_t next_seq() const { return next_seq_; }
  const TagTxStats& stats() const { return stats_; }

  /// Flight-recorder sink (optional, non-owning). Resends and give-up
  /// expiries are recorded under `wire_id` in virtual round time; a
  /// null ring disables recording with zero behavior change.
  void set_trace(obs::TraceRing* trace, std::uint8_t wire_id) {
    trace_ = trace;
    wire_id_ = wire_id;
  }

 private:
  struct Entry {
    std::uint8_t seq = 0;
    std::size_t transmissions = 0;
    std::size_t last_tx_round = 0;
    std::size_t enqueue_round = 0;
    std::size_t nacks = 0;
    bool nack_pending = false;
  };

  void Expire(std::size_t round);
  std::size_t EscalationSteps(const Entry& entry) const;

  TransportConfig config_;
  std::deque<Entry> queue_;  ///< Ordered by sequence, front = oldest.
  std::uint8_t next_seq_ = 0;
  TagTxStats stats_;
  obs::TraceRing* trace_ = nullptr;
  std::uint8_t wire_id_ = 0;
};

// -------------------------------------------------------- coordinator

struct TagRxStats {
  std::size_t delivered = 0;        ///< In-order deliveries to the app.
  std::size_t duplicates = 0;       ///< CRC-valid frames seen twice.
  std::size_t out_of_order = 0;     ///< Buffered past a hole.
  std::size_t holes_skipped = 0;    ///< Sequences given up on.
  std::size_t beyond_window = 0;    ///< Frames outside the rx window.
  std::size_t ooo_evicted = 0;      ///< Buffered frames dropped by eviction.
  std::size_t resyncs = 0;          ///< Stream re-anchors after silence.
  std::size_t replay_rejected = 0;  ///< Forward-aliased replays refused.
  std::size_t stale_rejected = 0;   ///< Deep-stale replays among duplicates.
};

/// Per-tag receive state at the coordinator.
class CoordinatorTagRx {
 public:
  explicit CoordinatorTagRx(const TransportConfig& config);

  /// Process one CRC-valid uplink frame. Returns the sequences flushed
  /// to the application, in delivery order.
  std::vector<std::uint8_t> OnFrame(std::uint8_t seq, std::size_t round);

  /// End-of-round tick: may skip a hole that has blocked the stream
  /// too long. Skipped sequences go to `skipped`; any buffered run
  /// behind the hole is returned as deliveries.
  std::vector<std::uint8_t> OnRoundEnd(std::size_t round,
                                       std::vector<std::uint8_t>& skipped);

  /// Snapshot for the announcement extension.
  TagAck Ack(std::uint8_t tag_id) const;

  /// Drop every buffered out-of-order frame and clear the hole clock.
  /// The link supervisor calls this on the quarantine transition: a
  /// tag that went silent mid-frame must not pin its reassembly buffer
  /// (and the coordinator's NACK state) forever.
  void EvictOoo();

  /// Re-anchor the stream: the next CRC-valid frame heard becomes the
  /// new delivery point regardless of the old next_expected_. Used
  /// when a tag returns from quarantine/blackout — after a long
  /// silence the serial-number comparison window is meaningless, and
  /// without a resync every resumed frame would land in the "behind
  /// the delivery point" half and be dropped as a duplicate forever.
  void BeginResync();

  bool resync_pending() const { return resync_pending_; }
  /// Out-of-order frames currently buffered (open NACK holes ahead of
  /// the delivery point feed the supervisor's retransmit-pressure
  /// estimator).
  std::size_t BufferedOoo() const;

  const TagRxStats& stats() const { return stats_; }
  std::uint8_t next_expected() const { return next_expected_; }

  /// Flight-recorder sink (optional, non-owning). Records rejected
  /// receptions (replay/stale/beyond-window) and stream re-anchors.
  void set_trace(obs::TraceRing* trace, std::uint8_t wire_id) {
    trace_ = trace;
    wire_id_ = wire_id;
  }
  /// Classification of the last OnFrame call (kNone = delivered or
  /// buffered). The taxonomy feeds the MAC police's evidence stream.
  RxError last_error() const { return last_error_; }

  /// How OnFrame classifies this sequence, without mutating any receive
  /// state (kNone = it would deliver, buffer, or sanction a pending
  /// resync re-anchor). OnFrame does the re-anchor first and then acts
  /// on this. It is also used for frames that are heard but embargoed
  /// from the stream — a misbehavior-quarantined tag's probe answers
  /// must still be classified so a stale or beyond-window answer keeps
  /// incriminating it, while the untouched stream state keeps an
  /// honestly-rehabilitating tag's classification identical to what
  /// delivery would have seen.
  RxError Classify(std::uint8_t seq) const {
    if (resync_pending_ && SeqDistance(next_expected_, seq) >= config_.window) {
      return RxError::kNone;  // would re-anchor: sanctioned
    }
    const std::uint8_t d = SeqDistance(next_expected_, seq);
    if (d >= 128) {
      // Behind the delivery point: a retransmission of something
      // already delivered (or skipped). A *plausible* retransmission
      // trails by at most a window or two (ACK lag, hole-skips);
      // anything deeper is a stale replay and counts as misbehavior
      // evidence.
      return SeqDistance(seq, next_expected_) > config_.replay_stale_behind
                 ? RxError::kStaleReplay
                 : RxError::kDuplicate;
    }
    if (d == 0) return RxError::kNone;
    // The tag must not send past the window; a frame here is corrupt or
    // hostile. Accepting it would let one bogus sequence fast-forward
    // the stream over real data.
    if (d >= config_.window) return RxError::kBeyondWindow;
    // In the forward window, but this exact sequence was delivered less
    // than a full wrap of stream positions ago — a legitimate new
    // instance is impossible by serial arithmetic (the tag would have
    // had to wrap the whole 8-bit space first). This is a replay aliased
    // across the wrap; accepting it would hand the replayed payload to
    // the application as fresh out-of-order data.
    if (config_.replay_guard && delivered_seen_.test(seq) &&
        position_ - delivered_pos_[seq] < 256) {
      return RxError::kReplayAlias;
    }
    if ((rx_bitmap_ & (std::uint32_t{1} << d)) != 0) {
      return RxError::kDuplicateOoo;
    }
    return RxError::kNone;
  }

 private:
  std::vector<std::uint8_t> FlushInOrder();
  void RecordDelivered(std::uint8_t seq);

  TransportConfig config_;
  std::uint8_t next_expected_ = 0;
  /// Bit j: sequence next_expected_ + j received out of order
  /// (bit 0 is always clear — that arrival would have advanced).
  std::uint32_t rx_bitmap_ = 0;
  std::size_t blocked_since_round_ = 0;
  bool blocked_ = false;
  bool resync_pending_ = false;
  RxError last_error_ = RxError::kNone;
  /// Replay-guard memory: the stream position at which each 8-bit
  /// sequence was last delivered. Positions are 64-bit so they never
  /// alias; the guard compares against a full wrap (256 positions).
  std::uint64_t position_ = 0;
  std::array<std::uint64_t, 256> delivered_pos_{};
  std::bitset<256> delivered_seen_;
  TagRxStats stats_;
  obs::TraceRing* trace_ = nullptr;
  std::uint8_t wire_id_ = 0;
};

/// All tags' receive state plus the round-robin ACK block scheduler.
class CoordinatorTransport {
 public:
  CoordinatorTransport(std::size_t num_tags, const TransportConfig& config);

  /// Tag ids are 1-based on the air (0 is reserved); out-of-range ids
  /// are rejected by the caller before reaching here.
  CoordinatorTagRx& rx(std::size_t tag_index) { return rx_[tag_index]; }
  const CoordinatorTagRx& rx(std::size_t tag_index) const {
    return rx_[tag_index];
  }
  std::size_t num_tags() const { return rx_.size(); }

  /// ACK blocks for the next announcement: up to ack_blocks_per_round
  /// tags and at most `max_blocks` (what the announced extension version
  /// can carry), rotating by the blocks returned so every tag is covered
  /// every ⌈N/blocks⌉ rounds.
  AckExtension BuildExtension(std::size_t max_blocks = kMaxAckBlocks);

 private:
  TransportConfig config_;
  std::vector<CoordinatorTagRx> rx_;
  std::size_t rotation_ = 0;
};

}  // namespace freerider::transport
