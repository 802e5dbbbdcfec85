#include "transport/arq.h"

#include <algorithm>

namespace freerider::transport {
namespace {

/// True when `seq` is at or before `reference` in serial order, seen
/// from `base` (i.e. both measured as forward distance from base).
bool SeqCoveredBy(std::uint8_t base, std::uint8_t seq, std::uint8_t reference) {
  return SeqDistance(base, seq) <= SeqDistance(base, reference);
}

}  // namespace

const char* RxErrorName(RxError error) {
  switch (error) {
    case RxError::kNone: return "none";
    case RxError::kDuplicate: return "duplicate";
    case RxError::kStaleReplay: return "stale_replay";
    case RxError::kReplayAlias: return "replay_alias";
    case RxError::kBeyondWindow: return "beyond_window";
    case RxError::kDuplicateOoo: return "duplicate_ooo";
  }
  return "?";
}

// ---------------------------------------------------------------- tag

TagTransport::TagTransport(const TransportConfig& config) : config_(config) {
  config_.window = std::min(config_.window, kNackBitmapBits);
  if (config_.window == 0) config_.window = 1;
  if (config_.max_transmissions == 0) config_.max_transmissions = 1;
}

bool TagTransport::Enqueue(std::size_t round) {
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.rejected_full;
    return false;
  }
  Entry entry;
  entry.seq = next_seq_++;
  entry.enqueue_round = round;
  queue_.push_back(entry);
  ++stats_.offered;
  return true;
}

void TagTransport::Expire(std::size_t round) {
  // The give-up policy only ever drops from the window head backwards
  // in sequence order; dropping an arbitrary middle frame would let
  // the window slide over a sequence the coordinator still NACKs.
  // Age/attempt expiry applies wherever the frame sits, though — a
  // frame behind an expired head is usually next to expire anyway.
  for (auto it = queue_.begin(); it != queue_.end();) {
    const bool too_many_tries = it->transmissions >= config_.max_transmissions;
    const bool too_old = round - it->enqueue_round > config_.expiry_rounds;
    if (too_many_tries || too_old) {
      ++stats_.expired;
      if (trace_ != nullptr) {
        trace_->Record(obs::EventKind::kArqExpire,
                       static_cast<std::uint32_t>(round), obs::kNoSlot,
                       wire_id_, it->seq, it->transmissions);
      }
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void TagTransport::OnRoundStart(std::size_t round) { Expire(round); }

std::size_t TagTransport::EscalationSteps(const Entry& entry) const {
  if (config_.escalate_after_nacks == 0) return 0;
  return std::min(entry.nacks / config_.escalate_after_nacks,
                  config_.max_escalation_steps);
}

std::optional<TagTransport::TxDecision> TagTransport::NextFrame(
    std::size_t round) {
  if (queue_.empty()) return std::nullopt;
  const std::uint8_t base = queue_.front().seq;

  Entry* pick = nullptr;
  // 1. NACKed frames — the coordinator told us exactly what is missing.
  for (Entry& e : queue_) {
    if (e.nack_pending) {
      pick = &e;
      break;
    }
  }
  // 2. Fresh frames inside the window.
  if (pick == nullptr) {
    for (Entry& e : queue_) {
      if (SeqDistance(base, e.seq) >= config_.window) break;
      if (e.transmissions == 0) {
        pick = &e;
        break;
      }
    }
  }
  // 3. Tail-loss recovery: oldest unacknowledged frame past the RTO.
  if (pick == nullptr) {
    for (Entry& e : queue_) {
      if (SeqDistance(base, e.seq) >= config_.window) break;
      if (round - e.last_tx_round >= config_.rto_rounds) {
        pick = &e;
        break;
      }
    }
  }
  if (pick == nullptr) return std::nullopt;

  TxDecision decision;
  decision.seq = pick->seq;
  decision.escalation_steps = EscalationSteps(*pick);
  decision.retransmission = pick->transmissions > 0;
  ++pick->transmissions;
  pick->last_tx_round = round;
  pick->nack_pending = false;
  ++stats_.transmissions;
  if (decision.retransmission) ++stats_.retransmissions;
  if (decision.escalation_steps > 0) ++stats_.escalations;
  if (trace_ != nullptr && decision.retransmission) {
    trace_->Record(obs::EventKind::kArqResend,
                   static_cast<std::uint32_t>(round), obs::kNoSlot, wire_id_,
                   decision.seq, pick->transmissions);
  }
  return decision;
}

void TagTransport::OnAck(const TagAck& ack, std::size_t round) {
  (void)round;
  if (queue_.empty()) return;
  const std::uint8_t base = queue_.front().seq;
  const std::uint8_t newest = queue_.back().seq;
  // Serial-number validity: a live ACK's cumulative sits in
  // [base - 1, newest] (base - 1 = "nothing new acknowledged"). All
  // distances are measured from base - 1 so the comparison stays a
  // plain unsigned one even when the 8-bit counter has wrapped between
  // base and newest. Anything outside that range is stale feedback
  // from (at least) a window ago — after wraparound its NACK bits
  // would alias *live* sequences (missing = cumulative + 1 + i lands
  // inside the queue), triggering spurious retransmissions and
  // redundancy escalation, so the whole block must be ignored, not
  // just the cumulative.
  const std::uint8_t anchor = static_cast<std::uint8_t>(base - 1);
  const std::uint8_t span = SeqDistance(anchor, newest);
  const std::uint8_t cum_dist = SeqDistance(anchor, ack.cumulative);
  if (span >= 128 || cum_dist > span) return;
  if (cum_dist > 0) {
    // `cumulative` acknowledges everything at or before it.
    while (!queue_.empty() &&
           SeqCoveredBy(base, queue_.front().seq, ack.cumulative)) {
      queue_.pop_front();
      ++stats_.acked;
    }
  }
  if (queue_.empty()) return;
  // NACK bitmap: explicit resend requests. Each claimed-missing
  // sequence must itself lie within the send window of the (possibly
  // just-advanced) base — bits past the window are aliases of the
  // stale half of the sequence space.
  const std::uint8_t new_base = queue_.front().seq;
  for (std::size_t i = 0; i < kNackBitmapBits; ++i) {
    if ((ack.nack_bitmap >> i) & 1u) {
      const std::uint8_t missing =
          static_cast<std::uint8_t>(ack.cumulative + 1 + i);
      if (SeqDistance(new_base, missing) >= config_.window) continue;
      for (Entry& e : queue_) {
        if (e.seq == missing) {
          if (!e.nack_pending) {
            e.nack_pending = true;
            ++e.nacks;
            ++stats_.nacks;
          }
          break;
        }
      }
    }
  }
}

// -------------------------------------------------------- coordinator

CoordinatorTagRx::CoordinatorTagRx(const TransportConfig& config)
    : config_(config) {
  config_.window = std::min(config_.window, kNackBitmapBits);
  if (config_.window == 0) config_.window = 1;
}

void CoordinatorTagRx::RecordDelivered(std::uint8_t seq) {
  delivered_pos_[seq] = position_++;
  delivered_seen_.set(seq);
}

std::vector<std::uint8_t> CoordinatorTagRx::FlushInOrder() {
  std::vector<std::uint8_t> delivered;
  RecordDelivered(next_expected_);
  delivered.push_back(next_expected_++);
  ++stats_.delivered;
  // The arrival that called us filled the head; drain the buffered run.
  rx_bitmap_ >>= 1;
  while (rx_bitmap_ & 1u) {
    RecordDelivered(next_expected_);
    delivered.push_back(next_expected_++);
    ++stats_.delivered;
    rx_bitmap_ >>= 1;
  }
  blocked_ = rx_bitmap_ != 0;
  return delivered;
}

std::vector<std::uint8_t> CoordinatorTagRx::OnFrame(std::uint8_t seq,
                                                    std::size_t round) {
  if (resync_pending_) {
    resync_pending_ = false;
    const std::uint8_t gap = SeqDistance(next_expected_, seq);
    if (gap >= config_.window) {
      // The first frame heard after the silence is outside the send
      // window of the old delivery point: the tag has moved on (gave
      // its backlog up and possibly wrapped the 8-bit space), so
      // serial comparison against the stale anchor would misclassify
      // live frames as duplicates. Re-anchor on what we heard. Frames
      // the tag retransmits across the re-anchor may be delivered
      // twice — callers needing exactly-once track positions above
      // the transport (see sim/stress). The replay-guard memory is
      // position-anchored to the old stream, so it is cleared with the
      // anchor: those retransmissions are sanctioned, not replays.
      next_expected_ = seq;
      rx_bitmap_ = 0;
      blocked_ = false;
      delivered_seen_.reset();
      ++stats_.resyncs;
      if (trace_ != nullptr) {
        trace_->Record(obs::EventKind::kResync,
                       static_cast<std::uint32_t>(round), obs::kNoSlot,
                       wire_id_, seq);
      }
    }
    // Inside the window the stream is still continuous: the tag kept
    // its backlog, the old anchor is exactly right, and re-anchoring
    // would flush every older undelivered frame the moment our
    // cumulative ACK caught up with the newer sequence. Fall through
    // to normal processing.
  }
  last_error_ = Classify(seq);
  switch (last_error_) {
    case RxError::kNone: {
      const std::uint8_t d = SeqDistance(next_expected_, seq);
      if (d == 0) {
        auto delivered = FlushInOrder();
        // If a hole remains it is a *different* hole than before the
        // flush (the stream advanced), so its starvation clock starts
        // now.
        if (blocked_) blocked_since_round_ = round;
        return delivered;
      }
      rx_bitmap_ |= std::uint32_t{1} << d;
      ++stats_.out_of_order;
      if (!blocked_) {
        blocked_ = true;
        blocked_since_round_ = round;
      }
      return {};
    }
    case RxError::kDuplicate:
    case RxError::kDuplicateOoo:
      ++stats_.duplicates;
      return {};
    case RxError::kStaleReplay:
      ++stats_.duplicates;
      ++stats_.stale_rejected;
      break;
    case RxError::kBeyondWindow:
      ++stats_.beyond_window;
      break;
    case RxError::kReplayAlias:
      ++stats_.replay_rejected;
      break;
  }
  // A rejection: misbehavior evidence, kept by the flight recorder.
  if (trace_ != nullptr) {
    trace_->Record(obs::EventKind::kRxReject, static_cast<std::uint32_t>(round),
                   obs::kNoSlot, wire_id_, seq,
                   static_cast<std::uint64_t>(last_error_));
  }
  return {};
}

std::vector<std::uint8_t> CoordinatorTagRx::OnRoundEnd(
    std::size_t round, std::vector<std::uint8_t>& skipped) {
  std::vector<std::uint8_t> delivered;
  if (!blocked_) return delivered;
  if (round - blocked_since_round_ < config_.hole_skip_rounds) {
    return delivered;
  }
  // The head hole has starved the stream long enough — the tag has
  // almost certainly expired the frame (its give-up policy is the
  // mirror of this timeout). Skip exactly one hole per round so a
  // burst of expiries drains gradually and visibly.
  ++stats_.holes_skipped;
  // A skipped sequence consumes a stream position but is never marked
  // delivered — its late retransmission must classify as a duplicate
  // behind the delivery point, not trip the replay guard.
  ++position_;
  skipped.push_back(next_expected_++);
  rx_bitmap_ >>= 1;
  while (rx_bitmap_ & 1u) {
    RecordDelivered(next_expected_);
    delivered.push_back(next_expected_++);
    ++stats_.delivered;
    rx_bitmap_ >>= 1;
  }
  blocked_ = rx_bitmap_ != 0;
  if (blocked_) blocked_since_round_ = round;
  return delivered;
}

void CoordinatorTagRx::EvictOoo() {
  std::uint32_t bitmap = rx_bitmap_;
  while (bitmap != 0) {
    stats_.ooo_evicted += bitmap & 1u;
    bitmap >>= 1;
  }
  rx_bitmap_ = 0;
  blocked_ = false;
}

void CoordinatorTagRx::BeginResync() { resync_pending_ = true; }

std::size_t CoordinatorTagRx::BufferedOoo() const {
  std::size_t n = 0;
  std::uint32_t bitmap = rx_bitmap_;
  while (bitmap != 0) {
    n += bitmap & 1u;
    bitmap >>= 1;
  }
  return n;
}

TagAck CoordinatorTagRx::Ack(std::uint8_t tag_id) const {
  TagAck ack;
  ack.tag_id = tag_id;
  ack.cumulative = static_cast<std::uint8_t>(next_expected_ - 1);
  // NACK everything below the newest out-of-order arrival that we do
  // not hold. rx_bitmap_ bit j covers next_expected_ + j; the ACK
  // bitmap's bit i covers cumulative + 1 + i = next_expected_ + i.
  std::uint32_t highest = 0;
  for (std::size_t j = 1; j < config_.window; ++j) {
    if ((rx_bitmap_ >> j) & 1u) highest = static_cast<std::uint32_t>(j);
  }
  std::uint16_t nacks = 0;
  for (std::uint32_t i = 0; i < highest; ++i) {
    if (((rx_bitmap_ >> i) & 1u) == 0) {
      nacks |= static_cast<std::uint16_t>(std::uint16_t{1} << i);
    }
  }
  ack.nack_bitmap = nacks;
  return ack;
}

CoordinatorTransport::CoordinatorTransport(std::size_t num_tags,
                                           const TransportConfig& config)
    : config_(config) {
  rx_.reserve(num_tags);
  for (std::size_t i = 0; i < num_tags; ++i) rx_.emplace_back(config);
}

AckExtension CoordinatorTransport::BuildExtension(std::size_t max_blocks) {
  AckExtension ext;
  if (rx_.empty()) return ext;
  const std::size_t blocks =
      std::min({config_.ack_blocks_per_round, rx_.size(), max_blocks});
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::size_t index = (rotation_ + i) % rx_.size();
    ext.acks.push_back(
        rx_[index].Ack(static_cast<std::uint8_t>(index + 1)));
  }
  rotation_ = (rotation_ + blocks) % rx_.size();
  return ext;
}

}  // namespace freerider::transport
