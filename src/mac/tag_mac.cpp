#include "mac/tag_mac.h"

#include "common/bits.h"

namespace freerider::mac {

std::optional<RoundAnnouncement> ParseAnnouncement(const BitVector& payload) {
  if (payload.size() != 16) return std::nullopt;
  return ParseAnnouncementPrefix(payload);
}

std::optional<RoundAnnouncement> ParseAnnouncementPrefix(
    const BitVector& payload) {
  if (payload.size() < 16) return std::nullopt;
  RoundAnnouncement a;
  a.slots = ReadBitsLsbFirst(payload, 0, 8);
  a.sequence = static_cast<std::uint8_t>(ReadBitsLsbFirst(payload, 8, 8));
  if (a.slots == 0) return std::nullopt;
  return a;
}

BitVector BuildAnnouncement(const RoundAnnouncement& announcement) {
  BitVector payload;
  AppendBitsLsbFirst(payload, static_cast<std::uint32_t>(announcement.slots),
                     8);
  AppendBitsLsbFirst(payload, announcement.sequence, 8);
  return payload;
}

TagController::TagController(std::uint64_t seed, PlmConfig plm_config,
                             TagRecoveryConfig recovery)
    : plm_config_(plm_config),
      recovery_(recovery),
      receiver_(recovery.extended_announcements
                    ? PlmMessageReceiver::ExtendedReceiver()
                    : PlmMessageReceiver(16)),
      rng_(seed) {}

std::optional<BitVector> TagController::TakeAnnouncementPayload() {
  std::optional<BitVector> payload = std::move(announcement_payload_);
  announcement_payload_.reset();
  return payload;
}

bool TagController::OnMessage(const BitVector& message, double pulse_time_s) {
  const auto announcement = recovery_.extended_announcements
                                ? ParseAnnouncementPrefix(message)
                                : ParseAnnouncement(message);
  if (!announcement.has_value() ||
      announcement->slots > recovery_.max_announced_slots) {
    ++malformed_rejected_;
    return false;
  }
  // Prefix-plausible: the ACK extension (if any) is worth handing to
  // the transport even when the round itself is stale or duplicate.
  if (recovery_.extended_announcements) announcement_payload_ = message;
  if (state_ == TagState::kSlotWait && round_.has_value() &&
      announcement->sequence == round_->sequence) {
    // The coordinator re-announced the round we are already in (its
    // backoff path). We hold our slot; re-drawing would double-count.
    ++stale_rejected_;
    return false;
  }
  if (state_ == TagState::kListening && last_sequence_.has_value() &&
      announcement->sequence == *last_sequence_) {
    // Duplicate of a round we already served — a replayed or
    // re-announced message must not make us transmit twice.
    ++stale_rejected_;
    return false;
  }
  if (state_ == TagState::kSlotWait) {
    // A *newer* round is being announced while we still wait for our
    // slot: the round we joined ended without us seeing its slots go
    // by. Abandon it and rejoin.
    ++desync_events_;
  }
  if (last_sequence_.has_value()) {
    const auto gap = static_cast<std::uint8_t>(
        announcement->sequence - *last_sequence_);
    if (gap > 1) ++sequence_gaps_;
  }
  round_ = announcement;
  chosen_slot_ = rng_.NextBelow(announcement->slots);
  slot_cursor_ = 0;
  state_ = TagState::kSlotWait;
  slot_wait_deadline_s_ =
      pulse_time_s + recovery_.slot_wait_grace *
                         static_cast<double>(announcement->slots) *
                         recovery_.slot_duration_s;
  ++announcements_accepted_;
  return true;
}

void TagController::OnPulse(const tag::MeasuredPulse& pulse) {
  if (state_ == TagState::kSlotWait) {
    if (!recovery_.listen_during_slot_wait) return;
    // Bounded slot-wait: pulse timestamps are the tag's only clock. If
    // the air has moved well past where our round should have ended,
    // the slot boundaries are never coming — give up and listen.
    if (pulse.start_s > slot_wait_deadline_s_) {
      ++desync_events_;
      state_ = TagState::kListening;
      round_.reset();
    }
  }
  const auto bit = ClassifyPulse(pulse, plm_config_);
  if (!bit.has_value()) return;  // ambient traffic, ignored
  const auto message = receiver_.PushBit(*bit);
  if (!message.has_value()) return;
  const double end_s = pulse.start_s + pulse.duration_s;
  OnMessage(*message, end_s);
}

bool TagController::OnSlotBoundary() {
  if (state_ != TagState::kSlotWait || !round_.has_value()) return false;
  const bool mine = slot_cursor_ == chosen_slot_;
  ++slot_cursor_;
  if (slot_cursor_ >= round_->slots) {
    state_ = TagState::kListening;
    last_sequence_ = round_->sequence;
    round_.reset();
  }
  return mine;
}

}  // namespace freerider::mac
