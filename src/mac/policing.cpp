#include "mac/policing.h"

#include <algorithm>

namespace freerider::mac {
namespace {

/// Serial (mod-256) distance in the shorter direction.
std::size_t SerialGap(std::uint8_t from, std::uint8_t to) {
  const std::uint8_t forward = static_cast<std::uint8_t>(to - from);
  const std::uint8_t backward = static_cast<std::uint8_t>(from - to);
  return std::min<std::size_t>(forward, backward);
}

std::size_t PopCount(std::uint32_t bits) {
  std::size_t n = 0;
  while (bits != 0) {
    n += bits & 1u;
    bits >>= 1;
  }
  return n;
}

}  // namespace

SlotPolice::SlotPolice(const PolicingConfig& config, std::size_t num_tags)
    : config_(config), tags_(num_tags) {
  if (config_.max_frames_per_round == 0) config_.max_frames_per_round = 1;
  config_.clone_window_arrivals =
      std::clamp<std::size_t>(config_.clone_window_arrivals, 1, 32);
  if (config_.clone_jumps_to_suspect == 0) config_.clone_jumps_to_suspect = 1;
  config_.clone_jump_threshold =
      std::clamp<std::size_t>(config_.clone_jump_threshold, 1, 127);
}

void SlotPolice::BeginRound(std::size_t round) {
  round_ = round;
  if (!config_.enabled) return;
  for (TagState& t : tags_) {
    t.frames_this_round = 0;
    t.collision_this_round = false;
  }
}

void SlotPolice::OnFrame(std::size_t tag, std::uint8_t seq) {
  if (!config_.enabled || tag >= tags_.size()) return;
  TagState& t = tags_[tag];
  ++t.frames_this_round;
  const bool jump =
      t.has_last_seq && SerialGap(t.last_seq, seq) > config_.clone_jump_threshold;
  t.last_seq = seq;
  t.has_last_seq = true;
  t.jump_bits = (t.jump_bits << 1) | (jump ? 1u : 0u);
  if (config_.clone_window_arrivals < 32) {
    t.jump_bits &= (std::uint32_t{1} << config_.clone_window_arrivals) - 1;
  }
  ++t.arrivals;
  if (jump) ++t.stats.seq_jumps;
  if (!t.collision_latched &&
      PopCount(t.jump_bits) >= config_.clone_jumps_to_suspect) {
    t.collision_latched = true;
    t.collision_this_round = true;
    ++t.stats.collision_suspicions;
  }
}

void SlotPolice::OnUnattributedFrame() {
  if (!config_.enabled) return;
  ++stats_.unattributed_frames;
}

std::vector<std::size_t> SlotPolice::EndRound() {
  std::vector<std::size_t> evidence(tags_.size(), 0);
  if (!config_.enabled) return evidence;
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    TagState& t = tags_[i];
    if (t.frames_this_round > config_.max_frames_per_round) {
      const std::size_t extra =
          t.frames_this_round - config_.max_frames_per_round;
      t.stats.extra_frames += extra;
      ++t.stats.multi_fire_rounds;
      evidence[i] += extra;
    }
    if (t.collision_this_round) evidence[i] += config_.collision_evidence;
    stats_.evidence_total += evidence[i];
    if (trace_ != nullptr && evidence[i] > 0) {
      trace_->Record(obs::EventKind::kPoliceEvidence,
                     static_cast<std::uint32_t>(round_), obs::kNoSlot,
                     static_cast<std::uint8_t>(i + 1), evidence[i],
                     t.collision_this_round ? 1 : 0);
    }
  }
  return evidence;
}

void SlotPolice::ResetIdentity(std::size_t tag) {
  if (tag >= tags_.size()) return;
  TagState& t = tags_[tag];
  t.has_last_seq = false;
  t.last_seq = 0;
  t.jump_bits = 0;
  t.arrivals = 0;
  t.collision_latched = false;
  t.collision_this_round = false;
}

}  // namespace freerider::mac
