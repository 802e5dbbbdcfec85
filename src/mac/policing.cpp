#include "mac/policing.h"

#include <algorithm>

#include "runtime/checkpoint.h"

namespace freerider::mac {
namespace {

constexpr std::uint64_t kPolicingStateVersion = 1;

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

std::string SlotPolice::Serialize() const {
  runtime::PayloadWriter w;
  w.U64(kPolicingStateVersion);
  w.U64(tags_.size());
  for (const TagState& t : tags_) {
    w.U64(t.frames_this_round);
    w.U64(t.has_last_seq ? 1 : 0);
    w.U64(t.last_seq);
    w.U64(t.jump_bits);
    w.U64(t.arrivals);
    w.U64(t.collision_latched ? 1 : 0);
    w.U64(t.collision_this_round ? 1 : 0);
    w.U64(t.stats.extra_frames);
    w.U64(t.stats.multi_fire_rounds);
    w.U64(t.stats.seq_jumps);
    w.U64(t.stats.collision_suspicions);
  }
  w.U64(stats_.unattributed_frames);
  w.U64(stats_.evidence_total);
  return w.Take();
}

bool SlotPolice::Deserialize(const std::string& payload) {
  runtime::PayloadReader r(payload);
  std::uint64_t version = 0;
  std::uint64_t num_tags = 0;
  if (!r.U64(&version) || version != kPolicingStateVersion ||
      !r.U64(&num_tags) || num_tags != tags_.size()) {
    return false;
  }
  std::vector<TagState> tags(tags_.size());
  for (TagState& t : tags) {
    std::uint64_t last_seq = 0;
    std::uint64_t jump_bits = 0;
    if (!r.Size(&t.frames_this_round) || !r.Bool(&t.has_last_seq) ||
        !r.U64(&last_seq) || last_seq > 255 || !r.U64(&jump_bits) ||
        jump_bits > 0xFFFFFFFFull || !r.Size(&t.arrivals) ||
        !r.Bool(&t.collision_latched) || !r.Bool(&t.collision_this_round) ||
        !r.Size(&t.stats.extra_frames) || !r.Size(&t.stats.multi_fire_rounds) ||
        !r.Size(&t.stats.seq_jumps) || !r.Size(&t.stats.collision_suspicions)) {
      return false;
    }
    t.last_seq = static_cast<std::uint8_t>(last_seq);
    t.jump_bits = static_cast<std::uint32_t>(jump_bits);
  }
  PolicingStats stats;
  if (!r.Size(&stats.unattributed_frames) || !r.Size(&stats.evidence_total) ||
      !r.AtEnd()) {
    return false;
  }
  tags_ = std::move(tags);
  stats_ = stats;
  return true;
}

}  // namespace freerider::mac
