#include "impair/dynamics.h"

#include <algorithm>
#include <cmath>

namespace freerider::impair {
namespace {

// Distinct salts keep the chain-step draws and the per-slot fade draws
// on unrelated counter streams even for the same (tag, round).
constexpr std::uint64_t kChainSalt = 0x47454348u;  // 'GECH'
constexpr std::uint64_t kFadeSalt = 0x46414445u;   // 'FADE'

}  // namespace

ChannelDynamics::ChannelDynamics(const DynamicsConfig& config,
                                 std::size_t num_tags)
    : config_(config), links_(num_tags), bad_(num_tags, false) {
  auto& ge = config_.gilbert;
  ge.p_good_to_bad = std::clamp(ge.p_good_to_bad, 0.0, 1.0);
  ge.p_bad_to_good = std::clamp(ge.p_bad_to_good, 0.0, 1.0);
  ge.good_loss = std::clamp(ge.good_loss, 0.0, 1.0);
  ge.bad_loss = std::clamp(ge.bad_loss, 0.0, 1.0);
  auto& mob = config_.mobility;
  mob.max_loss = std::clamp(mob.max_loss, 0.0, 1.0);
  // Waypoints must be round-sorted for the interpolation walk.
  std::stable_sort(mob.waypoints.begin(), mob.waypoints.end(),
                   [](const MobilityWaypoint& a, const MobilityWaypoint& b) {
                     return a.round < b.round;
                   });
}

double ChannelDynamics::MobilityFactor(std::size_t tag,
                                       std::size_t round) const {
  const MobilityConfig& mob = config_.mobility;
  if (!mob.enabled || mob.waypoints.empty()) return 1.0;
  const std::size_t phased = round + mob.per_tag_phase_rounds * tag;
  const auto& wp = mob.waypoints;
  if (phased <= wp.front().round) return wp.front().distance_factor;
  if (phased >= wp.back().round) return wp.back().distance_factor;
  for (std::size_t i = 1; i < wp.size(); ++i) {
    if (phased > wp[i].round) continue;
    const auto& a = wp[i - 1];
    const auto& b = wp[i];
    if (b.round == a.round) return b.distance_factor;
    const double t = static_cast<double>(phased - a.round) /
                     static_cast<double>(b.round - a.round);
    return a.distance_factor + t * (b.distance_factor - a.distance_factor);
  }
  return wp.back().distance_factor;
}

bool ChannelDynamics::InBlackout(std::size_t tag, std::size_t round) const {
  for (const BlackoutWindow& w : config_.blackouts) {
    if (round < w.begin_round || round >= w.end_round) continue;
    if (w.tags.empty()) return true;
    for (std::size_t t : w.tags) {
      if (t == tag) return true;
    }
  }
  return false;
}

void ChannelDynamics::BeginRound(std::size_t round) {
  round_ = round;
  stepped_ = true;
  for (std::size_t t = 0; t < links_.size(); ++t) {
    if (config_.gilbert.enabled) {
      // One counter-based draw per (tag, round): the chain state is a
      // fold over these, so the fold is reproducible from any point by
      // re-stepping — no hidden sequential stream.
      Rng rng = Rng::ForTrial(config_.seed ^ kChainSalt, t, round);
      const double u = rng.NextDouble();
      if (bad_[t]) {
        if (u < config_.gilbert.p_bad_to_good) bad_[t] = false;
      } else {
        if (u < config_.gilbert.p_good_to_bad) bad_[t] = true;
      }
    }
    LinkState& link = links_[t];
    link.bad_state = bad_[t];
    link.blackout = InBlackout(t, round);
    link.distance_factor = MobilityFactor(t, round);
    double loss = 0.0;
    if (config_.gilbert.enabled) {
      loss = bad_[t] ? config_.gilbert.bad_loss : config_.gilbert.good_loss;
    }
    if (config_.mobility.enabled && link.distance_factor > 1.0) {
      const double mob_loss =
          std::min(config_.mobility.loss_per_excess *
                       (link.distance_factor - 1.0),
                   config_.mobility.max_loss);
      loss = 1.0 - (1.0 - loss) * (1.0 - mob_loss);
    }
    link.loss_probability = std::clamp(loss, 0.0, 1.0);
  }
}

bool ChannelDynamics::FrameSurvives(std::size_t tag, std::size_t slot,
                                    std::size_t repetitions) {
  if (!stepped_) return true;
  const LinkState& link = links_[tag];
  if (link.blackout) return false;
  if (link.loss_probability <= 0.0) return true;
  if (link.loss_probability >= 1.0) return false;
  // Per-slot stream: the trial counter folds the slot in so two slots
  // of the same round draw independently, and boosted repetitions
  // consume draws only from their own stream.
  Rng rng = Rng::ForTrial(config_.seed ^ kFadeSalt, tag,
                          round_ * 4096 + slot);
  const std::size_t reps = std::max<std::size_t>(repetitions, 1);
  for (std::size_t i = 0; i < reps; ++i) {
    if (rng.NextDouble() >= link.loss_probability) return true;
  }
  return false;
}

std::size_t ChannelDynamics::BlackoutRounds(std::size_t tag,
                                            std::size_t horizon) const {
  std::size_t n = 0;
  for (std::size_t r = 0; r < horizon; ++r) {
    if (InBlackout(tag, r)) ++n;
  }
  return n;
}

}  // namespace freerider::impair
