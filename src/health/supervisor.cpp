#include "health/supervisor.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace freerider::health {

const char* TagHealthName(TagHealth state) {
  switch (state) {
    case TagHealth::kHealthy: return "healthy";
    case TagHealth::kDegraded: return "degraded";
    case TagHealth::kProbation: return "probation";
    case TagHealth::kQuarantined: return "quarantined";
    case TagHealth::kRecovered: return "recovered";
  }
  return "?";
}

std::size_t QuarantineDetectionBound(const SupervisorConfig& config) {
  // Silence accrual to Probation, then one probe cycle (send + response
  // window, re-armed every probe_interval) per allowed failure, plus a
  // round of slack for the command to ride the next announcement.
  return config.silent_to_probation +
         config.probe_failures_to_quarantine *
             (config.probe_interval_rounds + config.probe_response_rounds) +
         2;
}

std::size_t MisbehaviorDetectionBound(const SupervisorConfig& config) {
  // Continuous evidence from score 0 reaches 1 - (1-α)^n after n
  // rounds; solving 1 - (1-α)^n ≥ θ gives n* = ⌈ln(1−θ)/ln(1−α)⌉.
  // The tested bound assumes evidence lands at least every other
  // observed round (×2) and adds 4 rounds of slack: decay on the
  // evidence-free rounds plus the park command riding the next
  // announcement. Mirrors the ctor clamps so the bound matches what
  // the supervisor actually runs.
  const double alpha = std::clamp(config.misbehavior_alpha, 1e-3, 1.0);
  const double theta =
      std::clamp(config.misbehavior_threshold, 0.05, 1.0 - 1e-9);
  std::size_t n_star = 1;
  if (alpha < 1.0 && alpha < theta) {
    n_star = static_cast<std::size_t>(
        std::ceil(std::log(1.0 - theta) / std::log(1.0 - alpha)));
    n_star = std::max<std::size_t>(n_star, 1);
  }
  return 2 * n_star + 4;
}

LinkSupervisor::LinkSupervisor(std::size_t num_tags,
                               const SupervisorConfig& config)
    : config_(config), tags_(num_tags) {
  config_.ewma_alpha = std::clamp(config_.ewma_alpha, 1e-3, 1.0);
  if (config_.probe_interval_rounds == 0) config_.probe_interval_rounds = 1;
  if (config_.probe_response_rounds == 0) config_.probe_response_rounds = 1;
  if (config_.probe_failures_to_quarantine == 0) {
    config_.probe_failures_to_quarantine = 1;
  }
  if (config_.silent_to_probation == 0) config_.silent_to_probation = 1;
  config_.command_blocks_per_round =
      std::clamp<std::size_t>(config_.command_blocks_per_round, 1,
                              kMaxHealthBlocks);
  config_.misbehavior_alpha = std::clamp(config_.misbehavior_alpha, 1e-3, 1.0);
  config_.misbehavior_threshold =
      std::clamp(config_.misbehavior_threshold, 0.05, 1.0);
  config_.misbehavior_release =
      std::clamp(config_.misbehavior_release, 0.0,
                 config_.misbehavior_threshold);
  config_.misbehavior_decay = std::clamp(config_.misbehavior_decay, 0.0, 1.0);
  if (config_.flagrant_evidence == 0) config_.flagrant_evidence = 1;
  if (config_.misbehavior_strikes_to_ban == 0) {
    config_.misbehavior_strikes_to_ban = 1;
  }
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    tags_[t].cmd.tag_id = static_cast<std::uint8_t>(t + 1);
  }
}

std::uint8_t LinkSupervisor::BoostFor(const TagState& tag) const {
  switch (tag.state) {
    case TagHealth::kHealthy:
      return tag.retx_primed && tag.retx >= config_.retx_boost ? 1 : 0;
    case TagHealth::kDegraded:
    case TagHealth::kRecovered: {
      std::uint8_t boost = 1;
      if (tag.loss >= config_.boost2_loss) boost = 2;
      if (tag.loss >= config_.boost3_loss) boost = 3;
      return std::min<std::uint8_t>(boost, kMaxBoostSteps);
    }
    case TagHealth::kProbation:
    case TagHealth::kQuarantined:
      // A probe must have the best possible chance of landing: the
      // cost is one slot every probe interval, the payoff is a
      // correct dead-or-alive verdict.
      return kMaxBoostSteps;
  }
  return 0;
}

void LinkSupervisor::RefreshCommand(TagState& tag, std::size_t index) {
  TagCommand want;
  want.tag_id = static_cast<std::uint8_t>(index + 1);
  want.admit = tag.state != TagHealth::kProbation &&
               tag.state != TagHealth::kQuarantined;
  want.probe = tag.probe_outstanding;
  want.boost_steps = BoostFor(tag);
  if (want != tag.cmd) {
    tag.cmd = want;
    tag.command_dirty = true;
  }
}

void LinkSupervisor::Transition(TagState& tag, std::size_t index,
                                std::size_t round, TagHealth to,
                                bool misbehavior) {
  const TagHealth from = tag.state;
  if (from == to) return;
  tag.state = to;
  if (transitions_.size() < kMaxTransitionLog) {
    transitions_.push_back(
        {round, static_cast<std::uint8_t>(index + 1), from, to, misbehavior});
  }
  if (trace_ != nullptr) {
    trace_->Record(obs::EventKind::kFsmTransition,
                   static_cast<std::uint32_t>(round), obs::kNoSlot,
                   static_cast<std::uint8_t>(index + 1),
                   (static_cast<std::uint64_t>(from) << 8) |
                       static_cast<std::uint64_t>(to),
                   misbehavior ? 1 : 0);
  }
  switch (to) {
    case TagHealth::kDegraded:
      ++stats_.degradations;
      break;
    case TagHealth::kProbation:
      ++stats_.probations;
      tag.probe_failures = 0;
      // First probe goes out with the next announcement.
      tag.probe_outstanding = true;
      tag.probe_sent_round = round + 1;
      tag.last_probe_round = round + 1;
      break;
    case TagHealth::kQuarantined:
      ++stats_.quarantines;
      tag.probe_outstanding = false;
      // Stagger the first re-probe a full quarantine interval out.
      tag.last_probe_round = round;
      fresh_quarantines_.push_back(index);
      break;
    case TagHealth::kRecovered:
      ++stats_.recoveries;
      tag.probe_outstanding = false;
      tag.probe_failures = 0;
      tag.clean_rounds = 0;
      // Served the sentence: an evidence-driven quarantine is released
      // only once the score decayed to misbehavior_release, so the
      // guilty flag clears here (strikes and any ban are permanent).
      tag.misbehaving = false;
      tag.relapse_armed = false;
      if (from == TagHealth::kQuarantined) {
        fresh_readmissions_.push_back(index);
      }
      break;
    case TagHealth::kHealthy:
      if (from == TagHealth::kRecovered) ++stats_.readmissions;
      break;
  }
}

void LinkSupervisor::ObserveRound(const RoundObservation& obs) {
  round_ = obs.round + 1;
  const double alpha = config_.ewma_alpha;
  const std::size_t active = obs.singles + obs.collisions;
  if (active > 0) {
    const double crc_fail =
        static_cast<double>(obs.collisions) / static_cast<double>(active);
    crc_fail_ = crc_primed_ ? (1.0 - alpha) * crc_fail_ + alpha * crc_fail
                            : crc_fail;
    crc_primed_ = true;
  }

  for (std::size_t t = 0; t < tags_.size(); ++t) {
    TagState& tag = tags_[t];
    const TagRoundObservation o =
        t < obs.tags.size() ? obs.tags[t] : TagRoundObservation{};
    const bool heard = o.frames_heard > 0;
    const bool expected = tag.cmd.admit || tag.probe_outstanding;

    if (expected) {
      const double loss_obs = heard ? 0.0 : 1.0;
      tag.loss = tag.loss_primed ? (1.0 - alpha) * tag.loss + alpha * loss_obs
                                 : loss_obs;
      tag.loss_primed = true;
      const double retx_obs =
          (o.duplicates + o.nacks_outstanding) > 0 ? 1.0 : 0.0;
      tag.retx = tag.retx_primed ? (1.0 - alpha) * tag.retx + alpha * retx_obs
                                 : retx_obs;
      tag.retx_primed = true;
      if (heard) {
        tag.silent_rounds = 0;
        ++tag.clean_rounds;
      } else {
        ++tag.silent_rounds;
        tag.clean_rounds = 0;
      }
    }

    // Probe resolution: an answer is any CRC-valid frame; a probe that
    // outlives its response window is a failure.
    if (heard && tag.probe_outstanding) {
      tag.probe_outstanding = false;
      tag.probe_failures = 0;
    } else if (tag.probe_outstanding &&
               obs.round + 1 >=
                   tag.probe_sent_round + config_.probe_response_rounds) {
      tag.probe_outstanding = false;
      ++tag.probe_failures;
      ++stats_.probe_failures;
    }

    // Misbehavior evidence channel. The score updates before the
    // silence state machine so flagrant evidence parks the offender in
    // the same round it is observed, and so a guilty tag's probe
    // answers cannot readmit it through the kQuarantined→kRecovered
    // edge below while the score is still hot.
    bool misbehavior_hold = false;
    if (config_.policing_enabled) {
      const std::size_t evidence = o.misbehavior_evidence;
      if (evidence > 0) ++stats_.evidence_rounds;
      if (evidence >= config_.flagrant_evidence) {
        tag.misbehavior_score = 1.0;
      } else if (evidence > 0) {
        tag.misbehavior_score =
            (1.0 - config_.misbehavior_alpha) * tag.misbehavior_score +
            config_.misbehavior_alpha;
      } else {
        tag.misbehavior_score *= 1.0 - config_.misbehavior_decay;
      }
      // Arm the relapse detector once a parked offender's score has
      // decayed to release (probing resumes below); a later re-cross
      // of the threshold is a fresh offense, not the original one.
      if (tag.state == TagHealth::kQuarantined && tag.misbehaving &&
          tag.misbehavior_score <= config_.misbehavior_release) {
        tag.relapse_armed = true;
      }
      if (tag.misbehavior_score >= config_.misbehavior_threshold) {
        if (tag.state != TagHealth::kQuarantined) {
          tag.misbehaving = true;
          tag.relapse_armed = false;
          ++tag.strikes;
          ++stats_.misbehavior_quarantines;
          if (!tag.banned && tag.strikes >= config_.misbehavior_strikes_to_ban) {
            tag.banned = true;
            ++stats_.bans;
          }
          Transition(tag, t, obs.round, TagHealth::kQuarantined,
                     /*misbehavior=*/true);
        } else if (tag.relapse_armed || !tag.misbehaving) {
          // Already parked but this crossing is a fresh offense: either
          // the relapse detector armed (score had decayed to release)
          // or the original quarantine was silence-driven and the tag
          // only now turned hostile.
          const bool relapse = tag.relapse_armed;
          tag.misbehaving = true;
          tag.relapse_armed = false;
          ++tag.strikes;
          if (relapse) {
            ++stats_.misbehavior_relapses;
          } else {
            ++stats_.misbehavior_quarantines;
          }
          if (!tag.banned && tag.strikes >= config_.misbehavior_strikes_to_ban) {
            tag.banned = true;
            ++stats_.bans;
          }
        }
      }
      // Sticky quarantine: while guilty-and-hot (or banned for good)
      // the ordinary silence machine is suspended — no probe-answer
      // readmission, no Probation bookkeeping.
      misbehavior_hold =
          tag.banned ||
          (tag.state == TagHealth::kQuarantined && tag.misbehaving &&
           tag.misbehavior_score > config_.misbehavior_release);
    }

    // State machine. Silence-driven Quarantined is only reachable from
    // Probation with the probe-failure budget exhausted; the
    // misbehavior channel above is the one sanctioned shortcut and
    // stamps its transitions — the model-based test pins both against
    // a reference transition table.
    if (misbehavior_hold) {
      RefreshCommand(tag, t);
      if (tag.cmd.boost_steps > 0) ++stats_.boost_commands;
      continue;
    }
    switch (tag.state) {
      case TagHealth::kHealthy:
        if (tag.loss_primed && tag.loss >= config_.degrade_loss) {
          Transition(tag, t, obs.round, TagHealth::kDegraded);
        }
        break;
      case TagHealth::kDegraded:
        if (tag.silent_rounds >= config_.silent_to_probation) {
          Transition(tag, t, obs.round, TagHealth::kProbation);
        } else if (tag.loss <= config_.recover_loss) {
          Transition(tag, t, obs.round, TagHealth::kHealthy);
        }
        break;
      case TagHealth::kProbation:
        if (heard) {
          Transition(tag, t, obs.round, TagHealth::kRecovered);
        } else if (tag.probe_failures >=
                   config_.probe_failures_to_quarantine) {
          Transition(tag, t, obs.round, TagHealth::kQuarantined);
        }
        break;
      case TagHealth::kQuarantined:
        if (heard) {
          Transition(tag, t, obs.round, TagHealth::kRecovered);
        }
        break;
      case TagHealth::kRecovered:
        if (tag.silent_rounds >= config_.silent_to_probation) {
          Transition(tag, t, obs.round, TagHealth::kProbation);
        } else if (tag.clean_rounds >= config_.recovered_hold_rounds &&
                   tag.loss <= config_.recover_loss) {
          Transition(tag, t, obs.round, TagHealth::kHealthy);
        }
        break;
    }

    // Probe scheduling for the states that probe.
    if ((tag.state == TagHealth::kProbation ||
         tag.state == TagHealth::kQuarantined) &&
        !tag.probe_outstanding) {
      const std::size_t interval = tag.state == TagHealth::kProbation
                                       ? config_.probe_interval_rounds
                                       : config_.quarantine_reprobe_rounds;
      if (obs.round + 1 >= tag.last_probe_round + interval) {
        tag.probe_outstanding = true;
        tag.probe_sent_round = obs.round + 1;
        tag.last_probe_round = obs.round + 1;
      }
    }

    RefreshCommand(tag, t);
    if (tag.cmd.boost_steps > 0) ++stats_.boost_commands;
  }
}

TagCommand LinkSupervisor::command(std::size_t tag) const {
  return tags_[tag].cmd;
}

std::size_t LinkSupervisor::admitted_tags() const {
  std::size_t n = 0;
  for (const TagState& t : tags_) {
    if (t.cmd.admit) ++n;
  }
  return n;
}

HealthExtension LinkSupervisor::BuildExtension() {
  HealthExtension ext;
  const std::size_t blocks =
      std::min(config_.command_blocks_per_round, tags_.size());
  auto include = [&](std::size_t index) {
    if (ext.commands.size() >= blocks) return;
    for (const TagCommand& c : ext.commands) {
      if (c.tag_id == index + 1) return;
    }
    ext.commands.push_back(tags_[index].cmd);
    tags_[index].command_dirty = false;
    if (tags_[index].cmd.probe) {
      ++stats_.probes_sent;
      if (trace_ != nullptr) {
        trace_->Record(obs::EventKind::kProbe,
                       static_cast<std::uint32_t>(round_), obs::kNoSlot,
                       static_cast<std::uint8_t>(index + 1),
                       stats_.probes_sent);
      }
    }
  };
  // 1. Probes — a probe that never airs can never be answered.
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    if (tags_[t].cmd.probe) include(t);
  }
  // 2. Changed commands (quarantine/boost updates reach tags fast).
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    if (tags_[t].command_dirty) include(t);
  }
  // 3. Round-robin background refresh (commands are sticky but a tag
  // that missed an announcement must eventually re-hear its command).
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    include((rotation_ + i) % tags_.size());
  }
  rotation_ = tags_.empty() ? 0 : (rotation_ + blocks) % tags_.size();
  return ext;
}

std::vector<std::size_t> LinkSupervisor::TakeFreshQuarantines() {
  return std::exchange(fresh_quarantines_, {});
}

std::vector<std::size_t> LinkSupervisor::TakeFreshReadmissions() {
  return std::exchange(fresh_readmissions_, {});
}

}  // namespace freerider::health
