#include "sim/adversarial.h"

#include <utility>

#include "runtime/checkpoint.h"
#include "sim/campaign_audit.h"

namespace freerider::sim {
namespace {

impair::RogueSpec SpecFor(const impair::RogueConfig& config,
                          std::size_t tag) {
  return tag < config.tags.size() ? config.tags[tag] : impair::RogueSpec{};
}

}  // namespace

AdversarialResult RunAdversarial(const AdversarialConfig& config) {
  FullStackConfig sim_cfg;
  sim_cfg.num_tags = config.num_tags;
  sim_cfg.rounds = config.rounds + config.drain_rounds;
  sim_cfg.transport = config.transport;
  sim_cfg.transport.enabled = true;
  sim_cfg.transport.replay_guard = config.defenses_on;
  sim_cfg.supervisor = config.supervisor;
  sim_cfg.supervisor.enabled = true;  // both arms: off is not a strawman
  sim_cfg.supervisor.policing_enabled = config.defenses_on;
  sim_cfg.policing = config.policing;
  sim_cfg.policing.enabled = config.defenses_on;
  sim_cfg.rogue = config.rogue;
  sim_cfg.dynamics = config.dynamics;
  sim_cfg.offered_per_round = 0;  // the harness schedules offers itself

  // Cast lists. A clone pollutes its victim's on-air identity, so that
  // id leaves the victim set too (the documented sacrifice: a cloned
  // identity cannot be served until the challenge recovery clears it).
  std::vector<bool> is_rogue(config.num_tags, false);
  std::vector<bool> polluted(config.num_tags, false);
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    const impair::RogueSpec s = SpecFor(config.rogue, t);
    if (s.model == impair::RogueModel::kNone) continue;
    is_rogue[t] = true;
    if (s.model == impair::RogueModel::kClone && s.clone_of < config.num_tags) {
      polluted[s.clone_of] = true;
    }
  }

  CampaignTrace trace("adversarial", config.trace_capacity);
  sim_cfg.trace = trace.sink();

  Rng rng(config.seed);
  FullStackSim sim(sim_cfg, rng);
  AdversarialResult result;
  SeqAudit audit(config.num_tags, /*skips_violate=*/false);

  const std::size_t total_rounds = config.rounds + config.drain_rounds;
  for (std::size_t round = 0; round < total_rounds; ++round) {
    const bool offering = round < config.rounds && config.offer_every != 0 &&
                          round % config.offer_every == 0;
    sim.SetOfferedPerRound(offering ? 1 : 0);
    const RoundReport report = sim.StepRound();
    // Ground truth from the cast list: every frame an always-stale
    // replayer ever put on the air is a replay, so *any* transport
    // delivery on its stream is stale data reaching the application.
    auto flag_stale = [&](const RoundReport::Delivery& d) {
      if (SpecFor(config.rogue, d.tag_id - 1).model ==
          impair::RogueModel::kReplayer) {
        result.violations.Add(round, "stale_delivery",
                              Fmt("tag=%u seq=%u", d.tag_id, d.seq));
      }
    };
    audit.Observe(round, report, ResyncCounts(sim, config.num_tags),
                  result.violations, flag_stale);
  }

  const FullStackStats stats = sim.Stats();
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    if (is_rogue[t] || polluted[t]) continue;
    result.victim_offered += sim.tag_transport(t)->stats().offered;
    result.victim_delivered +=
        sim.coordinator_transport()->rx(t).stats().delivered;
  }
  result.victim_delivery =
      result.victim_offered > 0
          ? static_cast<double>(result.victim_delivered) /
                static_cast<double>(result.victim_offered)
          : 0.0;
  result.rogue_extra_frames = stats.rogue_extra_frames;
  result.rx_invalid_id = stats.rx_invalid_id;
  result.replay_rejected = stats.transport_replay_rejected;
  result.stale_rejected = stats.transport_stale_rejected;
  result.police_evidence = stats.police_evidence;
  result.collision_suspicions = stats.police_collision_suspicions;
  result.misbehavior_quarantines = stats.misbehavior_quarantines;
  result.bans = stats.misbehavior_bans;
  result.forged_heard = stats.forged_ext_heard;
  result.forged_rejected = stats.forged_ext_rejected;
  result.forged_accepted = stats.forged_ext_accepted;

  // Bounded-detection audits (defenses on only: the off arm has no
  // misbehavior channel to bound). One audit per offending identity;
  // a clone contributes two — the identity it pollutes (misbehavior
  // path) and its own abandoned id (silence path).
  const health::LinkSupervisor* supervisor = sim.supervisor();
  if (config.defenses_on) {
    const std::size_t misb_bound =
        health::MisbehaviorDetectionBound(sim_cfg.supervisor);
    const std::size_t silence_bound =
        health::QuarantineDetectionBound(sim_cfg.supervisor);
    for (std::size_t t = 0; t < config.num_tags; ++t) {
      const impair::RogueSpec s = SpecFor(config.rogue, t);
      switch (s.model) {
        case impair::RogueModel::kBabbler:
        case impair::RogueModel::kSlotThief:
        case impair::RogueModel::kReplayer: {
          RogueAudit a;
          a.tag = t;
          a.wire_id = static_cast<std::uint8_t>(t + 1);
          a.model = impair::RogueModelName(s.model);
          a.via_misbehavior = true;
          a.bound = misb_bound;
          result.audits.push_back(std::move(a));
          break;
        }
        case impair::RogueModel::kClone: {
          RogueAudit victim;
          victim.tag = t;
          victim.wire_id = static_cast<std::uint8_t>(s.clone_of + 1);
          victim.model = "clone";
          victim.via_misbehavior = true;
          victim.bound = misb_bound;
          result.audits.push_back(std::move(victim));
          RogueAudit own;
          own.tag = t;
          own.wire_id = static_cast<std::uint8_t>(t + 1);
          own.model = "clone_own_id";
          own.via_misbehavior = false;
          own.bound = silence_bound;
          result.audits.push_back(std::move(own));
          break;
        }
        case impair::RogueModel::kNone:
        case impair::RogueModel::kForger:   // junk is unattributable
        case impair::RogueModel::kFlapper:  // never frame-level illegal
          break;
      }
    }
    for (RogueAudit& a : result.audits) {
      for (const health::HealthTransition& tr : supervisor->transitions()) {
        if (tr.tag_id != a.wire_id ||
            tr.to != health::TagHealth::kQuarantined) {
          continue;
        }
        // A misbehavior-path audit demands the evidence channel made
        // the call (the transition is stamped); silence-path audits
        // take the ordinary Probation → Quarantined route.
        if (a.via_misbehavior && !tr.misbehavior) continue;
        a.quarantined = true;
        a.quarantine_round = tr.round;
        break;
      }
      // Offenders misbehave from round 0, so the detection clock
      // starts there; round indices are 0-based, hence the +1.
      a.bound_met = a.quarantined && a.quarantine_round + 1 <= a.bound;
      a.parked_at_end = supervisor->health(a.wire_id - 1) ==
                        health::TagHealth::kQuarantined;
      if (!a.quarantined) {
        result.violations.Add(
            total_rounds, "no_detection",
            Fmt("model=%s wire_id=%u", a.model.c_str(), a.wire_id));
      } else if (!a.bound_met) {
        result.violations.Add(
            total_rounds, "detection_late",
            Fmt("model=%s wire_id=%u round=%zu bound=%zu", a.model.c_str(),
                a.wire_id, a.quarantine_round, a.bound));
      } else if (!a.parked_at_end) {
        result.violations.Add(
            total_rounds, "containment_lost",
            Fmt("model=%s wire_id=%u", a.model.c_str(), a.wire_id));
      }
    }
  }

  result.passed = result.violations.empty();

  std::string digest = result.violations.Digest();
  for (const RogueAudit& a : result.audits) {
    digest += Fmt(
        "audit model=%s wire_id=%u quarantined=%d round=%zu bound=%zu "
        "met=%d parked=%d\n",
        a.model.c_str(), a.wire_id, a.quarantined ? 1 : 0,
        a.quarantine_round, a.bound, a.bound_met ? 1 : 0,
        a.parked_at_end ? 1 : 0);
  }
  digest += Fmt(
      "adversarial victims=%a offered=%zu delivered=%zu extra=%zu "
      "invalid=%zu replay=%zu stale=%zu evidence=%zu collisions=%zu "
      "mquar=%zu bans=%zu forged=%zu/%zu/%zu violations=%zu\n",
      result.victim_delivery, result.victim_offered, result.victim_delivered,
      result.rogue_extra_frames, result.rx_invalid_id, result.replay_rejected,
      result.stale_rejected, result.police_evidence,
      result.collision_suspicions, result.misbehavior_quarantines,
      result.bans, result.forged_heard, result.forged_rejected,
      result.forged_accepted, result.violations.total());
  result.digest = std::move(digest);
  result.trace = trace.Finish();
  return result;
}

std::string SerializeAdversarialResult(const AdversarialResult& result) {
  runtime::PayloadWriter w;
  w.U64(result.passed ? 1 : 0);
  w.F64(result.victim_delivery);
  w.U64(result.victim_offered);
  w.U64(result.victim_delivered);
  w.U64(result.rogue_extra_frames);
  w.U64(result.rx_invalid_id);
  w.U64(result.replay_rejected);
  w.U64(result.stale_rejected);
  w.U64(result.police_evidence);
  w.U64(result.collision_suspicions);
  w.U64(result.misbehavior_quarantines);
  w.U64(result.bans);
  w.U64(result.forged_heard);
  w.U64(result.forged_rejected);
  w.U64(result.forged_accepted);
  w.U64(result.audits.size());
  for (const RogueAudit& a : result.audits) {
    w.U64(a.tag);
    w.U64(a.wire_id);
    w.Str(a.model);
    w.U64(a.via_misbehavior ? 1 : 0);
    w.U64(a.quarantined ? 1 : 0);
    w.U64(a.bound_met ? 1 : 0);
    w.U64(a.parked_at_end ? 1 : 0);
    w.U64(a.quarantine_round);
    w.U64(a.bound);
  }
  result.violations.Write(w);
  w.Str(result.digest);
  w.Str(result.trace);
  return w.Take();
}

bool DeserializeAdversarialResult(const std::string& payload,
                                  AdversarialResult* result) {
  runtime::PayloadReader r(payload);
  AdversarialResult out;
  std::size_t num_audits = 0;
  if (!r.Bool(&out.passed) || !r.F64(&out.victim_delivery) ||
      !r.Size(&out.victim_offered) || !r.Size(&out.victim_delivered) ||
      !r.Size(&out.rogue_extra_frames) || !r.Size(&out.rx_invalid_id) ||
      !r.Size(&out.replay_rejected) || !r.Size(&out.stale_rejected) ||
      !r.Size(&out.police_evidence) || !r.Size(&out.collision_suspicions) ||
      !r.Size(&out.misbehavior_quarantines) || !r.Size(&out.bans) ||
      !r.Size(&out.forged_heard) || !r.Size(&out.forged_rejected) ||
      !r.Size(&out.forged_accepted) || !r.Size(&num_audits) ||
      num_audits > 1024) {
    return false;
  }
  out.audits.resize(num_audits);
  for (RogueAudit& a : out.audits) {
    std::uint64_t wire_id = 0;
    if (!r.Size(&a.tag) || !r.U64(&wire_id) || wire_id > 255 ||
        !r.Str(&a.model) || !r.Bool(&a.via_misbehavior) ||
        !r.Bool(&a.quarantined) || !r.Bool(&a.bound_met) ||
        !r.Bool(&a.parked_at_end) || !r.Size(&a.quarantine_round) ||
        !r.Size(&a.bound)) {
      return false;
    }
    a.wire_id = static_cast<std::uint8_t>(wire_id);
  }
  if (!out.violations.Read(r) || !r.Str(&out.digest) || !r.Str(&out.trace) ||
      !r.AtEnd()) {
    return false;
  }
  *result = std::move(out);
  return true;
}

}  // namespace freerider::sim
