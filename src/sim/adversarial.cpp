#include "sim/adversarial.h"

#include <utility>

#include "runtime/checkpoint.h"
#include "sim/campaign_audit.h"

namespace freerider::sim {

AdversarialResult RunAdversarial(const AdversarialConfig& config) {
  FullStackConfig sim_cfg = CampaignSimConfig(config);
  sim_cfg.transport.replay_guard = config.defenses_on;
  sim_cfg.supervisor = config.supervisor;
  sim_cfg.supervisor.enabled = true;  // both arms: off is not a strawman
  sim_cfg.supervisor.policing_enabled = config.defenses_on;
  sim_cfg.policing = config.policing;
  sim_cfg.policing.enabled = config.defenses_on;
  sim_cfg.rogue = config.rogue;
  sim_cfg.dynamics = config.dynamics;

  CampaignTrace trace("adversarial", config.trace_capacity);
  sim_cfg.trace = trace.sink();

  Rng rng(config.seed);
  FullStackSim sim(sim_cfg, rng);
  AdversarialResult result;
  SeqAudit audit(config.num_tags, /*skips_violate=*/false);

  // Specs come from the sim's engine, so everything below shares its
  // normalization (an out-of-range clone_of clones tag 0).
  const impair::RogueSpec honest;
  auto spec = [&](std::size_t tag) -> const impair::RogueSpec& {
    return sim.rogues() != nullptr ? sim.rogues()->spec(tag) : honest;
  };

  // Ground truth from the cast list: every frame an always-stale
  // replayer ever put on the air is a replay, so *any* transport
  // delivery on its stream is stale data reaching the application.
  CampaignHooks hooks;
  hooks.on_delivery = [&](std::size_t round, const RoundReport::Delivery& d) {
    if (spec(d.tag_id - 1).model == impair::RogueModel::kReplayer) {
      result.violations.Add(round, "stale_delivery",
                            Fmt("tag=%u seq=%u", d.tag_id, d.seq));
    }
  };
  RunCampaignRounds(config, sim, audit, result.violations, hooks);

  // The cast list. Rogues are not victims, and a clone pollutes its
  // victim's on-air identity, so that id leaves the victim set too (the
  // documented sacrifice: a cloned identity cannot be served until the
  // challenge recovery clears it).
  std::vector<bool> victim(config.num_tags, true);
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    const impair::RogueSpec& s = spec(t);
    if (s.model != impair::RogueModel::kNone) victim[t] = false;
    if (s.model == impair::RogueModel::kClone) victim[s.clone_of] = false;
  }

  const FullStackStats stats = sim.Stats();
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    if (!victim[t]) continue;
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
    auto add_audit = [&](std::size_t t, std::size_t identity,
                         std::string model, bool via_misbehavior) {
      RogueAudit a;
      a.tag = t;
      a.wire_id = static_cast<std::uint8_t>(identity + 1);
      a.model = std::move(model);
      a.via_misbehavior = via_misbehavior;
      a.bound = via_misbehavior ? misb_bound : silence_bound;
      result.audits.push_back(std::move(a));
    };
    for (std::size_t t = 0; t < config.num_tags; ++t) {
      const impair::RogueSpec& s = spec(t);
      switch (s.model) {
        case impair::RogueModel::kBabbler:
        case impair::RogueModel::kSlotThief:
        case impair::RogueModel::kReplayer:
          add_audit(t, t, impair::RogueModelName(s.model), true);
          break;
        case impair::RogueModel::kClone:
          add_audit(t, s.clone_of, "clone", true);
          add_audit(t, t, "clone_own_id", false);
          break;
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
            config.total_rounds(), "no_detection",
            Fmt("model=%s wire_id=%u", a.model.c_str(), a.wire_id));
      } else if (!a.bound_met) {
        result.violations.Add(
            config.total_rounds(), "detection_late",
            Fmt("model=%s wire_id=%u round=%zu bound=%zu", a.model.c_str(),
                a.wire_id, a.quarantine_round, a.bound));
      } else if (!a.parked_at_end) {
        result.violations.Add(
            config.total_rounds(), "containment_lost",
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

namespace {

template <class Io, class T>
bool RogueAuditFields(Io& io, T& a) {
  return io.Size(a.tag) && io.U8(a.wire_id) && io.Str(a.model) &&
         io.Bool(a.via_misbehavior) && io.Bool(a.quarantined) &&
         io.Bool(a.bound_met) && io.Bool(a.parked_at_end) &&
         io.Size(a.quarantine_round) && io.Size(a.bound);
}

template <class Io, class T>
bool AdversarialResultFields(Io& io, T& r) {
  return io.Bool(r.passed) && io.F64(r.victim_delivery) &&
         io.Size(r.victim_offered) && io.Size(r.victim_delivered) &&
         io.Size(r.rogue_extra_frames) && io.Size(r.rx_invalid_id) &&
         io.Size(r.replay_rejected) && io.Size(r.stale_rejected) &&
         io.Size(r.police_evidence) && io.Size(r.collision_suspicions) &&
         io.Size(r.misbehavior_quarantines) && io.Size(r.bans) &&
         io.Size(r.forged_heard) && io.Size(r.forged_rejected) &&
         io.Size(r.forged_accepted) &&
         io.Seq(r.audits, 1024,
                [&io](auto& a) { return RogueAuditFields(io, a); }) &&
         ViolationLogFields(io, r.violations) && io.Str(r.digest) &&
         io.Str(r.trace);
}

}  // namespace

std::string SerializeAdversarialResult(const AdversarialResult& result) {
  runtime::PayloadWriter w;
  AdversarialResultFields(w, result);
  return w.Take();
}

bool DeserializeAdversarialResult(const std::string& payload,
                                  AdversarialResult* result) {
  return runtime::ReadPayload(payload, result, [](auto& r, auto& s) {
    return AdversarialResultFields(r, s);
  });
}

}  // namespace freerider::sim
