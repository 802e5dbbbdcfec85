// Rogue-tag behavior models: the Byzantine half of the impairment
// story.
//
// impair/dynamics models links that fail honestly — fades, mobility,
// blackouts. This module models *participants* that fail by
// misbehaving: a stuck RF switch that reflects in every slot, a
// desynced tag answering slots it was never assigned, firmware that
// replays stale ARQ frames, a corrupted coordinator image emitting
// CRC-guessing PLM extensions, two tags provisioned with one identity,
// and a tag that flaps in and out of the cell. GuardRider
// (arXiv:1912.06493) shows wild-deployment backscatter must survive
// exactly this class of uncontrolled participant; the coordinator-side
// defenses (mac/policing.h + the health supervisor's misbehavior
// channel) are audited against these models by sim/adversarial.
//
// Threat model (DESIGN.md §10): a rogue's *MAC logic* is arbitrary,
// but its RF frontend still obeys the admission gate — the PLM `admit`
// bit is enforced below the corrupted firmware (a hardware squelch on
// the reflection switch), so a parked rogue stops radiating. A rogue
// that ignores park too is a pure PHY jammer: no MAC defense can
// silence it, only localize it, which is out of scope here. The
// `obeys_park` knob exists so tests can still express that adversary.
//
// Determinism contract, exactly as impair/dynamics: every draw is
// counter-based via Rng::ForTrial(seed, tag, round·K + slot), so a
// rogue's action at (tag, round, slot) is a pure function of the rogue
// seed — independent of thread count, task order, and every other
// stream in the simulation. The rogue seed is its own config field,
// never drawn from the simulation master, so an all-kNone config
// perturbs nothing and draws nothing. The engine's only mutable state
// is the round cursor.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace freerider::impair {

enum class RogueModel : std::uint8_t {
  kNone = 0,
  /// Reflects in every slot of every round (stuck RF switch / babbling
  /// idiot). Sequence numbers are garbage.
  kBabbler = 1,
  /// Answers a configurable fraction of the round's slots — its own
  /// plus slots assigned to other tags. Sequence numbers are garbage.
  kSlotThief = 2,
  /// Transmits in its normal slot but re-sends a captured window of
  /// stale ARQ frames cyclically (record-and-replay): `replay_window`
  /// sequences anchored `replay_offset` behind the epoch. Depending on
  /// where the receiver's delivery point sits, arrivals classify as
  /// beyond-window, deep-stale, or — across the 8-bit wrap — as
  /// forward aliases of already-delivered sequences.
  kReplayer = 3,
  /// Participates normally on the uplink but injects corrupted
  /// version-2 PLM extensions on the downlink (a compromised second
  /// exciter): random bodies, sometimes with a deliberately matching
  /// CRC-8, plus occasional invalid-id uplink junk.
  kForger = 4,
  /// Transmits under another tag's identity (cloned provisioning):
  /// two physical tags, one id, interleaved sequence streams.
  kClone = 5,
  /// Joins and leaves the cell every few rounds — legal frames while
  /// joined, silence while gone. Stresses the FSM without ever
  /// misbehaving at the frame level.
  kFlapper = 6,
};

const char* RogueModelName(RogueModel model);

/// Per-tag rogue behavior. Default-constructed = honest tag.
struct RogueSpec {
  RogueModel model = RogueModel::kNone;
  /// kSlotThief: fraction of each round's slots it fires in.
  double theft_fraction = 0.9;
  /// kReplayer: how far behind the epoch the captured window's first
  /// sequence sits (mod 256), and how many captured frames the loop
  /// re-sends before restarting.
  std::uint8_t replay_offset = 200;
  std::size_t replay_window = 16;
  /// kForger: per-round probability of a forged downlink injection.
  double forge_probability = 0.5;
  /// kForger: per-slot probability of an invalid-id uplink junk frame.
  double junk_fire_probability = 0.1;
  /// kClone: 0-based index of the tag whose identity is assumed.
  std::size_t clone_of = 0;
  /// kFlapper: rounds joined / rounds gone per cycle.
  std::size_t flap_on_rounds = 8;
  std::size_t flap_off_rounds = 8;
  /// See the threat model above: false = pure PHY jammer.
  bool obeys_park = true;
};

struct RogueConfig {
  /// Dedicated stream seed — never drawn from the simulation master.
  std::uint64_t seed = 0x726F677565ull;  // "rogue"
  /// Index = 0-based tag; tags past the end are honest.
  std::vector<RogueSpec> tags;

  bool AnyEnabled() const {
    for (const RogueSpec& s : tags) {
      if (s.model != RogueModel::kNone) return true;
    }
    return false;
  }
};

/// What a rogue does with one slot (resolved by the simulator).
struct RogueSlotAction {
  /// Fire even though the honest controller/ARQ would not (babbler,
  /// thief, forger junk). The payload is `wire_id` + `seq` below.
  bool extra_fire = false;
  /// 0 = emit an out-of-range id (forger junk frames).
  std::uint8_t wire_id = 0;
  std::uint8_t seq = 0;
};

class RogueEngine {
 public:
  RogueEngine(const RogueConfig& config, std::size_t num_tags);

  bool enabled() const { return enabled_; }
  const RogueConfig& config() const { return config_; }
  bool is_rogue(std::size_t tag) const {
    return spec(tag).model != RogueModel::kNone;
  }
  const RogueSpec& spec(std::size_t tag) const;

  /// Advance the round cursor. Must be called once per round in order
  /// (the cursor is the engine's only mutable state).
  void BeginRound(std::size_t round);

  /// Whether the tag is present this round (false only for a flapper
  /// in its off-phase: it hears no announcements and reflects
  /// nothing). Pure in (seed, tag, round).
  bool Joined(std::size_t tag) const;

  /// The identity a rogue puts on the air (1-based). Honest tags and
  /// most models use their own; a clone uses its victim's.
  std::uint8_t WireId(std::size_t tag) const;

  /// Resolve the rogue's action for one slot of the current round.
  /// Pure in (seed, tag, round, slot). extra_fire covers firing the
  /// simulator's honest path would not have produced; models that ride
  /// the honest ARQ path (forger data, flapper, clone, replayer slot
  /// choice) return extra_fire = false here and the simulator rewrites
  /// seq/id via ReplaySeq()/WireId().
  RogueSlotAction SlotAction(std::size_t tag, std::size_t slot) const;

  /// kReplayer: the captured stale sequence re-sent this round — the
  /// loop position round % replay_window into the recorded window.
  /// Pure in round.
  std::uint8_t ReplaySeq(std::size_t tag) const;
  /// kClone: the clone's own counter stream, offset half the sequence
  /// space from live so the two streams interleave at maximum serial
  /// distance. Pure in round.
  std::uint8_t CloneSeq(std::size_t tag) const;

  /// kForger: whether a forged downlink extension airs this round, and
  /// its payload — a structurally plausible but corrupt version-2
  /// extension bit vector; roughly half the corpus carries a matching
  /// CRC-8 over garbage (the "CRC-guessing" half), the rest is cut or
  /// bit-flipped. Pure in (seed, tag, round).
  bool ForgesThisRound(std::size_t tag) const;
  BitVector ForgedExtension(std::size_t tag) const;

 private:
  Rng SlotRng(std::size_t tag, std::size_t slot) const;
  Rng RoundRng(std::size_t tag) const;

  RogueConfig config_;
  std::size_t num_tags_ = 0;
  bool enabled_ = false;
  std::size_t round_ = 0;
};

}  // namespace freerider::impair
