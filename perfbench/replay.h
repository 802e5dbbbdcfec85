// Traced replays of the simulator's slot chain, one layer call at a
// time, each call wrapped by Tracer::Call.
//
// ReplayLinkStep mirrors sim::SimulateTagLink (sim/link.cpp) in its
// exact rng draw order, so with the same Rng it reproduces the same
// per-slot outcome; that equality is the benchmark's replay-match
// diagnostic. ReplayWifiSlot mirrors one slot of
// sim::FullStackSim::StepRound (sim/multitag.cpp) for a chosen number of
// reflections: 0 = idle, 1 = single, k = k-collision.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "ledger.h"
#include "sim/link.h"
#include "sim/multitag.h"

namespace perfbench {

/// What the replayed link slot observed, beside the LinkStats it yields.
struct LinkReplay {
  freerider::sim::LinkStats stats;
  std::size_t rx_calls = 0;   ///< Packets that reached the receiver.
  std::size_t detected = 0;   ///< ...whose preamble/SHR was found.
  std::size_t signal_ok = 0;  ///< ...whose SIGNAL field parsed (WiFi).
};

/// Replay SimulateTagLink(config, rng) call for call.
LinkReplay ReplayLinkStep(const freerider::sim::LinkConfig& config,
                          freerider::Rng& rng, Tracer& tracer);

/// True when two LinkStats agree on every simulated outcome field.
bool SameLinkOutcome(const freerider::sim::LinkStats& a,
                     const freerider::sim::LinkStats& b);

/// A slot's three cost segments: what every slot pays (excitation TX,
/// scaling, fault draw), what each reflection adds (tag frame,
/// Translate, superposition), and what a slot with energy pays to
/// receive (CFO, padding, AWGN, RX, blind XOR decode).
struct SlotLedgers {
  Ledger base{};
  Ledger reflect{};
  Ledger rx{};
};

struct SlotReplay {
  bool rx_ran = false;
  bool detected = false;
  bool signal_ok = false;
  bool delivered = false;  ///< A CRC-valid frame with an in-range id.
};

/// Replay one slot of a FullStackSim built from `config` (its
/// impairments off) with `reflections` concurrent tags.
SlotReplay ReplayWifiSlot(const freerider::sim::FullStackConfig& config,
                          std::size_t reflections, freerider::Rng& rng,
                          SlotLedgers& ledgers, SpanLog& log,
                          std::uint32_t step);

}  // namespace perfbench
