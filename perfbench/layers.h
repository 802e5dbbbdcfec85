// Per-layer metrics of the traced run: the slot-kind and control
// replays, and the table every workload prints.
#pragma once

#include <cstddef>
#include <cstdint>

#include "harness.h"
#include "ledger.h"
#include "replay.h"

namespace perfbench {

/// A replayed chain's ledger summed over `slots` slots, plus what its
/// receivers observed.
struct LayerSample {
  Ledger ledger{};
  double slots = 0.0;
  double rx_calls = 0.0;
  double detected = 0.0;
  double signal_ok = 0.0;

  double NsPerSlot(Layer layer) const;
  double AllocsPerSlot(Layer layer) const;
  double CallsPerSlot(Layer layer) const;
  bool Covers(Layer layer) const {
    return ledger[static_cast<std::size_t>(layer)].calls > 0;
  }
  void Add(const LayerSample& o);
};

/// Per-slot cost of each slot kind of the full-stack campaign, from
/// ReplayWifiSlot: every slot pays `base`; each reflection pays
/// `reflect` (AddSignals only for the second and later); a slot with
/// energy pays `rx_single` or `rx_collision`.
struct SlotKindCosts {
  LayerSample base;          ///< Per slot, over every replayed slot.
  LayerSample reflect;       ///< Per reflection, AddSignals excluded.
  LayerSample add;           ///< Per AddSignals call.
  LayerSample rx_single;     ///< Per single-reflection slot.
  LayerSample rx_collision;  ///< Per two-reflection slot.
  double single_delivered = 0.0;  ///< Replayed single slots that delivered.

  void Add(const SlotKindCosts& o);
};

/// Replays one slot with `reflections` (0 = idle, 1 = single,
/// 2 = collision) concurrent tags, inputs from
/// Rng::ForTrial(seed, kind, rep), and charges it to `costs`.
void ReplaySlotKind(const freerider::sim::FullStackConfig& config,
                    std::uint64_t seed, std::size_t reflections,
                    std::uint64_t rep, SlotKindCosts& costs, SpanLog& log);

/// Layers a workload's own chain never calls are reported from these:
/// a two-reflection `mac_campaign` slot (every WiFi-side layer) and a
/// ZigBee link slot at a decodable distance.
struct ControlSamples {
  LayerSample wifi_collision;
  LayerSample zigbee;
};

ControlSamples ReplayControls(std::uint64_t seed, std::size_t reps,
                              SpanLog& log);

/// The phy80211 / phy802154 / channel / core / dsp rows of the per-layer
/// table, from `own` where it covers the layer, else from `control`.
void AddLayerMetrics(RunResult& result, const LayerSample& own,
                     const ControlSamples& control);

}  // namespace perfbench
