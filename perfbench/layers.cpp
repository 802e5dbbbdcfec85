#include "layers.h"

#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace fr = freerider;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kWifiTx: return "phy80211.tx";
    case Layer::kWifiRx: return "phy80211.rx";
    case Layer::kZigbeeTx: return "phy802154.tx";
    case Layer::kZigbeeRx: return "phy802154.rx";
    case Layer::kScale: return "channel.scale";
    case Layer::kAwgn: return "channel.awgn";
    case Layer::kTranslate: return "core.translate";
    case Layer::kAddSignals: return "dsp.add_signals";
    case Layer::kXorDecode: return "core.xor_decode";
    case Layer::kImpair: return "impair.injector";
    case Layer::kHelpers: return "sim.helpers";
    case Layer::kCount: break;
  }
  return "?";
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"step\":%u}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.step);
  }
  return std::fclose(f) == 0;
}

double LayerSample::NsPerSlot(Layer layer) const {
  return slots > 0.0
             ? static_cast<double>(ledger[static_cast<std::size_t>(layer)].ns) /
                   slots
             : 0.0;
}

double LayerSample::AllocsPerSlot(Layer layer) const {
  return slots > 0.0 ? static_cast<double>(
                           ledger[static_cast<std::size_t>(layer)].allocs) /
                           slots
                     : 0.0;
}

double LayerSample::CallsPerSlot(Layer layer) const {
  return slots > 0.0 ? static_cast<double>(
                           ledger[static_cast<std::size_t>(layer)].calls) /
                           slots
                     : 0.0;
}

void LayerSample::Add(const LayerSample& o) {
  Accumulate(ledger, o.ledger);
  slots += o.slots;
  rx_calls += o.rx_calls;
  detected += o.detected;
  signal_ok += o.signal_ok;
}

void SlotKindCosts::Add(const SlotKindCosts& o) {
  base.Add(o.base);
  reflect.Add(o.reflect);
  add.Add(o.add);
  rx_single.Add(o.rx_single);
  rx_collision.Add(o.rx_collision);
  single_delivered += o.single_delivered;
}

namespace {

void AddRx(LayerSample& s, const SlotReplay& r) {
  s.rx_calls += r.rx_ran ? 1.0 : 0.0;
  s.detected += r.detected ? 1.0 : 0.0;
  s.signal_ok += r.signal_ok ? 1.0 : 0.0;
}

double Frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void ReplaySlotKind(const fr::sim::FullStackConfig& config, std::uint64_t seed,
                    std::size_t reflections, std::uint64_t rep,
                    SlotKindCosts& costs, SpanLog& log) {
  fr::Rng rng = fr::Rng::ForTrial(seed, 0x51A7 + reflections, rep);
  SlotLedgers led;
  const SlotReplay r = ReplayWifiSlot(config, reflections, rng, led, log,
                                      static_cast<std::uint32_t>(rep));
  Accumulate(costs.base.ledger, led.base);
  costs.base.slots += 1.0;
  const auto add = static_cast<std::size_t>(Layer::kAddSignals);
  costs.add.ledger[add] += led.reflect[add];
  costs.add.slots += reflections > 1 ? static_cast<double>(reflections - 1) : 0.0;
  led.reflect[add] = LayerCost{};
  Accumulate(costs.reflect.ledger, led.reflect);
  costs.reflect.slots += static_cast<double>(reflections);
  LayerSample* rx = reflections == 1   ? &costs.rx_single
                    : reflections == 2 ? &costs.rx_collision
                                       : nullptr;
  if (rx != nullptr) {
    Accumulate(rx->ledger, led.rx);
    rx->slots += 1.0;
    AddRx(*rx, r);
  }
  if (reflections == 1) costs.single_delivered += r.delivered ? 1.0 : 0.0;
}

ControlSamples ReplayControls(std::uint64_t seed, std::size_t reps,
                              SpanLog& log) {
  ControlSamples control;
  const fr::sim::FullStackConfig campaign = CampaignConfig(seed, 0);
  fr::sim::LinkConfig zigbee;
  zigbee.radio = fr::core::RadioType::kZigbee;
  zigbee.profile = fr::sim::DefaultProfile(zigbee.radio);
  zigbee.profile.shadowing_sigma_db = 0.0;
  zigbee.num_packets = 1;
  zigbee.tag_to_rx_m = 10.0;
  for (std::size_t rep = 0; rep <= reps; ++rep) {
    const auto step = static_cast<std::uint32_t>(rep);
    fr::Rng wifi_rng = fr::Rng::ForTrial(seed, 0xC0A1, rep);
    SlotLedgers led;
    const SlotReplay r = ReplayWifiSlot(campaign, 2, wifi_rng, led, log, step);

    Ledger zigbee_ledger{};
    Tracer tracer(log, zigbee_ledger);
    tracer.set_step(step);
    fr::Rng zigbee_rng = fr::Rng::ForTrial(seed, 0xC0A2, rep);
    const LinkReplay z = ReplayLinkStep(zigbee, zigbee_rng, tracer);
    if (rep == 0) continue;  // warm-up

    LayerSample& w = control.wifi_collision;
    Accumulate(w.ledger, led.base);
    Accumulate(w.ledger, led.reflect);
    Accumulate(w.ledger, led.rx);
    w.slots += 1.0;
    AddRx(w, r);
    LayerSample& zs = control.zigbee;
    Accumulate(zs.ledger, zigbee_ledger);
    zs.slots += 1.0;
    zs.rx_calls += static_cast<double>(z.rx_calls);
    zs.detected += static_cast<double>(z.detected);
  }
  return control;
}

void AddLayerMetrics(RunResult& result, const LayerSample& own,
                     const ControlSamples& control) {
  auto pick = [&](Layer layer) -> const LayerSample& {
    if (own.Covers(layer)) return own;
    const bool zigbee = layer == Layer::kZigbeeTx || layer == Layer::kZigbeeRx;
    return zigbee ? control.zigbee : control.wifi_collision;
  };
  auto us = [&](const char* name, Layer layer) {
    result.Add(name, pick(layer).NsPerSlot(layer) / 1e3, "us");
  };
  auto allocs = [&](const char* name, Layer layer) {
    result.Add(name, pick(layer).AllocsPerSlot(layer), "count");
  };

  us("phy80211.tx.us_per_slot", Layer::kWifiTx);
  allocs("phy80211.tx.allocs_per_slot", Layer::kWifiTx);
  us("phy80211.rx.us_per_slot", Layer::kWifiRx);
  allocs("phy80211.rx.allocs_per_slot", Layer::kWifiRx);
  const LayerSample& wifi_rx = pick(Layer::kWifiRx);
  result.Add("phy80211.rx.detected_frac",
             Frac(wifi_rx.detected, wifi_rx.rx_calls), "frac");
  result.Add("phy80211.rx.signal_ok_frac",
             Frac(wifi_rx.signal_ok, wifi_rx.rx_calls), "frac");

  us("phy802154.tx.us_per_slot", Layer::kZigbeeTx);
  us("phy802154.rx.us_per_slot", Layer::kZigbeeRx);
  allocs("phy802154.rx.allocs_per_slot", Layer::kZigbeeRx);
  const LayerSample& zigbee_rx = pick(Layer::kZigbeeRx);
  result.Add("phy802154.rx.detected_frac",
             Frac(zigbee_rx.detected, zigbee_rx.rx_calls), "frac");

  us("channel.scale.us_per_slot", Layer::kScale);
  us("channel.awgn.us_per_slot", Layer::kAwgn);
  allocs("channel.awgn.allocs_per_slot", Layer::kAwgn);

  const LayerCost& translate =
      pick(Layer::kTranslate).ledger[static_cast<std::size_t>(Layer::kTranslate)];
  result.Add("core.translate.us_per_call",
             Frac(static_cast<double>(translate.ns) / 1e3,
                  static_cast<double>(translate.calls)),
             "us");
  result.Add("core.translate.calls_per_slot",
             pick(Layer::kTranslate).CallsPerSlot(Layer::kTranslate), "count");
  us("dsp.add_signals.us_per_slot", Layer::kAddSignals);
  us("core.xor_decode.us_per_slot", Layer::kXorDecode);
}

}  // namespace perfbench
