// Traced replay plumbing: a span log and a per-layer cost ledger, both
// fed by Tracer::Call around each call into a layer's public function.
//
// The replays that use it (replay.cpp) mirror
// the simulator's slot chain call for call, so per-layer time, call and
// allocation counts come from the benchmark's own code; nothing inside
// src/ is instrumented.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "harness.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kWifiTx,      ///< phy80211::BuildFrame
  kWifiRx,      ///< phy80211::ReceiveFrame
  kZigbeeTx,    ///< phy802154::BuildFrame
  kZigbeeRx,    ///< phy802154::ReceiveFrame
  kScale,       ///< channel::ToAbsolutePower
  kAwgn,        ///< channel::AddThermalNoise
  kTranslate,   ///< core::Translate
  kAddSignals,  ///< dsp::AddSignals
  kXorDecode,   ///< core::DecodeWifi / DecodeZigbee (+ tag-frame scan)
  kImpair,      ///< impair::FaultInjector calls
  kHelpers,     ///< RNG draws and sim-private helpers re-implemented here
  kCount,
};

inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);

const char* LayerName(Layer layer);

struct LayerCost {
  std::int64_t ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t calls = 0;

  void operator+=(const LayerCost& o) {
    ns += o.ns;
    allocs += o.allocs;
    calls += o.calls;
  }
};

using Ledger = std::array<LayerCost, kNumLayers>;

inline void Accumulate(Ledger& into, const Ledger& from) {
  for (std::size_t i = 0; i < kNumLayers; ++i) into[i] += from[i];
}

inline std::int64_t TotalNs(const Ledger& ledger) {
  std::int64_t total = 0;
  for (const LayerCost& c : ledger) total += c.ns;
  return total;
}

/// One span: a name, start and end instants, and the step it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t step = 0;
};

/// In-memory span log. Written out once, at the end of the run.
class SpanLog {
 public:
  void Reserve(std::size_t n) { spans_.reserve(n); }
  void Push(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint32_t step) {
    spans_.push_back({name, start_ns, end_ns, step});
  }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  /// One JSON object per line: {"name","start_ns","end_ns","step"}.
  /// Returns false if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Times one layer call, counts its allocations, charges the ledger and
/// records a span.
class Tracer {
 public:
  Tracer(SpanLog& log, Ledger& ledger) : log_(log), ledger_(ledger) {}

  void set_step(std::uint32_t step) { step_ = step; }

  template <class F>
  decltype(auto) Call(Layer layer, F&& f) {
    const std::uint64_t a0 = ThreadAllocCount();
    const std::int64_t t0 = NowNs();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      std::forward<F>(f)();
      Charge(layer, t0, a0);
    } else {
      decltype(auto) r = std::forward<F>(f)();
      Charge(layer, t0, a0);
      return r;
    }
  }

 private:
  void Charge(Layer layer, std::int64_t t0, std::uint64_t a0) {
    const std::int64_t t1 = NowNs();
    LayerCost& c = ledger_[static_cast<std::size_t>(layer)];
    c.ns += t1 - t0;
    c.allocs += ThreadAllocCount() - a0;
    ++c.calls;
    log_.Push(LayerName(layer), t0, t1, step_);
  }

  SpanLog& log_;
  Ledger& ledger_;
  std::uint32_t step_ = 0;
};

}  // namespace perfbench
