// wifi_link / zigbee_link: one backscatter packet per step through
// sim::SimulateTagLink, on one thread, closed loop.
//
// Step i runs on Rng::ForTrial(seed, i, 0). Its tag-to-receiver distance
// walks a golden-ratio sequence (offset drawn from the seed) across a
// range that straddles the receiver's detection threshold, so every
// prefix of the run sees the same SNR mix. The sensitivity gate is
// lowered below that range: every packet reaches the PHY receiver.
#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <vector>

#include "layers.h"
#include "replay.h"
#include "sim/link.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fr = freerider;

/// step_ms_p99 needs at least 1000 samples; the fidelity metrics and
/// the outputs digest cover exactly this fixed prefix.
constexpr std::size_t kMinSteps = 1000;
constexpr std::size_t kRecheckEvery = 50;
constexpr std::uint64_t kDistancePoint = ~std::uint64_t{0};
constexpr std::uint64_t kWarmupPoint = ~std::uint64_t{0} - 1;
constexpr double kGolden = 0.6180339887498949;

class StepSource {
 public:
  StepSource(bool zigbee, std::uint64_t seed) : seed_(seed) {
    base_.radio = zigbee ? fr::core::RadioType::kZigbee
                         : fr::core::RadioType::kWifi;
    base_.profile = fr::sim::DefaultProfile(base_.radio);
    base_.profile.sensitivity_dbm = -150.0;
    base_.num_packets = 1;
    // WiFi: budget SNR +5 … -2 dB; ZigBee: +0.2 … -6 dB (the O-QPSK
    // despreader holds below 0 dB).
    lo_m_ = zigbee ? 16.0 : 30.0;
    hi_m_ = zigbee ? 34.0 : 70.0;
    offset_ = fr::Rng::ForTrial(seed, kDistancePoint, 0).NextDouble();
  }

  fr::sim::LinkConfig Config(std::uint64_t step) const {
    fr::sim::LinkConfig config = base_;
    const double u =
        std::fmod(offset_ + kGolden * static_cast<double>(step), 1.0);
    config.tag_to_rx_m = lo_m_ + (hi_m_ - lo_m_) * u;
    return config;
  }
  fr::Rng StepRng(std::uint64_t step) const {
    return fr::Rng::ForTrial(seed_, step, 0);
  }
  fr::sim::LinkStats Run(std::uint64_t step) const {
    fr::Rng rng = StepRng(step);
    return fr::sim::SimulateTagLink(Config(step), rng);
  }

 private:
  fr::sim::LinkConfig base_;
  std::uint64_t seed_;
  double lo_m_ = 0.0;
  double hi_m_ = 0.0;
  double offset_ = 0.0;
};

bool Finite(const fr::sim::LinkStats& s) {
  return std::isfinite(s.packet_reception_rate) && std::isfinite(s.tag_ber) &&
         std::isfinite(s.tag_throughput_bps) && std::isfinite(s.rssi_dbm) &&
         std::isfinite(s.snr_db);
}

/// Timed untraced steps 0, 1, … until `seconds` have passed and at
/// least kMinSteps ran (or a hard wall cap is hit). Only the first
/// kMinSteps stats are kept, so the benchmark's own bookkeeping does not
/// grow peak_rss_mb with the step count.
struct StepRun {
  std::vector<fr::sim::LinkStats> stats;
  std::vector<double> step_ms;
  std::vector<Window> windows;
  std::size_t failed = 0;
};

/// Short windows, so a brief slowdown of the host spoils only a few of
/// them and the median passes over it.
constexpr double kWindowS = 0.5;

StepRun RunSteps(const StepSource& source, double seconds) {
  StepRun run;
  run.stats.reserve(kMinSteps);
  run.step_ms.reserve(8 * kMinSteps);
  const double cap_s = 2.0 * seconds + 30.0;
  const std::int64_t start = NowNs();
  std::int64_t window_start = start;
  double window_cpu = ProcessCpuSeconds();
  std::size_t window_slots = 0;
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t now = NowNs();
    const double elapsed = 1e-9 * static_cast<double>(now - start);
    if ((i >= kMinSteps && elapsed >= seconds) || elapsed >= cap_s) break;
    if (1e-9 * static_cast<double>(now - window_start) >= kWindowS) {
      const double cpu = ProcessCpuSeconds();
      run.windows.push_back({static_cast<double>(window_slots),
                             1e-9 * static_cast<double>(now - window_start),
                             cpu - window_cpu});
      window_start = now;
      window_cpu = cpu;
      window_slots = 0;
    }
    fr::sim::LinkStats s;
    bool ok = true;
    try {
      s = source.Run(i);
    } catch (const std::exception&) {
      ok = false;
    }
    run.step_ms.push_back(1e-6 * static_cast<double>(NowNs() - now));
    ++window_slots;
    if (!ok || !Finite(s)) ++run.failed;
    if (i < kMinSteps) run.stats.push_back(s);
  }
  return run;
}

void AddOutputs(RunResult& result, const StepSource& source,
                const StepRun& run) {
  const std::size_t n = std::min(run.stats.size(), kMinSteps);
  Digest per_step;
  double goodput_sum = 0.0;
  std::uint64_t decoded = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const fr::sim::LinkStats& s = run.stats[i];
    per_step.Add("d", static_cast<std::uint64_t>(s.packets_decoded));
    per_step.Add("ber", s.tag_ber);
    per_step.Add("tp", s.tag_throughput_bps);
    per_step.Add("rssi", s.rssi_dbm);
    goodput_sum += s.tag_throughput_bps;
    decoded += s.packets_decoded;
  }
  // One packet per step and a fixed excitation length give every step
  // the same airtime, so Σ good-chunk bits / Σ airtime is the mean of
  // the per-step goodputs.
  const double denom = static_cast<double>(n > 0 ? n : 1);
  const double goodput_kbps = goodput_sum / denom / 1e3;
  const double delivered_pct = 100.0 * static_cast<double>(decoded) / denom;
  result.Add("tag_goodput_kbps", goodput_kbps, "kbps");
  result.Add("delivered_pct", delivered_pct, "%");

  Digest summary;
  summary.Add("steps", static_cast<std::uint64_t>(n));
  summary.Add("decoded", decoded);
  summary.Add("goodput_bps", goodput_sum / denom);
  result.digest_text = summary.text();
  result.digest_hash = per_step.Hash();

  // Determinism re-check on a fixed sample of the prefix.
  for (std::size_t i = 0; i < n; i += kRecheckEvery) {
    bool same = false;
    try {
      same = SameLinkOutcome(source.Run(i), run.stats[i]);
    } catch (const std::exception&) {
    }
    if (!same) {
      ++result.failed;
      result.Problem("re-check mismatch at step " + std::to_string(i));
    }
  }
  // Σ good-chunk bits > 0 means some 96-bit tag chunk came back exactly:
  // the XOR decode recovers tag data.
  if (!(goodput_kbps > 0.0)) result.Problem("no error-free tag chunk decoded");
  if (!(delivered_pct > 0.0)) result.Problem("no packet decoded");
}

}  // namespace

RunResult RunLinkWorkload(const RunOptions& options, bool zigbee) {
  RunResult result;
  const StepSource source(zigbee, options.seed);
  // Warm-up: FFT plans, lookup tables and the receiver workspace are
  // built on first use; set-up time pays for them, the timed steps don't.
  for (std::uint64_t w = 0; w < 2; ++w) {
    fr::Rng rng = fr::Rng::ForTrial(options.seed, kWarmupPoint, w);
    fr::sim::SimulateTagLink(source.Config(w), rng);
  }
  result.first_step_ns = NowNs();
  if (options.setup_only) return result;

  if (!options.trace) {
    const StepRun run = RunSteps(source, options.seconds);
    result.attempted = run.step_ms.size();
    result.failed = run.failed;
    AddHostMetrics(result, run.step_ms, run.windows);
    AddOutputs(result, source, run);
    AddFailMetrics(result);
    return result;
  }

  // Traced run. Each step runs twice, untraced and inside a span, in
  // alternating order (so drift in host speed hits both alike); then
  // its slot chain is replayed layer by layer.
  SpanLog log;
  log.Reserve(1 << 16);
  LayerSample own;
  Tracer tracer(log, own.ledger);
  std::vector<double> untraced;
  std::vector<double> traced_ms;
  double replay_ns = 0.0;
  double busy_ns = 0.0;
  std::size_t matches = 0;
  const std::int64_t start = NowNs();
  for (std::uint32_t i = 0;; ++i) {
    if (i >= 20 &&
        1e-9 * static_cast<double>(NowNs() - start) >= 0.8 * options.seconds) {
      break;
    }
    fr::sim::LinkStats plain;
    fr::sim::LinkStats spanned;
    auto run_plain = [&] {
      const std::int64_t t0 = NowNs();
      try {
        plain = source.Run(i);
      } catch (const std::exception&) {
        ++result.failed;
      }
      untraced.push_back(1e-6 * static_cast<double>(NowNs() - t0));
    };
    auto run_spanned = [&] {
      const std::int64_t t0 = NowNs();
      try {
        spanned = source.Run(i);
      } catch (const std::exception&) {
        ++result.failed;
      }
      const std::int64_t t1 = NowNs();
      log.Push("sim.step", t0, t1, i);
      traced_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
    };
    if (i % 2 == 0) {
      run_plain();
      run_spanned();
    } else {
      run_spanned();
      run_plain();
    }
    result.attempted += 2;
    if (!Finite(plain) || !SameLinkOutcome(plain, spanned)) ++result.failed;

    tracer.set_step(i);
    fr::Rng rng = source.StepRng(i);
    const std::int64_t r0 = NowNs();
    const LinkReplay replay = ReplayLinkStep(source.Config(i), rng, tracer);
    const std::int64_t r1 = NowNs();
    log.Push("bench.replay", r0, r1, i);
    replay_ns += static_cast<double>(r1 - r0);
    busy_ns += static_cast<double>(r1 - r0) +
               1e6 * (untraced.back() + traced_ms.back());
    matches += SameLinkOutcome(replay.stats, plain) ? 1 : 0;
    own.rx_calls += static_cast<double>(replay.rx_calls);
    own.detected += static_cast<double>(replay.detected);
    own.signal_ok += static_cast<double>(replay.signal_ok);
  }
  const double loop_ns = static_cast<double>(NowNs() - start);
  const std::size_t n = traced_ms.size();
  own.slots = static_cast<double>(n);
  const ControlSamples control = ReplayControls(options.seed, 8, log);

  double untraced_ns = 0.0;
  for (const double ms : untraced) untraced_ns += 1e6 * ms;
  double phy_ns = 0.0;
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer != Layer::kHelpers && layer != Layer::kImpair) {
      phy_ns += static_cast<double>(own.ledger[l].ns);
    }
  }
  const double nd = static_cast<double>(n);

  AddLayerMetrics(result, own, control);
  // No MAC, transport, health or rogue layer on a single link: one slot
  // per step; a step is "empty" when its packet never reached the PHY.
  result.Add("mac.slots_per_round", 1.0, "count");
  result.Add("mac.empty_slot_frac", 1.0 - own.rx_calls / nd, "frac");
  result.Add("mac.collision_slot_frac", 0.0, "frac");
  result.Add("transport.retx_per_delivery", 0.0, "ratio");
  result.Add("transport.rejected_full", 0.0, "count");
  result.Add("health.quarantines", 0.0, "count");
  result.Add("health.probes_per_round", 0.0, "count");
  result.Add("impair.rogue_reflections_per_round", 0.0, "count");
  result.Add("impair.faded_frac", 0.0, "frac");
  result.Add("sim.round.phy_explained_frac", phy_ns / untraced_ns, "frac");
  result.Add("sim.round.mac_self_us", (untraced_ns - phy_ns) / nd / 1e3, "us");
  // One thread, one task per step: busy is the share of the loop spent
  // inside timed calls, the straggler the slowest step over the median.
  const double max_ms = *std::max_element(untraced.begin(), untraced.end());
  result.Add("runtime.busy_frac", busy_ns / loop_ns, "frac");
  result.Add("runtime.straggler_ratio", max_ms / Median(untraced), "ratio");
  result.Add("runtime.steals", 0.0, "count");
  result.Add("sim.slot.replay_us", replay_ns / nd / 1e3, "us");
  result.Add("sim.slot.gap_frac",
             std::fabs(untraced_ns - replay_ns) / untraced_ns, "frac");
  result.Add("sim.replay.match_frac", static_cast<double>(matches) / nd,
             "frac");
  const double untraced_p50 = Median(untraced);
  result.Add("bench.trace_overhead_frac",
             (Median(traced_ms) - untraced_p50) / untraced_p50, "frac");

  if (!options.trace_out.empty() && !log.WriteJsonLines(options.trace_out)) {
    result.Problem("cannot write " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
