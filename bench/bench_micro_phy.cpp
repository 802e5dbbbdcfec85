// Microbenchmarks of the PHY substrate kernels (google-benchmark):
// Gaussian draws and the AWGN pass, FFT, preamble detection, Viterbi
// (hard + soft), interleaver, the tag's phase translation, full TX/RX
// chains for all three radios.
// These bound how fast the figure benches can sweep.
//
// BM_WifiRx400B, BM_WifiRx800B and BM_ZigbeeRx80B additionally report
// allocs_per_iter — heap allocations
// per steady-state frame decode, counted by the operator new/delete
// overrides below. The contract of both receivers' into-forms is 0, and
// so is BM_WifiTx800B's for BuildFrameInto (into:1).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>

#include "bench_harness.h"
#include "channel/awgn.h"
#include "common/cli.h"
#include "common/rng.h"
#include "core/translator.h"
#include "dsp/fft.h"
#include "dsp/workspace.h"
#include "phy80211/convolutional.h"
#include "phy80211/interleaver.h"
#include "phy80211/receiver.h"
#include "phy80211/sync.h"
#include "phy80211/transmitter.h"
#include "phy802154/frame.h"
#include "phyble/frame.h"

namespace {

std::atomic<std::int64_t> g_alloc_count{0};

}  // namespace

// Global allocation counter: every heap allocation in the process bumps
// g_alloc_count, so a bench can difference the counter around its timed
// loop to report allocations per iteration.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace freerider;

// One transform of n Gaussian points per iteration. The input is
// copied into a preallocated buffer, so no iteration allocates.
template <void (*Transform)(std::span<Cplx>)>
void RunTransform(benchmark::State& state, std::size_t n) {
  Rng rng(1);
  IqBuffer data(n);
  for (auto& x : data) x = rng.NextComplexGaussian();
  IqBuffer copy(data.size());
  for (auto _ : state) {
    copy = data;
    Transform(copy);
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// The OFDM symbol size.
void BM_Fft64(benchmark::State& state) { RunTransform<dsp::Fft>(state, 64); }
BENCHMARK(BM_Fft64);

// The block size of the 802.15.4 SHR search's overlap-save filter, which
// runs one forward and one inverse transform per block.
void BM_Fft2048(benchmark::State& state) {
  RunTransform<dsp::Fft>(state, 2048);
}
BENCHMARK(BM_Fft2048);

void BM_Ifft2048(benchmark::State& state) {
  RunTransform<dsp::Ifft>(state, 2048);
}
BENCHMARK(BM_Ifft2048);

// One standard-normal draw, the unit of every noise pass (AWGN,
// interferer bursts, shadowing, phase drift).
void BM_NextGaussian(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextGaussian());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NextGaussian);

// Preamble scan over a 4096-sample noisy capture with one frame in it —
// the per-position correlation kernel is the dominant cost of RX.
void BM_DetectPreamble(benchmark::State& state) {
  Rng rng(7);
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 40), {});
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy80211::kSampleRateHz;
  fe.noise_figure_db = 5.0;
  IqBuffer padded(1000, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.resize(4096, Cplx{0.0, 0.0});
  const IqBuffer rx = channel::ApplyLink(padded, -60.0, fe, rng);
  for (auto _ : state) {
    phy80211::Detection det =
        phy80211::DetectPreambleFast(rx, 0.55, dsp::ThreadLocalWorkspace());
    benchmark::DoNotOptimize(&det);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rx.size()));
}
BENCHMARK(BM_DetectPreamble);

// The 800-byte WiFi frame of the wifi_link perfbench workload (and of
// figs 10, 11 and 14), padded with 150 samples on each side as
// sim::SimulateTagLink pads it: ~22k samples. `cfo_hz` offsets the
// receiver's oscillator.
IqBuffer WifiCapture800B(Rng& rng, double cfo_hz = 0.0) {
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 800), {});
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy80211::kSampleRateHz;
  fe.noise_figure_db = 5.0;
  fe.cfo_hz = cfo_hz;
  IqBuffer padded(150, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.insert(padded.end(), 150, Cplx{0.0, 0.0});
  return channel::ApplyLink(padded, -80.0, fe, rng);
}

// The AWGN pass of a wifi_link slot: two Gaussian draws per sample of
// the ~22k-sample capture, added in place (the noise accumulates across
// iterations, which the timing does not see).
void BM_AddThermalNoise22k(benchmark::State& state) {
  Rng rng(13);
  IqBuffer capture = WifiCapture800B(rng);
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy80211::kSampleRateHz;
  fe.noise_figure_db = 5.0;
  for (auto _ : state) {
    channel::AddThermalNoiseInPlace(capture, fe, rng);
    benchmark::DoNotOptimize(capture.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(capture.size()));
}
BENCHMARK(BM_AddThermalNoise22k);

// Preamble scan over the 800-byte capture: ReceiveFrame's first scan.
// Its second, after CFO correction, is DetectPreambleAfterMix.
void BM_DetectPreamble22k(benchmark::State& state) {
  Rng rng(10);
  const IqBuffer rx = WifiCapture800B(rng);
  for (auto _ : state) {
    phy80211::Detection det =
        phy80211::DetectPreambleFast(rx, 0.55, dsp::ThreadLocalWorkspace());
    benchmark::DoNotOptimize(&det);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rx.size()));
}
BENCHMARK(BM_DetectPreamble22k);

// The tag's phase translation of the 800-byte frame at the default
// redundancy: one core::Translate call of a wifi_link slot.
void BM_Translate800B(benchmark::State& state) {
  Rng rng(12);
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 800), {});
  const core::TranslateConfig config;
  const BitVector tag_bits = RandomBits(
      rng, core::TagBitCapacity(frame.waveform.size(), config));
  for (auto _ : state) {
    IqBuffer out = core::Translate(frame.waveform, tag_bits, config);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.waveform.size()));
}
BENCHMARK(BM_Translate800B);

void BM_ViterbiDecode1k(benchmark::State& state) {
  Rng rng(2);
  BitVector data = RandomBits(rng, 1000);
  for (int i = 0; i < 6; ++i) data.push_back(0);
  const BitVector coded = phy80211::ConvolutionalEncode(data);
  for (auto _ : state) {
    BitVector decoded = phy80211::ViterbiDecode(coded);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ViterbiDecode1k);

// The hard decode of one 800-byte frame at 6 Mb/s: 268 OFDM symbols of
// 24 data bits (SERVICE, PSDU, tail and pad), 6432 trellis steps, with
// 3 % of the coded bits erased. Into a warm decision buffer and output,
// as ReceiveFrame calls it.
void BM_ViterbiDecode6k(benchmark::State& state) {
  Rng rng(6);
  BitVector data = RandomBits(rng, 268 * 24 - 6);
  for (int i = 0; i < 6; ++i) data.push_back(0);
  BitVector coded = phy80211::ConvolutionalEncode(data);
  for (auto& b : coded) {
    if (rng.NextDouble() < 0.03) b = 2;
  }
  std::vector<std::uint8_t> decisions;
  BitVector decoded;
  for (auto _ : state) {
    phy80211::ViterbiDecodeInto(coded, decisions, decoded);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ViterbiDecode6k);

void BM_ViterbiDecodeSoft1k(benchmark::State& state) {
  Rng rng(2);
  BitVector data = RandomBits(rng, 1000);
  for (int i = 0; i < 6; ++i) data.push_back(0);
  const BitVector coded = phy80211::ConvolutionalEncode(data);
  std::vector<double> llrs;
  llrs.reserve(coded.size());
  for (Bit b : coded) llrs.push_back(b ? 1.0 : -1.0);
  for (auto _ : state) {
    BitVector decoded = phy80211::ViterbiDecodeSoft(llrs);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ViterbiDecodeSoft1k);

// One 54 Mbps symbol (N_CBPS = 288) through the RX-side deinterleaver.
void BM_Interleaver(benchmark::State& state) {
  Rng rng(8);
  const auto& params = phy80211::ParamsFor(phy80211::Rate::k54Mbps);
  const BitVector bits = RandomBits(rng, params.coded_bits_per_symbol);
  const BitVector interleaved = phy80211::InterleaveSymbol(bits, params);
  BitVector out;
  for (auto _ : state) {
    phy80211::DeinterleaveSymbolInto(interleaved, params, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(params.coded_bits_per_symbol));
}
BENCHMARK(BM_Interleaver);

void BM_WifiTx400B(benchmark::State& state) {
  Rng rng(3);
  const Bytes payload = RandomBytes(rng, 400);
  for (auto _ : state) {
    phy80211::TxFrame frame = phy80211::BuildFrame(payload, {});
    benchmark::DoNotOptimize(frame.waveform.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 400);
}
BENCHMARK(BM_WifiTx400B);

// The 800-byte excitation of wifi_link and mac_campaign, built by the
// allocating BuildFrame (arg 0) and by BuildFrameInto into a reused
// frame and the thread's workspace (arg 1, the slot chain's path; contract: 0
// allocs_per_iter once warm).
void BM_WifiTx800B(benchmark::State& state) {
  Rng rng(3);
  const Bytes payload = RandomBytes(rng, 800);
  const bool into = state.range(0) != 0;
  phy80211::TxFrame frame;
  phy80211::BuildFrameInto(payload, {}, frame);  // warm-up

  const std::int64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    if (into) {
      phy80211::BuildFrameInto(payload, {}, frame);
      benchmark::DoNotOptimize(frame.waveform.data());
    } else {
      const phy80211::TxFrame fresh = phy80211::BuildFrame(payload, {});
      benchmark::DoNotOptimize(fresh.waveform.data());
    }
  }
  const std::int64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);

  const auto iters = static_cast<std::int64_t>(state.iterations());
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(iters > 0 ? iters : 1));
  state.SetBytesProcessed(iters * 800);
}
BENCHMARK(BM_WifiTx800B)->ArgName("into")->Arg(0)->Arg(1);

void BM_WifiRx400B(benchmark::State& state) {
  Rng rng(4);
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 400), {});
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy80211::kSampleRateHz;
  fe.noise_figure_db = 5.0;
  IqBuffer padded(100, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  const IqBuffer rx = channel::ApplyLink(padded, -60.0, fe, rng);

  dsp::Workspace ws;
  phy80211::RxResult result;
  // Warm-up decode: after it, workspace and result capacities are at
  // steady state, so the timed loop measures (and counts allocations
  // for) the reuse path.
  phy80211::ReceiveFrame(rx, {}, ws, result);

  const std::int64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    phy80211::ReceiveFrame(rx, {}, ws, result);
    benchmark::DoNotOptimize(&result);
  }
  const std::int64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);

  const auto iters = static_cast<std::int64_t>(state.iterations());
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(iters > 0 ? iters : 1));
  state.SetItemsProcessed(iters);
  state.SetBytesProcessed(iters * 400);
}
BENCHMARK(BM_WifiRx400B);

// ReceiveFrame on the 800-byte capture (the wifi_link shape), with the
// receiver's oscillator off by state.range(0) Hz. At 0 Hz the second
// preamble scan refines a handful of pairs; at 80 kHz its rotation
// bound keeps nearly every pair, the worst case of the certified scan.
void BM_WifiRx800B(benchmark::State& state) {
  Rng rng(12);
  const IqBuffer rx =
      WifiCapture800B(rng, static_cast<double>(state.range(0)));
  dsp::Workspace ws;
  phy80211::RxResult result;
  phy80211::ReceiveFrame(rx, {}, ws, result);  // warm-up
  if (!result.fcs_ok) state.SkipWithError("capture did not decode");

  const std::int64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    phy80211::ReceiveFrame(rx, {}, ws, result);
    benchmark::DoNotOptimize(&result);
  }
  const std::int64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);

  const auto iters = static_cast<std::int64_t>(state.iterations());
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(iters > 0 ? iters : 1));
  state.SetItemsProcessed(iters);
  state.SetBytesProcessed(iters * 800);
}
BENCHMARK(BM_WifiRx800B)->Arg(0)->Arg(80000);

void BM_ZigbeeTxRx60B(benchmark::State& state) {
  Rng rng(5);
  const Bytes payload = RandomBytes(rng, 60);
  for (auto _ : state) {
    phy802154::TxFrame frame = phy802154::BuildFrame(payload);
    phy802154::RxResult result = phy802154::ReceiveFrame(frame.waveform);
    benchmark::DoNotOptimize(&result);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 60);
}
BENCHMARK(BM_ZigbeeTxRx60B);

// 802.15.4 receive of a noisy 80-byte frame padded with 200 samples on
// each side, the capture shape of the zigbee_link perfbench workload
// (~23k samples), through the into-form and a warm result. Reports
// allocs_per_iter like BM_WifiRx400B; the contract is 0.
void BM_ZigbeeRx80B(benchmark::State& state) {
  Rng rng(9);
  const phy802154::TxFrame frame = phy802154::BuildFrame(RandomBytes(rng, 80));
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy802154::kSampleRateHz;
  fe.noise_figure_db = 5.0;
  IqBuffer padded(200, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.insert(padded.end(), 200, Cplx{0.0, 0.0});
  const IqBuffer rx = channel::ApplyLink(padded, -95.0, fe, rng);

  phy802154::RxResult result;
  phy802154::ReceiveFrame(rx, {}, result);  // warm-up
  if (!result.fcs_ok) state.SkipWithError("capture did not decode");
  const std::int64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    phy802154::ReceiveFrame(rx, {}, result);
    benchmark::DoNotOptimize(&result);
  }
  const std::int64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);

  const auto iters = static_cast<std::int64_t>(state.iterations());
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(iters > 0 ? iters : 1));
  state.SetItemsProcessed(iters);
  state.SetBytesProcessed(iters * 80);
}
BENCHMARK(BM_ZigbeeRx80B);

void BM_BleTxRx36B(benchmark::State& state) {
  Rng rng(6);
  const Bytes payload = RandomBytes(rng, 36);
  for (auto _ : state) {
    phyble::TxFrame frame = phyble::BuildFrame(payload);
    phyble::RxResult result = phyble::ReceiveFrame(frame.waveform);
    benchmark::DoNotOptimize(&result);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 36);
}
BENCHMARK(BM_BleTxRx36B);

// Console reporter that also captures every run for the TIMING
// artifact: a fixed-schema JSON (name, iterations, real/cpu ns per
// iteration, user counters) regardless of library version. Values are
// wall clock — TIMING is telemetry, never byte-diffed.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::ostringstream e;
      e << "    {\"name\": \"" << run.benchmark_name() << "\","
        << " \"iterations\": " << run.iterations << ",";
      if (run.aggregate_unit == benchmark::kPercentage) {
        // A `_cv` aggregate holds a coefficient of variation, a plain
        // ratio; GetAdjusted*Time would scale it like a time.
        e << " \"real_time_ratio\": " << run.real_accumulated_time << ","
          << " \"cpu_time_ratio\": " << run.cpu_accumulated_time;
      } else {
        e << " \"real_time_ns\": " << run.GetAdjustedRealTime() << ","
          << " \"cpu_time_ns\": " << run.GetAdjustedCPUTime();
      }
      for (const auto& [name, counter] : run.counters) {
        // A zero counter's coefficient of variation is 0/0; JSON has no
        // NaN, so a non-finite value is written as null.
        const double value = static_cast<double>(counter);
        e << ", \"" << name << "\": ";
        if (std::isfinite(value)) {
          e << value;
        } else {
          e << "null";
        }
      }
      e << "}";
      entries_.push_back(e.str());
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::string Json() const {
    std::ostringstream out;
    out << "{\n  \"bench\": \"micro_phy\",\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << entries_[i] << (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return out.str();
  }

 private:
  std::vector<std::string> entries_;
};

}  // namespace

// Hand-rolled BENCHMARK_MAIN(): benchmark::Initialize consumes the
// flags google-benchmark owns (--benchmark_*), the harness consumes
// --out-dir, then the shared CLI contract rejects whatever is left
// instead of silently ignoring it. Results also land in
// TIMING_micro_phy.json under --out-dir — wall-clock telemetry, never
// byte-diffed.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const std::string out_dir = freerider::bench::OutDirFromArgs(argc, argv);
  if (const int rc = freerider::cli::RejectUnknownArgs(
          argc, argv,
          "bench_micro_phy [--out-dir DIR] [--benchmark_* flags]")) {
    return rc;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  freerider::bench::EmitTiming(out_dir, "micro_phy", reporter.Json());
  benchmark::Shutdown();
  return 0;
}
