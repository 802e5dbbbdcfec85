#include "phy80211/ofdm.h"

#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"

namespace freerider::phy80211 {
namespace {

// 127-periodic pilot polarity sequence, clause 17.3.5.10.
constexpr std::array<int, 127> kPilotPolarity = {
    1,  1,  1,  1,  -1, -1, -1, 1,  -1, -1, -1, -1, 1,  1,  -1, 1,
    -1, -1, 1,  1,  -1, 1,  1,  -1, 1,  1,  1,  1,  1,  1,  -1, 1,
    1,  1,  -1, 1,  1,  -1, -1, 1,  1,  1,  -1, 1,  -1, -1, -1, 1,
    -1, 1,  -1, -1, 1,  -1, -1, 1,  1,  1,  1,  1,  -1, -1, 1,  1,
    -1, -1, 1,  -1, 1,  -1, 1,  1,  -1, -1, -1, 1,  1,  -1, -1, -1,
    -1, 1,  -1, -1, 1,  -1, 1,  1,  1,  1,  -1, 1,  -1, 1,  -1, 1,
    -1, -1, -1, -1, -1, 1,  -1, 1,  1,  -1, 1,  -1, 1,  1,  1,  -1,
    -1, 1,  -1, -1, -1, 1,  1,  1,  -1, -1, -1, -1, -1, -1, -1};

// Long training sequence L_k for k = -26..26 (53 values incl. DC 0).
constexpr std::array<int, 53> kLtf = {
    1, 1,  -1, -1, 1,  1,  -1, 1,  -1, 1,  1,  1,  1,  1, 1, -1, -1, 1,
    1, -1, 1,  -1, 1,  1,  1,  1,  0,  1,  -1, -1, 1,  1, -1, 1, -1, 1,
    -1, -1, -1, -1, -1, 1,  1,  -1, -1, 1,  -1, 1,  -1, 1, 1,  1, 1};

// Short training sequence: nonzero at multiples of 4; value pattern for
// k = -24, -20, -16, -12, -8, -4, 4, 8, 12, 16, 20, 24.
struct StfEntry {
  int subcarrier;
  Cplx value;
};
const std::array<StfEntry, 12>& StfEntries() {
  static const std::array<StfEntry, 12> entries = [] {
    const Cplx pp{1.0, 1.0};
    const Cplx nn{-1.0, -1.0};
    return std::array<StfEntry, 12>{{{-24, pp},
                                     {-20, nn},
                                     {-16, pp},
                                     {-12, nn},
                                     {-8, nn},
                                     {-4, pp},
                                     {4, nn},
                                     {8, nn},
                                     {12, pp},
                                     {16, pp},
                                     {20, pp},
                                     {24, pp}}};
  }();
  return entries;
}

// Amplitude scale applied after the (1/N-normalized) IFFT so a symbol
// with 52 unit-power subcarriers has unit mean time-domain power.
const double kTimeScale =
    static_cast<double>(kFftSize) /
    std::sqrt(static_cast<double>(kNumDataSubcarriers + kNumPilots));

}  // namespace

const std::array<int, kNumDataSubcarriers>& DataSubcarriers() {
  static const std::array<int, kNumDataSubcarriers> subcarriers = [] {
    std::array<int, kNumDataSubcarriers> sc{};
    std::size_t i = 0;
    for (int s = -26; s <= 26; ++s) {
      if (s == 0 || s == -21 || s == -7 || s == 7 || s == 21) continue;
      sc[i++] = s;
    }
    return sc;
  }();
  return subcarriers;
}

double PilotPolarity(std::size_t symbol_index) {
  return static_cast<double>(kPilotPolarity[symbol_index % 127]);
}

Cplx LtfSymbolAt(int subcarrier) {
  if (subcarrier < -26 || subcarrier > 26) return {0.0, 0.0};
  return {static_cast<double>(kLtf[static_cast<std::size_t>(subcarrier + 26)]),
          0.0};
}

void ModulateSymbolInto(std::span<const Cplx> data_points,
                        std::size_t symbol_index, std::span<Cplx> out) {
  if (data_points.size() != kNumDataSubcarriers) {
    throw std::invalid_argument("ModulateSymbolInto: need 48 data points");
  }
  if (out.size() != kSymbolLen) {
    throw std::invalid_argument("ModulateSymbolInto: need an 80-sample output");
  }
  std::array<Cplx, kFftSize> bins{};
  const auto& sc = DataSubcarriers();
  for (std::size_t i = 0; i < sc.size(); ++i) {
    bins[BinIndex(sc[i])] = data_points[i];
  }
  const double polarity = PilotPolarity(symbol_index);
  // Pilot base values: {+1, +1, +1, -1} on {-21, -7, +7, +21}.
  bins[BinIndex(-21)] = polarity;
  bins[BinIndex(-7)] = polarity;
  bins[BinIndex(7)] = polarity;
  bins[BinIndex(21)] = -polarity;
  dsp::Ifft(bins);
  // CP (the last 16 time samples), then the 64-sample symbol, scaled so
  // time-domain mean power is ~1 regardless of the 64-pt IFFT
  // normalization (52 live bins / 64 bins).
  for (std::size_t n = 0; n < kCpLen; ++n) {
    out[n] = bins[kFftSize - kCpLen + n] * kTimeScale;
  }
  for (std::size_t n = 0; n < kFftSize; ++n) {
    out[kCpLen + n] = bins[n] * kTimeScale;
  }
}

void DemodulateSymbolInto(std::span<const Cplx> symbol80, IqBuffer& bins) {
  if (symbol80.size() < kSymbolLen) {
    throw std::invalid_argument("DemodulateSymbolInto: need 80 samples");
  }
  bins.assign(symbol80.begin() + kCpLen, symbol80.begin() + kSymbolLen);
  dsp::Fft(bins);
}

void ExtractDataSubcarriersInto(std::span<const Cplx> bins,
                                std::span<const Cplx> channel, IqBuffer& out) {
  out.resize(kNumDataSubcarriers);
  const auto& sc = DataSubcarriers();
  for (std::size_t i = 0; i < sc.size(); ++i) {
    const std::size_t bin = BinIndex(sc[i]);
    Cplx value = bins[bin];
    if (!channel.empty()) {
      const Cplx h = channel[bin];
      if (std::norm(h) > 1e-30) value /= h;
    }
    out[i] = value;
  }
}

double PilotPhaseError(std::span<const Cplx> bins, std::span<const Cplx> channel,
                       std::size_t symbol_index) {
  const double polarity = PilotPolarity(symbol_index);
  const std::array<std::pair<int, double>, 4> pilots = {
      {{-21, polarity}, {-7, polarity}, {7, polarity}, {21, -polarity}}};
  Cplx acc{0.0, 0.0};
  for (const auto& [sc, expected] : pilots) {
    const std::size_t bin = BinIndex(sc);
    Cplx value = bins[bin];
    if (!channel.empty()) {
      const Cplx h = channel[bin];
      if (std::norm(h) > 1e-30) value /= h;
    }
    acc += value * expected;  // expected is ±1, so this derotates
  }
  return std::arg(acc);
}

IqBuffer ShortTrainingField() {
  IqBuffer bins(kFftSize, Cplx{0.0, 0.0});
  const double scale = std::sqrt(13.0 / 6.0);
  for (const auto& e : StfEntries()) {
    bins[BinIndex(e.subcarrier)] = e.value * scale;
  }
  IqBuffer period(bins.begin(), bins.end());
  dsp::Ifft(period);
  // t_short is periodic with period 16; emit 160 samples.
  IqBuffer out;
  out.reserve(160);
  for (std::size_t n = 0; n < 160; ++n) out.push_back(period[n % 64]);
  // Normalize to ~unit mean power like data symbols.
  for (auto& x : out) x *= kTimeScale;
  return out;
}

IqBuffer LongTrainingSymbol64() {
  IqBuffer bins(kFftSize, Cplx{0.0, 0.0});
  for (int s = -26; s <= 26; ++s) bins[BinIndex(s)] = LtfSymbolAt(s);
  IqBuffer time(bins.begin(), bins.end());
  dsp::Ifft(time);
  for (auto& x : time) x *= kTimeScale;
  return time;
}

IqBuffer LongTrainingField() {
  const IqBuffer sym = LongTrainingSymbol64();
  IqBuffer out;
  out.reserve(160);
  // 32-sample guard (second half of the symbol), then two full symbols.
  out.insert(out.end(), sym.end() - 32, sym.end());
  out.insert(out.end(), sym.begin(), sym.end());
  out.insert(out.end(), sym.begin(), sym.end());
  return out;
}

}  // namespace freerider::phy80211
