#include "phy80211/transmitter.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/crc.h"
#include "phy80211/constellation.h"
#include "phy80211/convolutional.h"
#include "phy80211/interleaver.h"
#include "phy80211/ofdm.h"
#include "phy80211/scrambler.h"

namespace freerider::phy80211 {
namespace {

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;
constexpr std::size_t kFcsBytes = 4;

// SIGNAL field: RATE(4) | reserved(1) | LENGTH(12) | parity(1) | tail(6),
// BPSK rate 1/2, not scrambled, pilot index 0.
BitVector BuildSignalBits(Rate rate, std::size_t psdu_bytes) {
  const auto& params = ParamsFor(rate);
  BitVector bits;
  bits.reserve(24);
  for (int i = 3; i >= 0; --i) {
    bits.push_back(static_cast<Bit>((params.signal_rate_bits >> i) & 1u));
  }
  bits.push_back(0);  // reserved
  AppendBitsLsbFirst(bits, static_cast<std::uint32_t>(psdu_bytes), 12);
  Bit parity = 0;
  for (std::size_t i = 0; i < 17; ++i) parity ^= bits[i];
  bits.push_back(parity);
  bits.insert(bits.end(), kTailBits, 0);
  return bits;
}

IqBuffer ModulateDataBits(std::span<const Bit> scrambled, const RateParams& params,
                          std::size_t first_symbol_index) {
  // Encode, puncture, interleave, map, OFDM-modulate symbol by symbol.
  const BitVector coded = Puncture(ConvolutionalEncode(scrambled), params.coding);
  const BitVector interleaved = InterleaveStream(coded, params);
  const IqBuffer points = MapBits(interleaved, params.modulation);

  IqBuffer waveform;
  const std::size_t num_symbols = points.size() / kNumDataSubcarriers;
  waveform.reserve(num_symbols * kSymbolLen);
  for (std::size_t s = 0; s < num_symbols; ++s) {
    const IqBuffer sym = ModulateSymbol(
        std::span<const Cplx>(points).subspan(s * kNumDataSubcarriers,
                                              kNumDataSubcarriers),
        first_symbol_index + s);
    waveform.insert(waveform.end(), sym.begin(), sym.end());
  }
  return waveform;
}

}  // namespace

std::size_t NumDataSymbols(std::size_t psdu_bytes, Rate rate) {
  const auto& params = ParamsFor(rate);
  const std::size_t payload_bits = kServiceBits + psdu_bytes * 8 + kTailBits;
  return (payload_bits + params.data_bits_per_symbol - 1) /
         params.data_bits_per_symbol;
}

std::size_t PsduBytesForDuration(double duration_s, Rate rate) {
  // duration = preamble (16 us) + SIGNAL (4 us) + N_sym * 4 us
  const double data_time = duration_s - 20e-6;
  const auto symbols = static_cast<std::size_t>(
      std::max(1.0, std::floor(data_time / kSymbolDurationS)));
  const auto& params = ParamsFor(rate);
  const std::size_t bits = symbols * params.data_bits_per_symbol;
  if (bits <= kServiceBits + kTailBits + 8) return 1;
  return (bits - kServiceBits - kTailBits) / 8;
}

TxFrame BuildFrame(std::span<const std::uint8_t> payload, const TxConfig& config) {
  const auto& params = ParamsFor(config.rate);

  // PSDU = payload + CRC-32 FCS.
  Bytes psdu(payload.begin(), payload.end());
  const std::uint32_t fcs = Crc32(payload);
  for (int i = 0; i < 4; ++i) {
    psdu.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFFu));
  }

  // DATA field bits: SERVICE (16 zeros) + PSDU + tail + pad.
  BitVector data_bits(kServiceBits, 0);
  const BitVector psdu_bits = BytesToBits(psdu);
  data_bits.insert(data_bits.end(), psdu_bits.begin(), psdu_bits.end());
  data_bits.insert(data_bits.end(), kTailBits, 0);
  const std::size_t num_symbols =
      (data_bits.size() + params.data_bits_per_symbol - 1) /
      params.data_bits_per_symbol;
  data_bits.resize(num_symbols * params.data_bits_per_symbol, 0);

  // Scramble; re-zero the 6 tail bits post-scrambling (clause 17.3.5.3)
  // so the encoder terminates in state 0.
  Scrambler scrambler(config.scrambler_seed);
  BitVector scrambled = scrambler.Process(data_bits);
  const std::size_t tail_pos = kServiceBits + psdu_bits.size();
  for (std::size_t i = 0; i < kTailBits; ++i) scrambled[tail_pos + i] = 0;

  // Assemble waveform: STF | LTF | SIGNAL | DATA.
  TxFrame frame;
  frame.rate = config.rate;
  frame.psdu = std::move(psdu);
  frame.data_bits = std::move(data_bits);
  frame.num_data_symbols = num_symbols;

  const IqBuffer stf = ShortTrainingField();
  const IqBuffer ltf = LongTrainingField();
  frame.waveform.insert(frame.waveform.end(), stf.begin(), stf.end());
  frame.waveform.insert(frame.waveform.end(), ltf.begin(), ltf.end());

  const BitVector signal_bits = BuildSignalBits(config.rate, frame.psdu.size());
  const IqBuffer signal_wave =
      ModulateDataBits(signal_bits, ParamsFor(Rate::k6Mbps), 0);
  frame.waveform.insert(frame.waveform.end(), signal_wave.begin(),
                        signal_wave.end());
  frame.preamble_samples = frame.waveform.size();

  const IqBuffer data_wave = ModulateDataBits(scrambled, params, 1);
  frame.waveform.insert(frame.waveform.end(), data_wave.begin(), data_wave.end());
  return frame;
}

double FrameDurationS(const TxFrame& frame) {
  return static_cast<double>(frame.waveform.size()) / kSampleRateHz;
}

}  // namespace freerider::phy80211
