#include "phy80211/transmitter.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/crc.h"
#include "dsp/workspace.h"
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

// Preamble: STF (160) + LTF (160), then the SIGNAL symbol.
constexpr std::size_t kTrainingSamples = 320;

// SIGNAL field: RATE(4) | reserved(1) | LENGTH(12) | parity(1) | tail(6),
// BPSK rate 1/2, not scrambled, pilot index 0.
void BuildSignalBitsInto(Rate rate, std::size_t psdu_bytes, BitVector& bits) {
  const auto& params = ParamsFor(rate);
  bits.clear();
  for (int i = 3; i >= 0; --i) {
    bits.push_back(static_cast<Bit>((params.signal_rate_bits >> i) & 1u));
  }
  bits.push_back(0);  // reserved
  AppendBitsLsbFirst(bits, static_cast<std::uint32_t>(psdu_bytes), 12);
  Bit parity = 0;
  for (std::size_t i = 0; i < 17; ++i) parity ^= bits[i];
  bits.push_back(parity);
  bits.insert(bits.end(), kTailBits, 0);
}

// Encode, puncture, interleave and map `scrambled`, then OFDM-modulate
// symbol by symbol straight into `out` (80 samples per symbol).
void ModulateDataBitsInto(std::span<const Bit> scrambled,
                          const RateParams& params,
                          std::size_t first_symbol_index, dsp::Workspace& ws,
                          std::span<Cplx> out) {
  ConvolutionalEncodeInto(scrambled, ws.tx_mother);
  PunctureInto(ws.tx_mother, params.coding, ws.tx_coded);
  InterleaveStreamInto(ws.tx_coded, params, ws.tx_interleaved);
  MapBitsInto(ws.tx_interleaved, params.modulation, ws.tx_points);
  const std::span<const Cplx> points(ws.tx_points);
  const std::size_t num_symbols = points.size() / kNumDataSubcarriers;
  for (std::size_t s = 0; s < num_symbols; ++s) {
    ModulateSymbolInto(points.subspan(s * kNumDataSubcarriers,
                                      kNumDataSubcarriers),
                       first_symbol_index + s,
                       out.subspan(s * kSymbolLen, kSymbolLen));
  }
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

std::size_t FrameSamples(std::size_t payload_bytes, Rate rate) {
  return kTrainingSamples +
         (1 + NumDataSymbols(payload_bytes + kFcsBytes, rate)) * kSymbolLen;
}

TxFrame BuildFrame(std::span<const std::uint8_t> payload, const TxConfig& config) {
  TxFrame frame;
  BuildFrameInto(payload, config, frame);
  return frame;
}

void BuildFrameInto(std::span<const std::uint8_t> payload,
                    const TxConfig& config, TxFrame& frame) {
  const auto& params = ParamsFor(config.rate);
  dsp::Workspace& ws = dsp::ThreadLocalWorkspace();

  // PSDU = payload + CRC-32 FCS.
  frame.psdu.assign(payload.begin(), payload.end());
  const std::uint32_t fcs = Crc32(payload);
  for (std::size_t i = 0; i < kFcsBytes; ++i) {
    frame.psdu.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFFu));
  }

  // DATA field bits: SERVICE (16 zeros) + PSDU (LSB first) + tail + pad.
  const std::size_t num_symbols =
      NumDataSymbols(frame.psdu.size(), config.rate);
  BitVector& data_bits = frame.data_bits;
  data_bits.assign(num_symbols * params.data_bits_per_symbol, 0);
  for (std::size_t i = 0; i < frame.psdu.size(); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      data_bits[kServiceBits + 8 * i + b] =
          static_cast<Bit>((frame.psdu[i] >> b) & 1u);
    }
  }

  // Scramble; re-zero the 6 tail bits post-scrambling (clause 17.3.5.3)
  // so the encoder terminates in state 0.
  Scrambler scrambler(config.scrambler_seed);
  scrambler.ProcessInto(data_bits, ws.tx_scrambled);
  const std::size_t tail_pos = kServiceBits + 8 * frame.psdu.size();
  for (std::size_t i = 0; i < kTailBits; ++i) ws.tx_scrambled[tail_pos + i] = 0;

  frame.rate = config.rate;
  frame.num_data_symbols = num_symbols;
  frame.preamble_samples = kTrainingSamples + kSymbolLen;

  // Waveform: STF | LTF | SIGNAL | DATA, each written in place.
  static const IqBuffer stf = ShortTrainingField();
  static const IqBuffer ltf = LongTrainingField();
  frame.waveform.resize(FrameSamples(payload.size(), config.rate));
  const std::span<Cplx> wave(frame.waveform);
  std::copy(stf.begin(), stf.end(), wave.begin());
  std::copy(ltf.begin(), ltf.end(), wave.begin() + stf.size());
  BuildSignalBitsInto(config.rate, frame.psdu.size(), ws.tx_signal);
  ModulateDataBitsInto(ws.tx_signal, ParamsFor(Rate::k6Mbps), 0, ws,
                       wave.subspan(kTrainingSamples, kSymbolLen));
  ModulateDataBitsInto(ws.tx_scrambled, params, 1, ws,
                       wave.subspan(frame.preamble_samples));
}

double FrameDurationS(const TxFrame& frame) {
  return static_cast<double>(frame.waveform.size()) / kSampleRateHz;
}

}  // namespace freerider::phy80211
