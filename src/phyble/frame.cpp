#include "phyble/frame.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/bits.h"
#include "common/crc.h"
#include "dsp/signal_ops.h"
#include "phyble/gfsk.h"
#include "phyble/whitening.h"

namespace freerider::phyble {
namespace {

BitVector HeaderBits(std::uint32_t access_address) {
  BitVector bits;
  bits.reserve(kPreambleBits + kAccessAddressBits);
  // Preamble: alternating, starting with the complement of AA bit 0 is
  // the spec's rule; BLE 1M preamble is 0xAA or 0x55 so the last
  // preamble bit differs from AA LSB. AA 0x8E89BED6 has LSB 0 -> use
  // 01010101 pattern ending in 1? We keep the fixed 10101010 (LSB
  // first of 0x55): receivers here correlate the whole 40 bits anyway.
  for (std::size_t i = 0; i < kPreambleBits; ++i) {
    bits.push_back(static_cast<Bit>(i % 2 == 0));
  }
  AppendBitsLsbFirst(bits, access_address, kAccessAddressBits);
  return bits;
}

}  // namespace

TxFrame BuildFrame(std::span<const std::uint8_t> payload,
                   const TxConfig& config) {
  TxFrame frame;
  BuildFrameInto(payload, config, frame);
  return frame;
}

void BuildFrameInto(std::span<const std::uint8_t> payload,
                    const TxConfig& config, TxFrame& frame) {
  if (payload.size() > kMaxPayloadBytes) {
    throw std::invalid_argument("BLE payload too large");
  }
  frame.payload.assign(payload.begin(), payload.end());

  // PDU = length byte + payload.
  Bytes pdu;
  pdu.push_back(static_cast<std::uint8_t>(payload.size()));
  pdu.insert(pdu.end(), payload.begin(), payload.end());
  frame.pdu_bits = BytesToBits(pdu);

  // CRC over PDU bits, transmitted MSB (bit 23) first.
  const std::uint32_t crc = Crc24Ble(frame.pdu_bits);
  frame.stream_bits = frame.pdu_bits;
  for (int i = 23; i >= 0; --i) {
    frame.stream_bits.push_back(static_cast<Bit>((crc >> i) & 1u));
  }

  const BitVector whitened = Whiten(frame.stream_bits, config.channel_index);
  frame.air_bits = HeaderBits(config.access_address);
  frame.header_bits = frame.air_bits.size();
  frame.air_bits.insert(frame.air_bits.end(), whitened.begin(), whitened.end());

  ModulateBitsInto(frame.air_bits, frame.waveform);
}

double FrameDurationS(const TxFrame& frame) {
  return static_cast<double>(frame.waveform.size()) / kSampleRateHz;
}

RxResult ReceiveFrame(const IqBuffer& rx, const RxConfig& config) {
  RxResult result;
  const BitVector header = HeaderBits(config.access_address);
  const std::size_t header_samples = header.size() * kSamplesPerBit;
  if (rx.size() < header_samples + kSamplesPerBit) return result;

  // Capture-sized scratch, fully rewritten per frame.
  thread_local IqBuffer filtered;
  thread_local std::vector<double> freq;
  ChannelFilterInto(rx, filtered);
  DiscriminateInto(filtered, freq);

  // Slide over candidate start samples; score = fraction of header bits
  // whose center-frequency sign matches.
  const std::size_t max_start = rx.size() - header_samples;
  double best_score = 0.0;
  std::size_t best_start = 0;
  for (std::size_t n0 = 0; n0 < max_start; ++n0) {
    std::size_t match = 0;
    for (std::size_t k = 0; k < header.size(); ++k) {
      const double f = BitFrequency(freq, n0, k);
      const Bit decided = static_cast<Bit>(f >= 0.0);
      match += (decided == header[k]);
    }
    const double score =
        static_cast<double>(match) / static_cast<double>(header.size());
    if (score > best_score) {
      best_score = score;
      best_start = n0;
    }
  }
  if (best_score < config.detection_threshold) return result;
  result.detected = true;
  result.start_index = best_start;

  // Carrier-frequency-offset compensation: the alternating preamble has
  // zero mean deviation, so its mean instantaneous frequency IS the
  // offset; slice subsequent bits against it instead of 0 Hz.
  double freq_offset = 0.0;
  for (std::size_t k = 0; k < kPreambleBits; ++k) {
    freq_offset += BitFrequency(freq, best_start, k);
  }
  freq_offset /= static_cast<double>(kPreambleBits);

  // Decode length byte (first 8 PDU bits, whitened).
  const std::size_t pdu_bit0 = header.size();
  auto decide_bit = [&](std::size_t k) {
    return static_cast<Bit>(
        BitFrequency(freq, best_start, pdu_bit0 + k) >= freq_offset);
  };
  BitVector len_bits(8);
  for (std::size_t k = 0; k < 8; ++k) len_bits[k] = decide_bit(k);
  const BitVector len_plain = Whiten(len_bits, config.channel_index);
  const std::size_t payload_len = BitsToBytes(len_plain)[0];
  if (payload_len > kMaxPayloadBytes) return result;

  const std::size_t pdu_crc_bits = 8 + payload_len * 8 + kCrcBytes * 8;
  const std::size_t total_bits = header.size() + pdu_crc_bits;
  if (best_start + total_bits * kSamplesPerBit > rx.size() + kSamplesPerBit) {
    return result;
  }

  BitVector whitened(pdu_crc_bits);
  for (std::size_t k = 0; k < pdu_crc_bits; ++k) whitened[k] = decide_bit(k);
  const BitVector plain = Whiten(whitened, config.channel_index);

  result.stream_bits = plain;
  result.pdu_bits.assign(plain.begin(),
                         plain.begin() + static_cast<std::ptrdiff_t>(
                                             8 + payload_len * 8));
  const Bytes pdu = BitsToBytes(result.pdu_bits);
  result.payload.assign(pdu.begin() + 1, pdu.end());

  // CRC check (CRC bits transmitted MSB-first).
  std::uint32_t rx_crc = 0;
  for (std::size_t k = 0; k < 24; ++k) {
    rx_crc = (rx_crc << 1) | plain[8 + payload_len * 8 + k];
  }
  result.crc_ok = (rx_crc == Crc24Ble(result.pdu_bits));

  // RSSI over the packet extent (post-filter, i.e. in-channel power).
  result.rssi_dbm = dsp::PowerDbm(std::span<const Cplx>(filtered).subspan(
      best_start,
      std::min(filtered.size() - best_start, total_bits * kSamplesPerBit)));
  return result;
}

}  // namespace freerider::phyble
