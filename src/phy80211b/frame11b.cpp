#include "phy80211b/frame11b.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/crc.h"
#include "dsp/signal_ops.h"
#include "phy80211b/dsss.h"
#include "phy80211b/scrambler11b.h"

namespace freerider::phy80211b {
namespace {

BitVector SfdBits() {
  BitVector bits;
  AppendBitsLsbFirst(bits, kSfd, 16);
  return bits;
}

BitVector HeaderBits(std::size_t psdu_bytes, Rate11b rate) {
  // SIGNAL(8) SERVICE(8) LENGTH(16, PSDU airtime in microseconds) with
  // CRC-16 over the first 32 bits. The header itself always rides at
  // 1 Mb/s DBPSK.
  Bytes fields;
  fields.push_back(rate == Rate11b::k1Mbps ? kSignal1Mbps : kSignal2Mbps);
  fields.push_back(0x00);  // SERVICE
  const std::size_t length_us =
      psdu_bytes * 8 / (rate == Rate11b::k1Mbps ? 1 : 2);
  fields.push_back(static_cast<std::uint8_t>(length_us & 0xFF));
  fields.push_back(static_cast<std::uint8_t>((length_us >> 8) & 0xFF));
  BitVector bits = BytesToBits(fields);
  AppendBitsLsbFirst(bits, Crc16Ccitt(fields), 16);
  return bits;
}

}  // namespace

TxFrame BuildFrame(std::span<const std::uint8_t> payload, Rate11b rate) {
  TxFrame frame;
  frame.rate = rate;
  frame.psdu.assign(payload.begin(), payload.end());
  const std::uint32_t fcs = Crc32(payload);
  for (int i = 0; i < 4; ++i) {
    frame.psdu.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFF));
  }
  frame.psdu_bits = BytesToBits(frame.psdu);

  BitVector plain(kSyncBits, 1);
  const BitVector sfd = SfdBits();
  plain.insert(plain.end(), sfd.begin(), sfd.end());
  const BitVector header = HeaderBits(frame.psdu.size(), rate);
  plain.insert(plain.end(), header.begin(), header.end());
  plain.insert(plain.end(), frame.psdu_bits.begin(), frame.psdu_bits.end());

  const BitVector scrambled = Scramble11b(plain);
  const std::size_t psdu_bit_offset = plain.size() - frame.psdu_bits.size();
  frame.raw_psdu_bits.assign(
      scrambled.begin() + static_cast<std::ptrdiff_t>(psdu_bit_offset),
      scrambled.end());

  if (rate == Rate11b::k1Mbps) {
    frame.waveform = ModulateDbpsk(scrambled);
  } else {
    // Preamble + header at 1 Mb/s DBPSK, PSDU at 2 Mb/s DQPSK with the
    // phase chain continuing across the rate switch.
    const std::span<const Bit> head(scrambled.data(), psdu_bit_offset);
    frame.waveform = ModulateDbpsk(head);
    Cplx phase = frame.waveform.back() / static_cast<double>(kBarker.back());
    const IqBuffer psdu_wave = ModulateDqpsk(
        std::span<const Bit>(scrambled).subspan(psdu_bit_offset), phase);
    // Skip the reference symbol ModulateDqpsk emits (the header's last
    // symbol is the reference).
    frame.waveform.insert(frame.waveform.end(),
                          psdu_wave.begin() + kSamplesPerSymbol,
                          psdu_wave.end());
  }
  // Reference symbol + (sync + sfd + header) symbols precede the PSDU.
  frame.psdu_start_sample =
      (1 + kSyncBits + sfd.size() + header.size()) * kSamplesPerSymbol;
  return frame;
}

double FrameDurationS(const TxFrame& frame) {
  return static_cast<double>(frame.waveform.size()) / kSampleRateHz;
}

RxResult ReceiveFrame(const IqBuffer& rx, const RxConfig& config) {
  RxResult result;
  if (rx.size() < (kSyncBits + 40) * kSamplesPerSymbol) return result;

  // Symbol timing: pick the chip phase maximizing mean despread power,
  // and require it to carry a real Barker structure.
  const std::size_t symbols_total = rx.size() / kSamplesPerSymbol - 1;
  double best_quality = 0.0;
  std::size_t best_phase = 0;
  double mean_power = dsp::MeanPower(rx);
  if (mean_power <= 0.0) return result;
  for (std::size_t p = 0; p < kSamplesPerSymbol; ++p) {
    double acc = 0.0;
    const std::size_t probe = std::min<std::size_t>(symbols_total, 100);
    for (std::size_t s = 0; s < probe; ++s) {
      acc += std::norm(DespreadSymbol(rx, p + s * kSamplesPerSymbol));
    }
    const double quality =
        acc / (static_cast<double>(std::min<std::size_t>(symbols_total, 100)) *
               121.0 * mean_power);
    if (quality > best_quality) {
      best_quality = quality;
      best_phase = p;
    }
  }
  if (best_quality < config.timing_quality_threshold) return result;

  // Demodulate everything from the second symbol on, descramble, and
  // scan for the SYNC run + SFD.
  // Ask for every symbol the buffer can hold; DemodulateDbpsk stops at
  // the buffer end on its own.
  const BitVector raw =
      DemodulateDbpsk(rx, best_phase + kSamplesPerSymbol, symbols_total);
  const BitVector plain = Descramble11b(raw);
  const BitVector sfd = SfdBits();
  std::size_t sfd_end = 0;
  std::size_t ones_run = 0;
  for (std::size_t i = 0; i + sfd.size() <= plain.size(); ++i) {
    if (plain[i]) {
      ++ones_run;
      continue;
    }
    if (ones_run >= 24) {
      bool match = true;
      for (std::size_t k = 0; k < sfd.size(); ++k) {
        if (plain[i + k] != sfd[k]) {
          match = false;
          break;
        }
      }
      if (match) {
        sfd_end = i + sfd.size();
        break;
      }
    }
    ones_run = 0;
  }
  if (sfd_end == 0) return result;
  result.detected = true;

  // PLCP header.
  if (sfd_end + kPlcpHeaderBits > plain.size()) return result;
  const std::span<const Bit> header(plain.data() + sfd_end, kPlcpHeaderBits);
  const Bytes fields = BitsToBytes(header.subspan(0, 32));
  if (Crc16Ccitt(fields) != ReadBitsLsbFirst(header, 32, 16)) return result;
  if (fields[0] != kSignal1Mbps && fields[0] != kSignal2Mbps) return result;
  result.rate = fields[0] == kSignal1Mbps ? Rate11b::k1Mbps : Rate11b::k2Mbps;
  result.header_ok = true;
  const std::size_t length_us =
      static_cast<std::size_t>(fields[2]) | (static_cast<std::size_t>(fields[3]) << 8);
  const std::size_t length_bits =
      length_us * (result.rate == Rate11b::k1Mbps ? 1 : 2);
  result.psdu_len = length_bits / 8;
  if (result.psdu_len < 4 || result.psdu_len > kMaxPsduBytes) {
    result.header_ok = false;
    return result;
  }

  const std::size_t psdu_begin = sfd_end + kPlcpHeaderBits;
  if (result.rate == Rate11b::k1Mbps) {
    if (psdu_begin + length_bits > plain.size()) {
      result.header_ok = false;
      return result;
    }
    result.psdu_bits.assign(
        plain.begin() + static_cast<std::ptrdiff_t>(psdu_begin),
        plain.begin() + static_cast<std::ptrdiff_t>(psdu_begin + length_bits));
    result.raw_psdu_bits.assign(
        raw.begin() + static_cast<std::ptrdiff_t>(psdu_begin),
        raw.begin() + static_cast<std::ptrdiff_t>(psdu_begin + length_bits));
  } else {
    // 2 Mb/s: re-demodulate the PSDU region as DQPSK. The raw bit index
    // k corresponds to symbol k+1 (the reference symbol), so the PSDU's
    // first symbol starts at sample best_phase + (1 + psdu_begin) * 11.
    const std::size_t psdu_sample =
        best_phase + (1 + psdu_begin) * kSamplesPerSymbol;
    const BitVector dqpsk =
        DemodulateDqpsk(rx, psdu_sample, length_bits / 2);
    if (dqpsk.size() < length_bits) {
      result.header_ok = false;
      return result;
    }
    result.raw_psdu_bits = dqpsk;
    // Descramble the PSDU continuing from the header's register state:
    // the last 7 raw header bits are exactly the register contents.
    BitVector tail(raw.begin() + static_cast<std::ptrdiff_t>(psdu_begin - 7),
                   raw.begin() + static_cast<std::ptrdiff_t>(psdu_begin));
    BitVector stream = tail;
    stream.insert(stream.end(), dqpsk.begin(), dqpsk.end());
    const BitVector descrambled = Descramble11b(stream);
    result.psdu_bits.assign(descrambled.begin() + 7, descrambled.end());
  }
  result.psdu = BitsToBytes(result.psdu_bits);

  std::uint32_t fcs = 0;
  for (int i = 0; i < 4; ++i) {
    fcs |= static_cast<std::uint32_t>(result.psdu[result.psdu_len - 4 +
                                                  static_cast<std::size_t>(i)])
           << (8 * i);
  }
  result.fcs_ok = (fcs == Crc32(std::span<const std::uint8_t>(
                              result.psdu.data(), result.psdu_len - 4)));
  result.rssi_dbm = dsp::PowerDbm(rx);
  return result;
}

}  // namespace freerider::phy80211b
