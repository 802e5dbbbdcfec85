// 802.11a/g frame builder: PSDU (payload + FCS) → SERVICE/tail/pad →
// scramble → convolutional encode → puncture → interleave → map →
// OFDM modulate, preceded by STF + LTF + SIGNAL.
//
// The result carries, besides the waveform, the ground-truth
// pre-scrambling data-bit stream: the XOR decoder (paper Table 1)
// compares the backscatter receiver's descrambled bits against exactly
// this stream.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"
#include "phy80211/params.h"

namespace freerider::phy80211 {

struct TxFrame {
  IqBuffer waveform;       ///< Unit-mean-power complex baseband, 20 MS/s.
  BitVector data_bits;     ///< Pre-scrambling DATA field bits
                           ///< (SERVICE + PSDU + tail + pad).
  std::size_t num_data_symbols = 0;
  std::size_t preamble_samples = 0;  ///< Samples before the first DATA symbol
                                     ///< (STF + LTF + SIGNAL).
  Rate rate = Rate::k6Mbps;
  Bytes psdu;              ///< Payload + 4-byte FCS as transmitted.
};

struct TxConfig {
  Rate rate = Rate::k6Mbps;
  std::uint8_t scrambler_seed = 0x5D;  ///< Nonzero 7-bit seed.
};

/// Build a complete PPDU carrying `payload` (FCS appended internally).
TxFrame BuildFrame(std::span<const std::uint8_t> payload, const TxConfig& config);

/// Allocation-free BuildFrame: every intermediate stream lives in the
/// calling thread's dsp::ThreadLocalWorkspace() and `frame`'s vectors
/// are resized and fully overwritten, so building into a warm thread
/// and a reused frame allocates nothing. Byte-identical to BuildFrame.
void BuildFrameInto(std::span<const std::uint8_t> payload,
                    const TxConfig& config, TxFrame& frame);

/// Waveform length (samples) of the frame BuildFrame builds for a
/// `payload_bytes` payload at `rate` (STF + LTF + SIGNAL + DATA), known
/// without building it.
std::size_t FrameSamples(std::size_t payload_bytes, Rate rate);

/// Airtime of a frame in seconds at 20 MS/s.
double FrameDurationS(const TxFrame& frame);

/// Number of DATA OFDM symbols needed for a payload of `psdu_bytes`
/// (incl. FCS) at `rate` — used by the MAC's packet-length modulation to
/// hit a target duration.
std::size_t NumDataSymbols(std::size_t psdu_bytes, Rate rate);

/// Inverse of the above: the PSDU size (incl. FCS) that yields a frame
/// of approximately `duration_s`, clamped to at least 1 byte.
std::size_t PsduBytesForDuration(double duration_s, Rate rate);

}  // namespace freerider::phy80211
