// BLE packet build and receive:
//   preamble (8 bits) | access address (32) | PDU: len(8) + payload |
//   CRC-24, with PDU+CRC whitened per channel index.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"
#include "phyble/params.h"

namespace freerider::phyble {

struct TxConfig {
  std::uint32_t access_address = kAdvAccessAddress;
  std::uint8_t channel_index = 37;
};

struct TxFrame {
  IqBuffer waveform;       ///< Unit-amplitude GFSK baseband at 8 MS/s.
  BitVector air_bits;      ///< All bits as modulated (whitened).
  /// De-whitened PDU bits (len byte + payload).
  BitVector pdu_bits;
  /// De-whitened PDU + CRC bits — the full post-header stream the tag
  /// decoder compares across receivers (tag windows span the CRC too).
  BitVector stream_bits;
  Bytes payload;
  std::size_t header_bits = 0;  ///< preamble + AA bit count (40).
};

TxFrame BuildFrame(std::span<const std::uint8_t> payload,
                   const TxConfig& config = {});

/// BuildFrame into a reused frame: the waveform keeps its capacity, so a
/// warm frame rebuilds without a capture-sized allocation.
void BuildFrameInto(std::span<const std::uint8_t> payload,
                    const TxConfig& config, TxFrame& frame);

struct RxConfig {
  std::uint32_t access_address = kAdvAccessAddress;
  std::uint8_t channel_index = 37;
  /// Fraction of preamble+AA bits that must match for detection.
  double detection_threshold = 0.9;
};

struct RxResult {
  bool detected = false;
  bool crc_ok = false;
  Bytes payload;
  BitVector pdu_bits;      ///< De-whitened PDU bits (len + payload).
  BitVector stream_bits;   ///< De-whitened PDU + CRC bits.
  double rssi_dbm = -300.0;
  std::size_t start_index = 0;  ///< Sample where the preamble begins.
};

RxResult ReceiveFrame(const IqBuffer& rx, const RxConfig& config = {});

/// Airtime in seconds.
double FrameDurationS(const TxFrame& frame);

}  // namespace freerider::phyble
