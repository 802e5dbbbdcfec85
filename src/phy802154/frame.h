// 802.15.4 frame build and receive: SHR (preamble + SFD) | PHR (length)
// | PSDU (payload + CRC-16 FCS), spread to chips and O-QPSK modulated.
//
// The receiver is coherent (phase-locked on the SHR), which is what
// makes a tag's constant 180° phase offset decode as a *translated*
// symbol rather than being invisible — see chips.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "phy802154/params.h"

namespace freerider::phy802154 {

struct TxFrame {
  IqBuffer waveform;  ///< Unit-power complex baseband at 8 MS/s.
  /// Data symbols (PHR + PSDU), the stream the tag decoder compares.
  std::vector<std::uint8_t> data_symbols;
  Bytes psdu;         ///< Payload + 2-byte FCS.
  std::size_t shr_samples = 0;  ///< Samples before the PHR.
};

/// Build a frame around `payload` (FCS appended; payload must fit in
/// kMaxPsduBytes - 2).
TxFrame BuildFrame(std::span<const std::uint8_t> payload);

/// BuildFrame into a reused frame: the waveform keeps its capacity, so a
/// warm frame rebuilds without a capture-sized allocation.
void BuildFrameInto(std::span<const std::uint8_t> payload, TxFrame& frame);

struct RxConfig {
  double detection_threshold = 0.5;  ///< Normalized SHR correlation.
};

struct RxResult {
  bool detected = false;
  bool fcs_ok = false;
  std::size_t psdu_len = 0;
  Bytes psdu;
  /// Decoded data symbols (PHR + PSDU), possibly translated by a tag.
  std::vector<std::uint8_t> data_symbols;
  /// Mean per-symbol chip Hamming distance — link-quality indicator.
  double mean_chip_distance = 0.0;
  double rssi_dbm = -300.0;
  std::size_t start_index = 0;
};

/// Attempt to find and decode one frame in `rx`. Runs the form below.
RxResult ReceiveFrame(const IqBuffer& rx, const RxConfig& config = {});

/// ReceiveFrame into a reused result: its vectors are cleared and
/// refilled, and chips and symbols live in thread-local scratch, so a
/// warm decode makes no heap allocation. The result is byte-equal to the
/// allocating form's.
void ReceiveFrame(const IqBuffer& rx, const RxConfig& config,
                  RxResult& result);

/// Airtime of a frame in seconds.
double FrameDurationS(const TxFrame& frame);

}  // namespace freerider::phy802154
