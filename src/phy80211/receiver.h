// 802.11a/g OFDM receiver: LTF-based packet detection and channel
// estimation, SIGNAL decode, per-symbol demodulation, Viterbi decoding
// and descrambling.
//
// Two behaviours matter for backscatter (paper §3.2.1):
//  * Frames with a bad FCS still yield their decoded bit stream (the
//    paper runs the BCM43xx in monitor mode for the same reason) — the
//    backscattered frame's FCS is expected to fail, the tag data lives
//    in the XOR against the other receiver's stream.
//  * Pilot-based common-phase-error correction is OFF by default
//    (matching the paper's observation about BCM43xx). Turning it on
//    removes the tag's phase modulation — the ablation bench shows this.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.h"
#include "dsp/workspace.h"
#include "phy80211/params.h"

namespace freerider::phy80211 {

struct RxConfig {
  /// Normalized LTF correlation threshold in [0,1]; packets whose
  /// preamble correlates below this are not detected.
  double detection_threshold = 0.55;
  /// Correct common phase error from pilot tones (destroys tag data).
  bool pilot_phase_correction = false;
  /// Use soft-decision demapping + Viterbi (~2 dB extra coding gain;
  /// what production chipsets do). Hard decision is the default so the
  /// calibrated evaluation benches stay comparable; the soft-decoder
  /// ablation bench quantifies the difference.
  bool soft_decision = false;
  /// Record equalized data-subcarrier points for diagnostics.
  bool collect_constellation = false;
  /// Estimate and correct carrier frequency offset from the preamble
  /// (coarse from the STF's 16-sample periodicity, fine from the LTF's
  /// 64-sample periodicity). Handles the ±40 ppm (±~100 kHz at
  /// 2.45 GHz) oscillator offsets of real radios.
  bool cfo_correction = true;
  /// Decision-directed residual phase tracking during the payload.
  /// Preamble CFO estimation leaves a few hundred Hz of residual that
  /// would spin the constellation over a long frame; tracking against
  /// the *nearest constellation point* is symmetric under the tag's
  /// 180° (and, on QPSK+, 90°) codeword translations, so — unlike pilot
  /// phase correction — it absorbs oscillator drift without erasing tag
  /// data. This mirrors how chipsets that skip pilot correction (the
  /// paper's BCM43xx observation) stay locked on long frames.
  bool decision_directed_tracking = true;
};

struct RxResult {
  bool detected = false;    ///< Preamble found.
  bool signal_ok = false;   ///< SIGNAL field parsed (rate/parity valid).
  bool fcs_ok = false;      ///< PSDU CRC-32 matched.
  Rate rate = Rate::k6Mbps;
  std::size_t psdu_len = 0;
  Bytes psdu;               ///< Decoded PSDU (payload + FCS), possibly corrupt.
  /// Descrambled DATA-field bits (SERVICE + PSDU + tail + pad), the
  /// stream the XOR tag decoder consumes. Tail bits are zeroed.
  BitVector data_bits;
  std::size_t num_data_symbols = 0;
  std::uint8_t scrambler_seed = 0;
  double rssi_dbm = -300.0;
  std::size_t start_index = 0;  ///< Sample index of the first LTF symbol.
  double cfo_hz = 0.0;          ///< Estimated carrier frequency offset.
  /// Equalized data-subcarrier constellation (48 per symbol) when
  /// `collect_constellation` is set.
  IqBuffer constellation;
};

/// Attempt to find and decode one frame in `rx`. Returns a result whose
/// flags describe how far decoding proceeded; `detected == false` means
/// no preamble cleared the threshold. Runs the workspace form below on
/// the calling thread's workspace.
RxResult ReceiveFrame(const IqBuffer& rx, const RxConfig& config = {});

/// Every intermediate buffer lives in `ws` and `result`'s vectors are
/// cleared and refilled, so decoding a frame through a warm workspace
/// performs zero heap allocations. The RxResult is byte-identical to the
/// scalar reference chain kept as the oracle in
/// tests/phy_fastpath_test.cpp.
void ReceiveFrame(const IqBuffer& rx, const RxConfig& config,
                  dsp::Workspace& ws, RxResult& result);

}  // namespace freerider::phy80211
