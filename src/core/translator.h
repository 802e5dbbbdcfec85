// Codeword translation — the FreeRider contribution (paper §2.2, §2.3).
//
// A tag embeds its bits by transforming each on-air codeword into
// another valid codeword of the same codebook:
//   * 802.11g/n OFDM: 180° phase offset per group of N OFDM symbols
//     (Eq. 4; amplitude/frequency changes would create invalid
//     codewords, Fig. 2). A quaternary mode (Eq. 5, 90° steps) doubles
//     the rate on QPSK-and-up excitations.
//   * ZigBee O-QPSK: the same 180° phase offset per N symbols (§2.3.2).
//   * Bluetooth FSK: square-wave toggling at Δf = |f1-f0| per N bits
//     flips the FSK codeword (Eq. 6, Eq. 10).
//
// Translate*() functions take the excitation waveform and the tag's
// bits and return the backscattered waveform (at the backscatter
// receiver's channel, conversion loss included).
#pragma once

#include <cstddef>
#include <span>

#include "common/types.h"
#include "tag/rf_frontend.h"

namespace freerider::core {

enum class RadioType { kWifi, kZigbee, kBluetooth };

/// Default redundancy (codewords per tag bit) per radio — the values
/// the paper found necessary: 4 OFDM symbols (§3.2.1 — "one bit tag
/// data on four OFDM symbols"), 4-8 O-QPSK symbols (§3.2.2), ~18
/// Bluetooth bits (to hit the reported ~55 kb/s on a 1 Mb/s PHY).
std::size_t DefaultRedundancy(RadioType radio);

/// Codeword (modulation unit) duration in samples at the radio's
/// native simulation rate.
std::size_t SamplesPerCodeword(RadioType radio);

/// Tag modulation start offset: the tag must leave the excitation
/// preamble untouched so the backscatter receiver can synchronize, and
/// additionally skip the early payload units that carry the receiver's
/// own decoding state (the 802.11 SERVICE/scrambler-seed symbol, the
/// ZigBee PHR length, the BLE length byte) — corrupting those would
/// break the backscatter receiver's framing, not just flip payload bits.
/// WiFi: STF+LTF+SIGNAL+1 symbol (24 µs); ZigBee: SHR+PHR (192 µs);
/// BLE: preamble + access address + length byte (48 µs).
std::size_t ModulationStartSamples(RadioType radio);

/// The same start offset expressed in payload units (OFDM symbols /
/// O-QPSK symbols / BLE PDU bits) past the start of the PHY payload —
/// the decoder uses this to align tag windows with decoded streams.
/// WiFi: 1 data symbol; ZigBee: 2 symbols (PHR); BLE: 8 bits.
std::size_t ModulationSkipUnits(RadioType radio);

struct TranslateConfig {
  RadioType radio = RadioType::kWifi;
  std::size_t redundancy = 4;  ///< Codewords per tag bit.
  /// Use the quaternary scheme of Eq. 5 (WiFi only, 2 bits per window;
  /// requires a QPSK-or-denser excitation constellation).
  bool quaternary = false;
  /// Conversion amplitude of the channel-shift toggle.
  double conversion_amplitude = tag::kSidebandAmplitude;
  /// Tag ring-oscillator rate error (ppm). The AGLN250's clock has no
  /// crystal; a nonzero value stretches/compresses every codeword
  /// window so boundaries slip across the frame, and scales the
  /// Bluetooth Δf toggle off its nominal frequency (the impair
  /// subsystem's CFO/drift fault drives this). 0 = ideal oscillator,
  /// and the 0 path is bit-identical to the pre-drift implementation.
  double tag_clock_ppm = 0.0;
  /// Signed mis-alignment (samples) of the tag's modulation start —
  /// envelope turn-on delay variance shifting the first boundary.
  double start_slip_samples = 0.0;
};

/// Translate `excitation` (one frame's waveform at the radio's rate)
/// carrying `tag_bits`. Bits beyond the frame's capacity are ignored;
/// if fewer bits than capacity are given, remaining windows transmit 0.
IqBuffer Translate(std::span<const Cplx> excitation,
                   std::span<const Bit> tag_bits, const TranslateConfig& config);

/// Allocation-free Translate: writes all of `out`, which must be
/// excitation-sized (it may alias `excitation`). The window plan lives
/// in thread-local scratch. Byte-identical to Translate.
void TranslateInto(std::span<const Cplx> excitation,
                   std::span<const Bit> tag_bits, const TranslateConfig& config,
                   std::span<Cplx> out);

/// Number of tag bits one excitation frame of `waveform_samples` can
/// carry under `config`.
std::size_t TagBitCapacity(std::size_t waveform_samples,
                           const TranslateConfig& config);

/// Raw tag bit rate (bits per second of excitation airtime).
double TagBitRateBps(const TranslateConfig& config);

}  // namespace freerider::core
