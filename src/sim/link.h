// End-to-end backscatter link simulation: PHY TX → tag translation →
// two-segment channel → PHY RX → XOR decode, at the sample level.
//
// Power handling: the excitation waveform is scaled to the link
// budget's receive power *excluding* the square-wave sideband loss; the
// tag model then applies its own conversion amplitude (2/π), so the
// waveform reaching the receiver carries the physically correct power
// and per-window structure before thermal noise is added.
//
// Receiver 1 (the excitation's intended client) sits next to the
// transmitter and decodes reliably; its output equals the transmitted
// data stream, so the simulator uses the TX ground truth as the
// reference stream (documented substitution — the paper's Ethernet
// backhaul carries exactly this stream to the decoder).
#pragma once

#include <cstddef>

#include "channel/deployment.h"
#include "channel/link_budget.h"
#include "common/rng.h"
#include "core/translator.h"
#include "impair/impair.h"

namespace freerider::sim {

/// Per-radio defaults matching the paper's hardware (§3.1, §4).
struct RadioProfile {
  double tx_power_dbm = 11.0;
  /// Receiver noise figure plus the implementation loss of decoding a
  /// weak backscattered signal (sync on short preambles, residual phase
  /// error) lumped into one dB figure, calibrated per radio so maximum
  /// ranges land near the paper's measurements.
  double noise_figure_db = 4.0;
  std::size_t excitation_payload_bytes = 400;
  /// Idle gap between excitation frames (carrier sense + IFS).
  double inter_frame_gap_s = 60e-6;
  /// Per-packet log-normal shadowing of the two-segment path (people,
  /// multipath, hallway clutter). Pure AWGN would give cliff-edge
  /// range curves; the paper's gradual degradation needs this spread.
  double shadowing_sigma_db = 3.0;
  /// Receiver sensitivity: packets arriving below this power do not
  /// synchronize at all (AGC/sync limits of the real chipsets — the
  /// BCM43xx, CC2650 and CC2541 all stop decoding near -94 dBm, which
  /// is what terminates the paper's range curves).
  double sensitivity_dbm = -94.5;
  /// Random-walk phase noise of the receiver's oscillator (rad/sample,
  /// one-sigma per step). Matters only for the coherent ZigBee receiver
  /// whose phase lock is taken once on the SHR: over a multi-ms frame
  /// the drift flips marginal chips, reproducing the paper's flat
  /// ~5e-2 ZigBee tag BER (Fig. 12b).
  double phase_noise_rw_rad_per_sample = 0.0;
};

RadioProfile DefaultProfile(core::RadioType radio);

struct LinkConfig {
  core::RadioType radio = core::RadioType::kWifi;
  channel::Deployment deployment = channel::LosDeployment();
  double tag_to_rx_m = 5.0;
  std::size_t redundancy = 0;  ///< 0 = DefaultRedundancy(radio).
  std::size_t num_packets = 20;
  RadioProfile profile;        ///< Fill from DefaultProfile().
  /// Fault injection (default: everything off). A fully-disabled
  /// config leaves the simulation stream untouched, so un-impaired
  /// runs reproduce the pre-impairment results bit-for-bit.
  impair::ImpairmentConfig impairments;
};

struct LinkStats {
  std::size_t packets_attempted = 0;
  std::size_t packets_decoded = 0;   ///< Backscatter RX got a parseable frame.
  double packet_reception_rate = 0.0;
  double tag_ber = 1.0;              ///< Over decoded packets; 1.0 if none.
  /// Goodput of 96-bit tag chunks delivered error-free (residual window
  /// errors corrupt whole tag frames, so raw correct-bit rate would
  /// flatter a marginal link).
  double tag_throughput_bps = 0.0;
  double rssi_dbm = -300.0;          ///< Mean backscatter RSSI at the receiver.
  double snr_db = -100.0;            ///< Budget SNR at the backscatter RX.
  std::size_t redundancy_used = 0;
  /// Fault-injection accounting (zero on un-impaired runs). For the
  /// adaptive simulator these cover probes and the final batch alike.
  std::size_t faults_injected = 0;   ///< Total injected fault events.
  std::size_t desync_events = 0;     ///< Tag desync/resync (multi-tag MAC).
  std::size_t rounds_recovered = 0;  ///< Coordinator backoff recoveries.
  impair::FaultCounters fault_counters;
};

/// FaultCounters' checkpoint field list (runtime/checkpoint.h), part of
/// the LinkStats and SoakResult payloads. T is const when writing.
template <class Io, class T>
bool FaultCountersFields(Io& io, T& fc) {
  return io.Size(fc.cfo_rotations) && io.Size(fc.window_slips) &&
         io.Size(fc.interferer_bursts) && io.Size(fc.excitation_dropouts) &&
         io.Size(fc.pulses_dropped) && io.Size(fc.pulses_spurious) &&
         io.Size(fc.pulses_jittered);
}

/// Run one link at a fixed redundancy.
LinkStats SimulateTagLink(const LinkConfig& config, Rng& rng);

/// Probe the redundancy ladder with a few packets each and run the
/// full batch at the throughput-maximizing N — the tag's rate
/// adaptation, which produces the stepped curves of Figs. 10-13.
LinkStats SimulateTagLinkAdaptive(const LinkConfig& config, Rng& rng,
                                  std::size_t probe_packets = 6);

/// Budget-only receive power (dBm) of the backscatter path for this
/// configuration (sideband loss included) — the RSSI curve's backbone.
double BackscatterRxPowerDbm(const LinkConfig& config);

/// Budget SNR (dB) at the backscatter receiver.
double BackscatterSnrDb(const LinkConfig& config);

}  // namespace freerider::sim
