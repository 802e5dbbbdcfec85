// Sample-level channel application: attenuation to an absolute receive
// power plus thermal AWGN at the receiver front end.
//
// Convention: sample amplitudes carry absolute scale — |x|^2 is power in
// watts. A PHY emits a unit-power waveform; `ApplyLink` scales it to the
// link budget's receive power and adds noise matching the receiver's
// bandwidth (taken to be the sample rate, since all PHYs here work at
// their channel bandwidth) and noise figure.
#pragma once

#include <span>

#include "common/rng.h"
#include "common/types.h"

namespace freerider::channel {

struct ReceiverFrontEnd {
  double sample_rate_hz = 20e6;   ///< Also the noise bandwidth.
  double noise_figure_db = 4.0;
  /// Optional carrier frequency offset between TX and RX, Hz.
  double cfo_hz = 0.0;

  double NoiseFloorWatts() const;
  double NoiseFloorDbm() const;
};

/// Scale `tx_waveform` (any power) so its mean power equals
/// `rx_power_dbm`, apply the front end's CFO, and add thermal noise.
IqBuffer ApplyLink(std::span<const Cplx> tx_waveform, double rx_power_dbm,
                   const ReceiverFrontEnd& fe, Rng& rng);

/// Add noise only (waveform already at absolute scale). Used when
/// several signals are superposed before the front end.
IqBuffer AddThermalNoise(std::span<const Cplx> waveform,
                         const ReceiverFrontEnd& fe, Rng& rng);

/// AddThermalNoise in place: the same draws, the same sums.
void AddThermalNoiseInPlace(std::span<Cplx> waveform,
                            const ReceiverFrontEnd& fe, Rng& rng);

/// Scale a waveform to an absolute mean power without adding noise.
IqBuffer ToAbsolutePower(std::span<const Cplx> waveform, double power_dbm);

/// ToAbsolutePower in place (a zero-power waveform is left as it is).
void ToAbsolutePowerInPlace(std::span<Cplx> waveform, double power_dbm);

/// SNR (dB) implied by a receive power and front end.
double SnrDb(double rx_power_dbm, const ReceiverFrontEnd& fe);

}  // namespace freerider::channel
