#include "channel/awgn.h"

#include <cmath>

#include "channel/link_budget.h"
#include "common/units.h"
#include "dsp/signal_ops.h"

namespace freerider::channel {

double ReceiverFrontEnd::NoiseFloorWatts() const {
  return DbmToWatts(NoiseFloorDbm());
}

double ReceiverFrontEnd::NoiseFloorDbm() const {
  return channel::NoiseFloorDbm(sample_rate_hz, noise_figure_db);
}

IqBuffer ToAbsolutePower(std::span<const Cplx> waveform, double power_dbm) {
  IqBuffer out(waveform.begin(), waveform.end());
  ToAbsolutePowerInPlace(out, power_dbm);
  return out;
}

void ToAbsolutePowerInPlace(std::span<Cplx> waveform, double power_dbm) {
  const double current = dsp::MeanPower(waveform);
  if (current <= 0.0) return;
  const double gain = std::sqrt(DbmToWatts(power_dbm) / current);
  for (auto& x : waveform) x *= gain;
}

IqBuffer AddThermalNoise(std::span<const Cplx> waveform,
                         const ReceiverFrontEnd& fe, Rng& rng) {
  IqBuffer out(waveform.begin(), waveform.end());
  AddThermalNoiseInPlace(out, fe, rng);
  return out;
}

void AddThermalNoiseInPlace(std::span<Cplx> waveform,
                            const ReceiverFrontEnd& fe, Rng& rng) {
  const double sigma = std::sqrt(fe.NoiseFloorWatts());
  for (auto& x : waveform) x += sigma * rng.NextComplexGaussian();
}

IqBuffer ApplyLink(std::span<const Cplx> tx_waveform, double rx_power_dbm,
                   const ReceiverFrontEnd& fe, Rng& rng) {
  IqBuffer scaled = ToAbsolutePower(tx_waveform, rx_power_dbm);
  if (fe.cfo_hz != 0.0) {
    scaled = dsp::MixFrequency(scaled, fe.cfo_hz, fe.sample_rate_hz);
  }
  return AddThermalNoise(scaled, fe, rng);
}

double SnrDb(double rx_power_dbm, const ReceiverFrontEnd& fe) {
  return rx_power_dbm - fe.NoiseFloorDbm();
}

}  // namespace freerider::channel
