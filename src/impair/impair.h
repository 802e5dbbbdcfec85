// Seeded, composable fault injection for the end-to-end simulators.
//
// The seed pipeline runs under idealized conditions: perfect
// oscillators, a dedicated excitation stream, tags that never miss a
// PLM pulse. The paper's premise is the opposite — riding *uncontrolled*
// commodity traffic — and the in-the-wild follow-ups (GuardRider's
// bursty WiFi excitation, the interference-prone ambient-backscatter
// detectors of Zhang et al.) show every link in the chain fails in a
// characteristic way. This subsystem injects those failures
// deterministically so the recovery paths can be exercised and the
// degradation curves measured:
//
//  * CFO / clock drift — the backscatter receiver's LO sits at a Δf
//    from the excitation carrier, and the tag's ring oscillator (the
//    AGLN250 has no crystal) runs fast or slow, so codeword-window
//    boundaries slip across the frame (handled inside core::Translate
//    via TranslateConfig's drift knobs).
//  * Interferer bursts — an in-band transmitter keys up mid-frame
//    (microwave oven, a neighbouring BSS), swamping a stretch of the
//    backscattered signal.
//  * Excitation dropout — the excitation sender carrier-sense-defers
//    mid-frame, so the tail of the frame is silent air and the tag has
//    nothing to reflect.
//  * Envelope-detector faults — the LT5534 comparator misses pulses,
//    fires on noise (spurious pulses), and measures durations with
//    extra jitter, corrupting the tag's only downlink.
//
// Determinism contract: the injector owns its own Rng. A disabled
// fault class draws nothing; a fully-disabled config draws nothing at
// all and must never perturb the main simulation stream — no-fault
// runs stay bit-for-bit identical to the un-impaired simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "tag/envelope_detector.h"

namespace freerider::impair {

/// Receiver carrier-frequency offset and tag ring-oscillator drift.
struct CfoDriftConfig {
  bool enabled = false;
  /// Mean receiver CFO (Hz) left after preamble estimation; the real
  /// chains tolerate a few hundred Hz, a few kHz spins mid-frame.
  double cfo_hz = 0.0;
  /// Per-packet CFO jitter (one sigma, Hz) — the estimate wanders.
  double cfo_sigma_hz = 0.0;
  /// Tag ring-oscillator rate error (ppm). An RC/ring oscillator is
  /// 0.1-1 %-class; the drift accumulates into window-boundary slip
  /// across the frame (core::Translate applies it).
  double tag_clock_ppm = 0.0;
  /// Per-packet ppm jitter (one sigma) — supply/temperature wobble.
  double tag_clock_ppm_sigma = 0.0;
  /// One-sigma slip (samples) of the tag's modulation start: envelope
  /// turn-on delay variance mis-aligns the first window boundary.
  double start_slip_sigma_samples = 0.0;
};

/// Bursty in-band interference at the backscatter receiver.
struct InterfererConfig {
  bool enabled = false;
  /// Probability that a burst lands on a given excitation frame.
  double burst_probability = 0.0;
  /// Interferer power at the backscatter receiver (dBm). Backscatter
  /// arrives far below the noise of a co-channel transmitter, so even
  /// modest powers here are devastating for the burst's span.
  double burst_power_dbm = -80.0;
  /// Burst length as a fraction of the frame, drawn uniformly.
  double min_fraction = 0.05;
  double max_fraction = 0.30;
};

/// Mid-frame excitation dropout (carrier-sense deferral / TX underrun).
struct DropoutConfig {
  bool enabled = false;
  /// Probability the excitation stops mid-frame.
  double dropout_probability = 0.0;
  /// The surviving head of the frame, uniform in [min, max] fraction.
  double min_keep_fraction = 0.20;
  double max_keep_fraction = 0.90;
};

/// Envelope-detector faults on top of the physical detector model.
struct EnvelopeFaultConfig {
  bool enabled = false;
  /// Extra per-pulse miss probability (comparator starved, collision
  /// at the tag antenna).
  double miss_probability = 0.0;
  /// Probability of a spurious pulse being injected after each real
  /// one (noise spike crossing the comparator threshold).
  double spurious_probability = 0.0;
  /// Duration of spurious pulses, uniform in [0, this] seconds. Kept
  /// near the PLM bit lengths so some of them classify as bits — the
  /// adversarial case for the preamble matcher.
  double spurious_max_duration_s = 1.5e-3;
  /// Additional duration-measurement jitter (one sigma, seconds).
  double extra_jitter_s = 0.0;
};

struct ImpairmentConfig {
  CfoDriftConfig cfo;
  InterfererConfig interferer;
  DropoutConfig dropout;
  EnvelopeFaultConfig envelope;

  bool AnyEnabled() const {
    return cfo.enabled || interferer.enabled || dropout.enabled ||
           envelope.enabled;
  }
};

/// Tally of what was actually injected — reported up through LinkStats
/// / FullStackStats so experiments can normalize by fault exposure.
struct FaultCounters {
  std::size_t cfo_rotations = 0;       ///< Frames given a CFO spin.
  std::size_t window_slips = 0;        ///< Frames with drift/slip applied.
  std::size_t interferer_bursts = 0;
  std::size_t excitation_dropouts = 0;
  std::size_t pulses_dropped = 0;
  std::size_t pulses_spurious = 0;
  std::size_t pulses_jittered = 0;

  std::size_t total() const {
    return cfo_rotations + window_slips + interferer_bursts +
           excitation_dropouts + pulses_dropped + pulses_spurious +
           pulses_jittered;
  }
  void Accumulate(const FaultCounters& other);
};

/// Per-frame fault draw: everything the simulator needs to impair one
/// excitation/backscatter exchange, decided up front so the injection
/// points stay simple.
struct FrameFaults {
  double cfo_hz = 0.0;
  double tag_clock_ppm = 0.0;
  double start_slip_samples = 0.0;
  bool drop_excitation = false;
  double keep_fraction = 1.0;
  bool interferer = false;
  double interferer_power_dbm = -300.0;
  double interferer_start_fraction = 0.0;
  double interferer_span_fraction = 0.0;
};

class FaultInjector {
 public:
  /// `seed` should come from the simulation's master Rng (Split()) so
  /// one seed reproduces the whole impaired run — but only split when
  /// the config has something enabled, or the baseline stream shifts.
  FaultInjector(const ImpairmentConfig& config, std::uint64_t seed);

  bool enabled() const { return config_.AnyEnabled(); }
  const ImpairmentConfig& config() const { return config_; }
  const FaultCounters& counters() const { return counters_; }

  /// Swap the fault mix mid-run (the chaos-soak harness drives whole
  /// impairment *schedules*). The rng stream and counters carry over,
  /// so a schedule replayed from the same seed is bit-identical.
  void Reconfigure(const ImpairmentConfig& config) { config_ = config; }

  /// Draw the fault realization for the next frame. Disabled classes
  /// draw nothing and leave their fields at the no-fault defaults.
  FrameFaults DrawFrame();

  /// Rotate a backscattered waveform by the drawn CFO.
  IqBuffer ApplyCfo(IqBuffer wave, double cfo_hz, double sample_rate_hz);
  void ApplyCfoInPlace(std::span<Cplx> wave, double cfo_hz,
                       double sample_rate_hz);

  /// Truncate the excitation: samples past keep_fraction become
  /// silent air (the sender deferred; the tag reflects nothing).
  void ApplyDropout(std::span<Cplx> excitation, const FrameFaults& faults);

  /// Count the dropout of an excitation that was never rendered (no tag
  /// reflected in its slot): the sender still stopped mid-frame.
  void CountUnrenderedDropout(const FrameFaults& faults) {
    if (faults.drop_excitation) ++counters_.excitation_dropouts;
  }

  /// Add the interferer burst (complex Gaussian at burst power) over
  /// the drawn span of the receive buffer.
  void ApplyInterferer(std::span<Cplx> rx, const FrameFaults& faults);

  /// Record that a frame went out with drifted/slipped window
  /// boundaries (the slip itself is applied inside core::Translate,
  /// which doesn't know about the injector).
  void CountWindowSlip() { ++counters_.window_slips; }

  /// Push a detected pulse train through the envelope fault model:
  /// misses, spurious insertions, extra jitter. Identity when the
  /// fault class is disabled.
  std::vector<tag::MeasuredPulse> ImpairPulses(
      std::vector<tag::MeasuredPulse> pulses);

 private:
  ImpairmentConfig config_;
  Rng rng_;
  FaultCounters counters_;
};

}  // namespace freerider::impair
