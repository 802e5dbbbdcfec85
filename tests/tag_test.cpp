#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "dsp/fft.h"
#include "dsp/signal_ops.h"
#include "tag/envelope_detector.h"
#include "tag/power_model.h"
#include "tag/rf_frontend.h"

namespace freerider::tag {
namespace {

// ----------------------------------------------------------- rf frontend

TEST(RfFrontend, PhasePlanRotatesWindows) {
  IqBuffer excitation(300, Cplx{1.0, 0.0});
  PhasePlan plan;
  plan.start_sample = 100;
  plan.samples_per_window = 50;
  plan.window_phases = {0.0, kPi};
  const IqBuffer out = ApplyPhasePlan(excitation, plan, 1.0);
  // Before start: untouched.
  EXPECT_NEAR(out[50].real(), 1.0, 1e-12);
  // Window 0 (phase 0): untouched.
  EXPECT_NEAR(out[120].real(), 1.0, 1e-12);
  // Window 1 (phase pi): negated.
  EXPECT_NEAR(out[160].real(), -1.0, 1e-12);
  // Past the plan: untouched.
  EXPECT_NEAR(out[250].real(), 1.0, 1e-12);
}

TEST(RfFrontend, PhasePlanAppliesConversionLoss) {
  IqBuffer excitation(10, Cplx{1.0, 0.0});
  PhasePlan plan;  // empty plan: pure reflection with conversion loss
  const IqBuffer out = ApplyPhasePlan(excitation, plan);
  EXPECT_NEAR(std::abs(out[5]), kSidebandAmplitude, 1e-12);
}

// The per-sample form ApplyPhasePlan used to have: cos/sin and a divide
// for every sample. The per-window rotor must reproduce it byte for byte.
IqBuffer PerSamplePhasePlanOracle(std::span<const Cplx> excitation,
                                  const PhasePlan& plan,
                                  double conversion_amplitude) {
  IqBuffer out(excitation.size());
  for (std::size_t n = 0; n < excitation.size(); ++n) {
    double phase = 0.0;
    if (n >= plan.start_sample && !plan.window_phases.empty()) {
      const std::size_t w = (n - plan.start_sample) / plan.samples_per_window;
      if (w < plan.window_phases.size()) phase = plan.window_phases[w];
    }
    out[n] = excitation[n] * conversion_amplitude *
             Cplx{std::cos(phase), std::sin(phase)};
  }
  return out;
}

TEST(RfFrontend, PhasePlanMatchesPerSampleOracleByteForByte) {
  Rng rng(2024);
  IqBuffer excitation(6007);
  for (auto& x : excitation) x = rng.NextComplexGaussian();
  // Signed zeros in the quaternary plan's window 4 (samples 1040..1199):
  // there a rotor of sin(-0.0) instead of sin(+0.0) flips the sign of a
  // zero output.
  excitation[1100] = Cplx{-0.0, 0.0};
  excitation[1101] = Cplx{0.0, -0.0};

  std::vector<std::pair<const char*, PhasePlan>> plans;
  // Nominal binary plan (WiFi-like: 400-sample start, 80-sample
  // windows), ending with a partial window at the frame end.
  PhasePlan nominal{400, 80, {}};
  for (std::size_t w = 0; w < 71; ++w) {
    nominal.window_phases.push_back(rng.NextBelow(2) ? kPi : 0.0);
  }
  plans.emplace_back("nominal", nominal);
  // Quaternary plan; also covers -0.0 next to 0.0 (equal, but their
  // sines differ in sign) and a NaN phase.
  PhasePlan quaternary{400, 160, {}};
  for (std::size_t w = 0; w < 35; ++w) {
    quaternary.window_phases.push_back(
        static_cast<double>(rng.NextBelow(4)) * (kPi / 2.0));
  }
  quaternary.window_phases[2] = kPi / 2.0;
  quaternary.window_phases[3] = -0.0;
  quaternary.window_phases[4] = 0.0;
  quaternary.window_phases[5] = -0.0;
  quaternary.window_phases[9] = std::numeric_limits<double>::quiet_NaN();
  plans.emplace_back("quaternary", quaternary);
  // Drifted: one phase per sample (window length 1), with runs of
  // equal phases whose boundaries fall between the nominal ones.
  PhasePlan drifted{397, 1, {}};
  const double window_eff = 80.0 * (1.0 + 40e-6);
  std::vector<double> phases(71);
  for (auto& ph : phases) ph = rng.NextBelow(2) ? kPi : 0.0;
  for (std::size_t i = 0; i + 397 < excitation.size(); ++i) {
    const auto w = static_cast<std::size_t>(static_cast<double>(i) / window_eff);
    drifted.window_phases.push_back(w < phases.size() ? phases[w] : 0.0);
  }
  plans.emplace_back("drifted", drifted);
  plans.emplace_back("start past the end", PhasePlan{9000, 80, {kPi, kPi}});
  plans.emplace_back("start at the end", PhasePlan{6007, 80, {kPi}});
  plans.emplace_back("empty phases", PhasePlan{400, 80, {}});
  plans.emplace_back("empty phases, zero windows", PhasePlan{0, 0, {}});
  plans.emplace_back("huge windows",
                     PhasePlan{10, std::numeric_limits<std::size_t>::max(),
                               {kPi / 2.0, kPi}});

  for (const auto& [name, plan] : plans) {
    for (const double amplitude : {kSidebandAmplitude, 1.0}) {
      const IqBuffer want =
          PerSamplePhasePlanOracle(excitation, plan, amplitude);
      const IqBuffer got = ApplyPhasePlan(excitation, plan, amplitude);
      ASSERT_EQ(want.size(), got.size()) << name;
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(Cplx)),
                0)
          << name;
    }
  }
  // An empty excitation stays empty.
  EXPECT_TRUE(ApplyPhasePlan({}, nominal).empty());
}

TEST(RfFrontend, ConversionLossIsAbout3p9Db) {
  EXPECT_NEAR(20.0 * std::log10(kSidebandAmplitude), -3.92, 0.02);
}

TEST(RfFrontend, FskTogglePlanFlipsSpectrum) {
  // A +f0 tone in a window flagged 1 acquires ±delta_f sidebands.
  const double fs = 8e6;
  const double f0 = 250e3;
  IqBuffer tone(2048);
  for (std::size_t n = 0; n < tone.size(); ++n) {
    tone[n] = std::polar(1.0, kTwoPi * f0 * static_cast<double>(n) / fs);
  }
  BitVector flags = {1};
  const IqBuffer out =
      ApplyFskTogglePlan(tone, 0, 2048, flags, 500e3, fs, 1.0);
  IqBuffer spec(out.begin(), out.begin() + 1024);
  dsp::Fft(spec);
  // Expect energy at f0 - 500k = -250 kHz and f0 + 500k = +750 kHz,
  // none at the original +250 kHz.
  auto bin = [&](double f) {
    const int k = static_cast<int>(std::lround(f / fs * 1024.0));
    return std::norm(spec[(k + 1024) % 1024]) / (1024.0 * 1024.0);
  };
  EXPECT_GT(bin(-250e3), 0.2);
  EXPECT_GT(bin(750e3), 0.2);
  EXPECT_LT(bin(250e3), 0.01);
}

TEST(RfFrontend, FskToggleZeroWindowPassesThrough) {
  IqBuffer tone(256, Cplx{1.0, 0.0});
  BitVector flags = {0};
  const IqBuffer out = ApplyFskTogglePlan(tone, 0, 256, flags, 500e3, 8e6, 1.0);
  for (std::size_t n = 0; n < out.size(); ++n) {
    EXPECT_NEAR(out[n].real(), 1.0, 1e-12);
  }
}

TEST(RfFrontend, ImpedanceBankLevels) {
  ImpedanceBank bank({0.25, 0.5, 1.0});
  EXPECT_EQ(bank.num_levels(), 3u);
  EXPECT_DOUBLE_EQ(bank.AmplitudeFor(0), 0.25);
  EXPECT_DOUBLE_EQ(bank.AmplitudeFor(2), 1.0);
  EXPECT_THROW(bank.AmplitudeFor(3), std::out_of_range);
}

TEST(RfFrontend, ImpedanceBankRejectsBadGamma) {
  EXPECT_THROW(ImpedanceBank({0.0}), std::invalid_argument);
  EXPECT_THROW(ImpedanceBank({1.5}), std::invalid_argument);
  EXPECT_THROW(ImpedanceBank({}), std::invalid_argument);
}

TEST(RfFrontend, AmplitudePlanScalesWindows) {
  IqBuffer excitation(100, Cplx{1.0, 0.0});
  ImpedanceBank bank({0.5, 1.0});
  std::vector<std::size_t> levels = {0, 1};
  const IqBuffer out = ApplyAmplitudePlan(excitation, 0, 50, levels, bank, 1.0);
  EXPECT_NEAR(std::abs(out[25]), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(out[75]), 1.0, 1e-12);
}

// ----------------------------------------------------- envelope detector

TEST(EnvelopeDetector, StrongPulseAlwaysDetected) {
  Rng rng(1);
  EnvelopeDetector det;
  const AirPulse pulse{0.0, 1e-3, -30.0};
  int detected = 0;
  for (int i = 0; i < 200; ++i) detected += det.Detect(pulse, rng).has_value();
  EXPECT_EQ(detected, 200);
}

TEST(EnvelopeDetector, WeakPulseAlmostNeverDetected) {
  Rng rng(2);
  EnvelopeDetector det;
  const AirPulse pulse{0.0, 1e-3, -80.0};
  int detected = 0;
  for (int i = 0; i < 200; ++i) detected += det.Detect(pulse, rng).has_value();
  EXPECT_LT(detected, 5);
}

TEST(EnvelopeDetector, DetectionProbabilityMonotone) {
  EnvelopeDetector det;
  double prev = 0.0;
  for (double p = -80.0; p <= -30.0; p += 2.0) {
    const double prob = det.DetectionProbability(p);
    EXPECT_GE(prob, prev);
    prev = prob;
  }
  EXPECT_NEAR(det.DetectionProbability(det.config().threshold_dbm), 0.5, 1e-9);
}

TEST(EnvelopeDetector, RiseDelayApplied) {
  Rng rng(3);
  EnvelopeDetector det;
  const AirPulse pulse{1e-3, 500e-6, -30.0};
  const auto measured = det.Detect(pulse, rng);
  ASSERT_TRUE(measured.has_value());
  EXPECT_NEAR(measured->start_s, 1e-3 + det.config().rise_delay_s, 1e-9);
}

TEST(EnvelopeDetector, JitterGrowsNearThreshold) {
  Rng rng(4);
  EnvelopeDetector det;
  auto spread = [&](double power_dbm) {
    RunningStats stats;
    const AirPulse pulse{0.0, 500e-6, power_dbm};
    for (int i = 0; i < 500; ++i) {
      if (auto m = det.Detect(pulse, rng)) stats.Add(m->duration_s);
    }
    return stats.stddev();
  };
  EXPECT_GT(spread(-56.0), spread(-35.0) * 2.0);
}

TEST(EnvelopeDetector, DetectAllFiltersMissed) {
  Rng rng(5);
  EnvelopeDetector det;
  std::vector<AirPulse> pulses = {{0.0, 1e-3, -30.0},
                                  {2e-3, 1e-3, -90.0},
                                  {4e-3, 1e-3, -30.0}};
  const auto measured = det.DetectAll(pulses, rng);
  EXPECT_EQ(measured.size(), 2u);
}

// ------------------------------------------------------------ power model

TEST(PowerModel, WifiTotalNear30Uw) {
  const PowerBreakdownUw p = EstimatePower(TranslatorKind::kWifiPhase, 20e6);
  EXPECT_NEAR(p.total(), 34.0, 4.5);  // 19 + 12 + 3
  EXPECT_NEAR(p.clock, 19.0, 0.5);
  EXPECT_DOUBLE_EQ(p.rf_switch, 12.0);
}

TEST(PowerModel, ClockScalesWithShiftFrequency) {
  const auto p20 = EstimatePower(TranslatorKind::kWifiPhase, 20e6);
  const auto p10 = EstimatePower(TranslatorKind::kWifiPhase, 10e6);
  EXPECT_LT(p10.clock, p20.clock);
  EXPECT_GT(p10.clock, p20.clock / 2.5);
}

TEST(PowerModel, BluetoothLogicIsCheapest) {
  const auto wifi = EstimatePower(TranslatorKind::kWifiPhase, 20e6);
  const auto bt = EstimatePower(TranslatorKind::kBluetoothFsk, 20e6);
  EXPECT_LT(bt.control_logic, wifi.control_logic);
}

TEST(PowerModel, MicrowattRegime) {
  // Whatever the configuration, the tag stays in the tens-of-µW class —
  // 3+ orders below an active WiFi radio.
  for (auto kind : {TranslatorKind::kWifiPhase, TranslatorKind::kZigbeePhase,
                    TranslatorKind::kBluetoothFsk}) {
    const auto p = EstimatePower(kind, 20e6);
    EXPECT_GT(p.total(), 10.0);
    EXPECT_LT(p.total(), 50.0);
  }
}

}  // namespace
}  // namespace freerider::tag
