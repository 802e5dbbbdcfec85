#include "phy80211/convolutional.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dsp/workspace.h"

namespace freerider::phy80211 {
namespace {

// Generator taps expressed as delay masks with the *newest* bit in the
// LSB: g0 = 133 octal touches delays {0,2,3,5,6} (Eq. 9, C1), g1 = 171
// octal touches delays {0,1,2,3,6} (Eq. 9, C2).
constexpr std::uint8_t kG0 = 0x6D;
constexpr std::uint8_t kG1 = 0x4F;
constexpr int kConstraint = 7;
constexpr int kNumStates = 1 << (kConstraint - 1);  // 64

constexpr Bit Parity(std::uint8_t x) {
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<Bit>(x & 1u);
}

// Output pair for (state, input). State holds the 6 previous bits with
// the most recent in the LSB.
constexpr void BranchOutputs(int state, Bit input, Bit& out_a, Bit& out_b) {
  // 7-bit window with the newest bit in the LSB; window bit i is the
  // input delayed by i, so the delay masks apply directly.
  const std::uint8_t window =
      static_cast<std::uint8_t>((state << 1) | input);
  out_a = Parity(window & kG0);
  out_b = Parity(window & kG1);
}

// Flattened branch-output tables for the soft ACS kernel, indexed
// [input * 64 + state], used as multiply-selects so the inner loop
// carries no data-dependent branches and auto-vectorizes. (The hard
// kernel reads the penalty tables below.)
struct BranchTables {
  std::array<double, 2 * kNumStates> ad{};
  std::array<double, 2 * kNumStates> bd{};
};

constexpr BranchTables BuildBranchTables() {
  BranchTables t;
  for (int in = 0; in < 2; ++in) {
    for (int s = 0; s < kNumStates; ++s) {
      Bit a = 0;
      Bit b = 0;
      BranchOutputs(s, static_cast<Bit>(in), a, b);
      t.ad[static_cast<std::size_t>(in * kNumStates + s)] = a;
      t.bd[static_cast<std::size_t>(in * kNumStates + s)] = b;
    }
  }
  return t;
}

constexpr BranchTables kBranch = BuildBranchTables();

// Integer branch penalties for every received-pair combination,
// indexed [ra * 3 + rb][input * 64 + state] with ra/rb in {0, 1,
// 2 = erasure}. Each entry is the full Hamming penalty of that branch
// for that observation — pa0/pa1-style selects collapse to one table
// load, which removes the multiplies that kept GCC from vectorizing
// the hard ACS loop. Exact integers, so this is a pure re-expression
// of the same path metrics.
constexpr std::array<std::array<std::uint32_t, 2 * kNumStates>, 9>
BuildPenaltyTables() {
  std::array<std::array<std::uint32_t, 2 * kNumStates>, 9> t{};
  for (int ra = 0; ra < 3; ++ra) {
    for (int rb = 0; rb < 3; ++rb) {
      for (int in = 0; in < 2; ++in) {
        for (int s = 0; s < kNumStates; ++s) {
          Bit a = 0;
          Bit b = 0;
          BranchOutputs(s, static_cast<Bit>(in), a, b);
          const std::uint32_t pen =
              static_cast<std::uint32_t>(ra < 2 && a != ra) +
              static_cast<std::uint32_t>(rb < 2 && b != rb);
          t[static_cast<std::size_t>(ra * 3 + rb)]
           [static_cast<std::size_t>(in * kNumStates + s)] = pen;
        }
      }
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 2 * kNumStates>, 9> kPenalty =
    BuildPenaltyTables();

// The integer kernel adds at most 2 per step on top of kInf; cap the
// length well below the wrap-around point. The cap is far above any
// 802.11 frame (a 4095-byte PSDU is about 2^15 steps).
constexpr std::size_t kMaxSteps = std::size_t{1} << 28;

// Puncturing keep-masks over one period of the rate-1/2 stream.
// Rate 2/3: period 4 mother bits (A1 B1 A2 B2), drop B2.
// Rate 3/4: period 6 (A1 B1 A2 B2 A3 B3), drop B2 and A3.
constexpr std::array<bool, 4> kKeep23 = {true, true, true, false};
constexpr std::array<bool, 6> kKeep34 = {true, true, true, false, false, true};

std::span<const bool> KeepMask(CodingRate rate) {
  switch (rate) {
    case CodingRate::kTwoThirds:
      return kKeep23;
    case CodingRate::kThreeQuarters:
      return kKeep34;
    case CodingRate::kHalf:
      break;
  }
  return {};
}

/// Traceback over take-bit planes: per step, byte p holds take0 for
/// even destination 2p and byte 32 + p holds take1 for odd destination
/// 2p + 1 (take selects the upper predecessor p + 32). The input bit is
/// the destination LSB, so the plane encodes exactly the information of
/// the scalar reference's packed predecessor bytes — the same
/// predecessors walk back, the same bits come out.
template <typename Metric>
void TracebackPlanes(const std::uint8_t* decisions, std::size_t steps,
                     const Metric* final_metric, BitVector& out) {
  std::uint32_t state = static_cast<std::uint32_t>(
      std::min_element(final_metric, final_metric + kNumStates) -
      final_metric);
  out.resize(steps);
  for (std::size_t t = steps; t-- > 0;) {
    out[t] = static_cast<Bit>(state & 1u);
    const std::uint32_t p = state >> 1;
    const std::uint32_t take =
        decisions[t * kNumStates + (state & 1u) * 32 + p];
    state = p + take * 32;
  }
}

}  // namespace

BitVector ConvolutionalEncode(std::span<const Bit> bits) {
  BitVector out;
  ConvolutionalEncodeInto(bits, out);
  return out;
}

void ConvolutionalEncodeInto(std::span<const Bit> bits, BitVector& out) {
  out.resize(bits.size() * 2);
  int state = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const Bit b = bits[i];
    BranchOutputs(state, b, out[2 * i], out[2 * i + 1]);
    state = ((state << 1) | b) & (kNumStates - 1);
  }
}

BitVector Puncture(std::span<const Bit> coded, CodingRate rate) {
  BitVector out;
  PunctureInto(coded, rate, out);
  return out;
}

void PunctureInto(std::span<const Bit> coded, CodingRate rate, BitVector& out) {
  out.clear();
  if (rate == CodingRate::kHalf) {
    out.insert(out.end(), coded.begin(), coded.end());
    return;
  }
  const auto mask = KeepMask(rate);
  out.reserve(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (mask[i % mask.size()]) out.push_back(coded[i]);
  }
}

void DepunctureInto(std::span<const Bit> punctured, CodingRate rate,
                    std::size_t num_mother_bits, BitVector& out) {
  out.clear();
  if (rate == CodingRate::kHalf) {
    out.insert(out.end(), punctured.begin(), punctured.end());
    return;
  }
  const auto mask = KeepMask(rate);
  out.reserve(num_mother_bits);
  std::size_t src = 0;
  for (std::size_t i = 0; i < num_mother_bits; ++i) {
    if (mask[i % mask.size()]) {
      out.push_back(src < punctured.size() ? punctured[src++] : Bit{2});
    } else {
      out.push_back(Bit{2});  // erasure
    }
  }
}

void DepunctureSoftInto(std::span<const double> punctured, CodingRate rate,
                        std::size_t num_mother_bits,
                        std::vector<double>& out) {
  out.clear();
  if (rate == CodingRate::kHalf) {
    out.insert(out.end(), punctured.begin(), punctured.end());
    return;
  }
  const auto mask = KeepMask(rate);
  out.reserve(num_mother_bits);
  std::size_t src = 0;
  for (std::size_t i = 0; i < num_mother_bits; ++i) {
    if (mask[i % mask.size()]) {
      out.push_back(src < punctured.size() ? punctured[src++] : 0.0);
    } else {
      out.push_back(0.0);  // erasure
    }
  }
}

// ---------------------------------------------------------------------------
// Branchless state-major ACS kernels.
//
// The 64-state trellis decomposes into 32 butterflies: sources
// {p, p + 32} both feed destinations {2p, 2p + 1} (destination LSB is
// the input bit). Each step therefore reads the metric array twice per
// butterfly, computes all four candidate costs arithmetically — the
// hard kernel adds one precomputed per-(ra, rb) penalty-table entry,
// the soft kernel uses exact multiply-selects — and writes every
// destination: no fill of the next-metric array, no data-dependent
// branches, and survivor choices stored as contiguous take-bit planes
// (see TracebackPlanes), a loop shape GCC auto-vectorizes.
//
// Bit-identity with the scalar reference trellis (the oracle in
// tests/phy_fastpath_test.cpp) is by construction:
//  * hard decisions use exact integer path metrics;
//  * the soft kernel evaluates cost = (m + pen_a) + pen_b in the exact
//    add order of the scalar loop, and the multiply-selects are exact
//    because one operand of each select is always 0.0;
//  * ties pick the lower-numbered predecessor, matching the scalar
//    loop's first-writer-wins ascending scan;
//  * states the scalar loop skips as unreachable (metric >= kInf) here
//    carry metric >= kInf and can never win an ACS compare or the final
//    argmin against any reachable path, and their decision bytes are
//    provably never visited by traceback (a winning cost < kInf implies
//    a predecessor metric < kInf, inductively back to state 0).
// phy_fastpath_test pins the equivalence exhaustively.
// ---------------------------------------------------------------------------

void ViterbiDecodeInto(std::span<const Bit> coded_with_erasures,
                       std::vector<std::uint8_t>& decisions, BitVector& out) {
  if (coded_with_erasures.size() % 2 != 0) {
    throw std::invalid_argument("Viterbi input must be even length");
  }
  const std::size_t steps = coded_with_erasures.size() / 2;
  if (steps == 0) {
    out.clear();
    return;
  }
  if (steps > kMaxSteps) {
    throw std::length_error("Viterbi input exceeds 2^28 steps");
  }

  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max() / 2;
  alignas(64) std::uint32_t metric_a[kNumStates];
  alignas(64) std::uint32_t metric_b[kNumStates];
  std::fill(std::begin(metric_a), std::end(metric_a), kInf);
  metric_a[0] = 0;
  std::uint32_t* metric = metric_a;
  std::uint32_t* next = metric_b;

  decisions.resize(steps * kNumStates);

  for (std::size_t t = 0; t < steps; ++t) {
    const Bit ra = coded_with_erasures[2 * t];
    const Bit rb = coded_with_erasures[2 * t + 1];
    // Anything outside {0, 1} is an erasure (penalizes nothing), same
    // as the pa0/pa1 selects this table replaces.
    const std::size_t ca = (ra < 2) ? ra : 2;
    const std::size_t cb = (rb < 2) ? rb : 2;
    const std::uint32_t* pen = kPenalty[ca * 3 + cb].data();
    std::uint8_t* dec = &decisions[t * kNumStates];
    for (std::uint32_t p = 0; p < kNumStates / 2; ++p) {
      const std::uint32_t c00 = metric[p] + pen[p];
      const std::uint32_t c10 = metric[p + 32] + pen[p + 32];
      const std::uint32_t c01 = metric[p] + pen[64 + p];
      const std::uint32_t c11 = metric[p + 32] + pen[96 + p];
      const std::uint32_t take0 = c10 < c00;  // strict: ties keep p
      const std::uint32_t take1 = c11 < c01;
      next[2 * p] = take0 ? c10 : c00;
      next[2 * p + 1] = take1 ? c11 : c01;
      dec[p] = static_cast<std::uint8_t>(take0);
      dec[32 + p] = static_cast<std::uint8_t>(take1);
    }
    std::swap(metric, next);
  }

  TracebackPlanes(decisions.data(), steps, metric, out);
}

void ViterbiDecodeSoftInto(std::span<const double> llrs,
                           std::vector<std::uint8_t>& decisions,
                           BitVector& out) {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("Viterbi soft input must be even length");
  }
  const std::size_t steps = llrs.size() / 2;
  if (steps == 0) {
    out.clear();
    return;
  }

  constexpr double kInf = 1e30;
  alignas(64) double metric_a[kNumStates];
  alignas(64) double metric_b[kNumStates];
  std::fill(std::begin(metric_a), std::end(metric_a), kInf);
  metric_a[0] = 0.0;
  double* metric = metric_a;
  double* next = metric_b;

  decisions.resize(steps * kNumStates);

  const double* ta = kBranch.ad.data();
  const double* tb = kBranch.bd.data();

  for (std::size_t t = 0; t < steps; ++t) {
    const double la = llrs[2 * t];
    const double lb = llrs[2 * t + 1];
    // pa0/pa1 = penalty when the branch emits a = 0 / a = 1; exactly
    // one of each pair is 0.0, which makes the multiply-selects below
    // exact (x + 1.0*(y - x) rounds to y, x + 0.0*(y - x) rounds to x
    // for the non-negative finite values involved).
    const double abs_la = std::abs(la);
    const double abs_lb = std::abs(lb);
    const double pa0 = (la > 0.0) ? abs_la : 0.0;
    const double pa1 = (la > 0.0) ? 0.0 : abs_la;
    const double pb0 = (lb > 0.0) ? abs_lb : 0.0;
    const double pb1 = (lb > 0.0) ? 0.0 : abs_lb;
    const double dda = pa1 - pa0;
    const double ddb = pb1 - pb0;
    std::uint8_t* dec = &decisions[t * kNumStates];
    for (std::uint32_t p = 0; p < kNumStates / 2; ++p) {
      const double m0 = metric[p];
      const double m1 = metric[p + 32];
      const double c00 = (m0 + (pa0 + ta[p] * dda)) + (pb0 + tb[p] * ddb);
      const double c10 =
          (m1 + (pa0 + ta[p + 32] * dda)) + (pb0 + tb[p + 32] * ddb);
      const double c01 =
          (m0 + (pa0 + ta[64 + p] * dda)) + (pb0 + tb[64 + p] * ddb);
      const double c11 =
          (m1 + (pa0 + ta[96 + p] * dda)) + (pb0 + tb[96 + p] * ddb);
      const bool take0 = c10 < c00;  // strict: ties keep p
      const bool take1 = c11 < c01;
      next[2 * p] = take0 ? c10 : c00;
      next[2 * p + 1] = take1 ? c11 : c01;
      dec[p] = static_cast<std::uint8_t>(take0);
      dec[32 + p] = static_cast<std::uint8_t>(take1);
    }
    std::swap(metric, next);
  }

  TracebackPlanes(decisions.data(), steps, metric, out);
}

BitVector ViterbiDecode(std::span<const Bit> coded_with_erasures) {
  BitVector out;
  ViterbiDecodeInto(coded_with_erasures,
                    dsp::ThreadLocalWorkspace().vit_decisions, out);
  return out;
}

BitVector ViterbiDecodeSoft(std::span<const double> llrs) {
  BitVector out;
  ViterbiDecodeSoftInto(llrs, dsp::ThreadLocalWorkspace().vit_decisions, out);
  return out;
}

}  // namespace freerider::phy80211
