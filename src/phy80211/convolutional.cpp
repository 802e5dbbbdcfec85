#include "phy80211/convolutional.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dsp/kernels.h"
#include "dsp/workspace.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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
// for that observation, so a step's four candidate costs per butterfly
// are one vector load and add each. Exact small integers, so this is a
// pure re-expression of the scalar trellis's path metrics. Rows are
// 256 bytes, aligned for full-width vector loads.
using PenaltyTables = std::array<std::array<std::int16_t, 2 * kNumStates>, 9>;

constexpr PenaltyTables BuildPenaltyTables() {
  PenaltyTables t{};
  for (int ra = 0; ra < 3; ++ra) {
    for (int rb = 0; rb < 3; ++rb) {
      for (int in = 0; in < 2; ++in) {
        for (int s = 0; s < kNumStates; ++s) {
          Bit a = 0;
          Bit b = 0;
          BranchOutputs(s, static_cast<Bit>(in), a, b);
          const int pen = static_cast<int>(ra < 2 && a != ra) +
                          static_cast<int>(rb < 2 && b != rb);
          t[static_cast<std::size_t>(ra * 3 + rb)]
           [static_cast<std::size_t>(in * kNumStates + s)] =
               static_cast<std::int16_t>(pen);
        }
      }
    }
  }
  return t;
}

alignas(64) constexpr PenaltyTables kPenalty = BuildPenaltyTables();

/// The penalty row of one received pair. Anything outside {0, 1} is an
/// erasure (penalizes nothing).
const std::int16_t* PenaltyRow(Bit ra, Bit rb) {
  const std::size_t ca = (ra < 2) ? ra : 2;
  const std::size_t cb = (rb < 2) ? rb : 2;
  return kPenalty[ca * 3 + cb].data();
}

// The hard kernel's 16-bit path metrics (see the proof above
// ViterbiDecodeInto): unreached states start at kUnreached, and every
// kRenormPeriod steps the minimum metric is subtracted from all 64.
constexpr std::int16_t kUnreached = 1 << 13;
constexpr std::size_t kRenormPeriod = 256;

// The cap bounds the decision planes (64 bytes per step, 16 GiB at the
// cap), far above any 802.11 frame (a 4095-byte PSDU is about 2^15
// steps).
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
// (see TracebackPlanes).
//
// Bit-identity with the scalar reference trellis (the oracle in
// tests/phy_fastpath_test.cpp) is by construction:
//  * hard decisions compare exact integer path metrics;
//  * the soft kernel evaluates cost = (m + pen_a) + pen_b in the exact
//    add order of the scalar loop, and the multiply-selects are exact
//    because one operand of each select is always 0.0;
//  * ties pick the lower-numbered predecessor, matching the scalar
//    loop's first-writer-wins ascending scan;
//  * states the scalar loop skips as unreachable here carry a metric
//    that can never win an ACS compare or the final argmin against any
//    reachable path, and their decision bytes are provably never
//    visited by traceback (a winning reachable cost implies a reachable
//    predecessor, inductively back to state 0).
// phy_fastpath_test pins the equivalence exhaustively.
//
// The hard kernel keeps its path metrics in signed 16-bit lanes, eight
// butterflies per SSE2 instruction and sixteen per AVX2 one. They stay
// exact because they stay small (docs/phy_fast_path.md, "16-bit
// Viterbi"):
//  * Every penalty is 0, 1 or 2, and every metric is at least the
//    previous step's minimum, so the minimum never falls.
//  * A state is unreached only in the first 6 steps (the code's memory);
//    it carries kUnreached = 2^13 plus its path's penalties, at most
//    2^13 + 12, while a reached state carries at most 12. So an
//    unreached candidate loses every compare against a reached one, as
//    in the scalar trellis, and two unreached candidates compare their
//    penalties exactly.
//  * From step 6 on, any state is reachable from the best one in 6
//    steps, so every metric is within 12 of the minimum. Subtracting
//    the minimum every kRenormPeriod = 256 steps (the first time after
//    256 steps, when every state is reached) shifts all 64 metrics by
//    the same amount, which changes no comparison, no tie and no argmin,
//    and keeps every metric below 12 + 2 * 256 < 2^15.
// Hence every comparison and the final argmin match the scalar
// trellis's, and so do the decision planes' bytes.
// ---------------------------------------------------------------------------

namespace {

using Acs16 = void (*)(const Bit* coded, std::size_t steps,
                       std::uint8_t* decisions, std::int16_t* final_metric);

#if defined(__x86_64__) || defined(__i386__)

// SSE2: m[i] holds states 8i..8i+7. Butterflies p = 8q..8q+7 read
// m[q] and m[q + 4]; their even and odd destinations interleave into
// states 16q..16q+15 (unpacklo/unpackhi).
void Acs16Baseline(const Bit* coded, std::size_t steps,
                   std::uint8_t* decisions, std::int16_t* final_metric) {
  __m128i m[8];
  m[0] = _mm_insert_epi16(_mm_set1_epi16(kUnreached), 0, 0);
  for (int i = 1; i < 8; ++i) m[i] = _mm_set1_epi16(kUnreached);
  const __m128i one = _mm_set1_epi8(1);
  for (std::size_t t = 0; t < steps; ++t) {
    const auto* pen = reinterpret_cast<const __m128i*>(
        PenaltyRow(coded[2 * t], coded[2 * t + 1]));
    __m128i next[8];
    __m128i take0[4];
    __m128i take1[4];
    for (int q = 0; q < 4; ++q) {
      const __m128i c00 = _mm_add_epi16(m[q], _mm_load_si128(pen + q));
      const __m128i c10 = _mm_add_epi16(m[q + 4], _mm_load_si128(pen + 4 + q));
      const __m128i c01 = _mm_add_epi16(m[q], _mm_load_si128(pen + 8 + q));
      const __m128i c11 = _mm_add_epi16(m[q + 4], _mm_load_si128(pen + 12 + q));
      take0[q] = _mm_cmpgt_epi16(c00, c10);  // strict: ties keep p
      take1[q] = _mm_cmpgt_epi16(c01, c11);
      const __m128i even = _mm_min_epi16(c00, c10);
      const __m128i odd = _mm_min_epi16(c01, c11);
      next[2 * q] = _mm_unpacklo_epi16(even, odd);
      next[2 * q + 1] = _mm_unpackhi_epi16(even, odd);
    }
    // All-ones take lanes pack to 0xFF bytes; keep bit 0.
    auto* dec = reinterpret_cast<__m128i*>(decisions + t * kNumStates);
    _mm_storeu_si128(dec, _mm_and_si128(_mm_packs_epi16(take0[0], take0[1]), one));
    _mm_storeu_si128(dec + 1, _mm_and_si128(_mm_packs_epi16(take0[2], take0[3]), one));
    _mm_storeu_si128(dec + 2, _mm_and_si128(_mm_packs_epi16(take1[0], take1[1]), one));
    _mm_storeu_si128(dec + 3, _mm_and_si128(_mm_packs_epi16(take1[2], take1[3]), one));
    for (int i = 0; i < 8; ++i) m[i] = next[i];
    if (t % kRenormPeriod == kRenormPeriod - 1) {
      __m128i low = m[0];
      for (int i = 1; i < 8; ++i) low = _mm_min_epi16(low, m[i]);
      low = _mm_min_epi16(low, _mm_shuffle_epi32(low, 0x4E));
      low = _mm_min_epi16(low, _mm_shuffle_epi32(low, 0xB1));
      low = _mm_min_epi16(
          low, _mm_shufflelo_epi16(_mm_shufflehi_epi16(low, 0xB1), 0xB1));
      for (int i = 0; i < 8; ++i) m[i] = _mm_sub_epi16(m[i], low);
    }
  }
  for (int i = 0; i < 8; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(final_metric + 8 * i), m[i]);
  }
}

// AVX2: m[i] holds states 16i..16i+15, butterflies p = 16q..16q+15
// read m[q] and m[q + 2]. The 256-bit unpack and pack work within
// 128-bit halves, so a cross-half permute restores state order.
FREERIDER_TARGET_AVX2 void Acs16Avx2(const Bit* coded, std::size_t steps,
                                     std::uint8_t* decisions,
                                     std::int16_t* final_metric) {
  __m256i m[4];
  m[0] = _mm256_insert_epi16(_mm256_set1_epi16(kUnreached), 0, 0);
  for (int i = 1; i < 4; ++i) m[i] = _mm256_set1_epi16(kUnreached);
  const __m256i one = _mm256_set1_epi8(1);
  for (std::size_t t = 0; t < steps; ++t) {
    const auto* pen = reinterpret_cast<const __m256i*>(
        PenaltyRow(coded[2 * t], coded[2 * t + 1]));
    __m256i next[4];
    __m256i take0[2];
    __m256i take1[2];
    for (int q = 0; q < 2; ++q) {
      const __m256i c00 = _mm256_add_epi16(m[q], _mm256_load_si256(pen + q));
      const __m256i c10 =
          _mm256_add_epi16(m[q + 2], _mm256_load_si256(pen + 2 + q));
      const __m256i c01 =
          _mm256_add_epi16(m[q], _mm256_load_si256(pen + 4 + q));
      const __m256i c11 =
          _mm256_add_epi16(m[q + 2], _mm256_load_si256(pen + 6 + q));
      take0[q] = _mm256_cmpgt_epi16(c00, c10);  // strict: ties keep p
      take1[q] = _mm256_cmpgt_epi16(c01, c11);
      const __m256i even = _mm256_min_epi16(c00, c10);
      const __m256i odd = _mm256_min_epi16(c01, c11);
      const __m256i lo = _mm256_unpacklo_epi16(even, odd);
      const __m256i hi = _mm256_unpackhi_epi16(even, odd);
      next[2 * q] = _mm256_permute2x128_si256(lo, hi, 0x20);
      next[2 * q + 1] = _mm256_permute2x128_si256(lo, hi, 0x31);
    }
    // The pack interleaves 64-bit quarters as (a, b) per half; the
    // permute puts them back in state order.
    auto* dec = reinterpret_cast<__m256i*>(decisions + t * kNumStates);
    _mm256_storeu_si256(
        dec, _mm256_and_si256(_mm256_permute4x64_epi64(
                                  _mm256_packs_epi16(take0[0], take0[1]), 0xD8),
                              one));
    _mm256_storeu_si256(
        dec + 1,
        _mm256_and_si256(_mm256_permute4x64_epi64(
                             _mm256_packs_epi16(take1[0], take1[1]), 0xD8),
                         one));
    for (int i = 0; i < 4; ++i) m[i] = next[i];
    if (t % kRenormPeriod == kRenormPeriod - 1) {
      const __m256i wide =
          _mm256_min_epi16(_mm256_min_epi16(m[0], m[1]),
                           _mm256_min_epi16(m[2], m[3]));
      __m128i low = _mm_min_epi16(_mm256_castsi256_si128(wide),
                                  _mm256_extracti128_si256(wide, 1));
      low = _mm_min_epi16(low, _mm_shuffle_epi32(low, 0x4E));
      low = _mm_min_epi16(low, _mm_shuffle_epi32(low, 0xB1));
      low = _mm_min_epi16(
          low, _mm_shufflelo_epi16(_mm_shufflehi_epi16(low, 0xB1), 0xB1));
      const __m256i shift = _mm256_broadcastw_epi16(low);
      for (int i = 0; i < 4; ++i) m[i] = _mm256_sub_epi16(m[i], shift);
    }
  }
  for (int i = 0; i < 4; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(final_metric + 16 * i),
                        m[i]);
  }
}

#else

// Portable build of the same 16-bit kernel, one butterfly at a time.
void Acs16Baseline(const Bit* coded, std::size_t steps,
                   std::uint8_t* decisions, std::int16_t* final_metric) {
  std::int16_t metric[kNumStates];
  std::int16_t next[kNumStates];
  std::fill(std::begin(metric), std::end(metric), kUnreached);
  metric[0] = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    const std::int16_t* pen = PenaltyRow(coded[2 * t], coded[2 * t + 1]);
    std::uint8_t* dec = decisions + t * kNumStates;
    for (int p = 0; p < kNumStates / 2; ++p) {
      const int c00 = metric[p] + pen[p];
      const int c10 = metric[p + 32] + pen[p + 32];
      const int c01 = metric[p] + pen[64 + p];
      const int c11 = metric[p + 32] + pen[96 + p];
      dec[p] = static_cast<std::uint8_t>(c10 < c00);  // strict: ties keep p
      dec[32 + p] = static_cast<std::uint8_t>(c11 < c01);
      next[2 * p] = static_cast<std::int16_t>(std::min(c00, c10));
      next[2 * p + 1] = static_cast<std::int16_t>(std::min(c01, c11));
    }
    std::copy(std::begin(next), std::end(next), std::begin(metric));
    if (t % kRenormPeriod == kRenormPeriod - 1) {
      const std::int16_t low = *std::min_element(metric, metric + kNumStates);
      for (auto& v : metric) v = static_cast<std::int16_t>(v - low);
    }
  }
  std::copy(std::begin(metric), std::end(metric), final_metric);
}

void Acs16Avx2(const Bit* coded, std::size_t steps, std::uint8_t* decisions,
               std::int16_t* final_metric) {
  Acs16Baseline(coded, steps, decisions, final_metric);
}

#endif

void HardDecode(Acs16 acs, std::span<const Bit> coded_with_erasures,
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
  decisions.resize(steps * kNumStates);
  alignas(32) std::int16_t metric[kNumStates];
  acs(coded_with_erasures.data(), steps, decisions.data(), metric);
  TracebackPlanes(decisions.data(), steps, metric, out);
}

}  // namespace

void ViterbiDecodeIntoBaseline(std::span<const Bit> coded_with_erasures,
                               std::vector<std::uint8_t>& decisions,
                               BitVector& out) {
  HardDecode(Acs16Baseline, coded_with_erasures, decisions, out);
}

void ViterbiDecodeIntoAvx2(std::span<const Bit> coded_with_erasures,
                           std::vector<std::uint8_t>& decisions,
                           BitVector& out) {
  HardDecode(Acs16Avx2, coded_with_erasures, decisions, out);
}

void ViterbiDecodeInto(std::span<const Bit> coded_with_erasures,
                       std::vector<std::uint8_t>& decisions, BitVector& out) {
  static const auto build =
      dsp::CpuHasAvx2() ? ViterbiDecodeIntoAvx2 : ViterbiDecodeIntoBaseline;
  build(coded_with_erasures, decisions, out);
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
