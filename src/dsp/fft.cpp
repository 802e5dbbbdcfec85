#include "dsp/fft.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "dsp/kernels.h"

namespace freerider::dsp {
namespace {

// One size's plan: the bit-reversal table and every stage's twiddles.
// The stage whose butterflies span h points (h = 1, 2, ..., n/2) reads
// the size-n twiddle tw[k·n/(2h)], k < h, where tw[j] is
// (cos, sin)(-2π·j/n) computed by the one expression below; the stage's
// h values sit contiguously at [h - 1, 2h - 1) of wr/wi.
struct FftPlan {
  std::vector<std::uint32_t> reversal;
  std::vector<double> wr;
  std::vector<double> wi;
};

// The simulator uses a handful of sizes (64 for OFDM, 2048 for the
// 802.15.4 SHR filter, the spectrum analyzer's fft_size, plus test
// sizes). Plans are per thread, so the hot path takes no lock under the
// work-stealing executor, and are indexed by log2 n.
const FftPlan& PlanFor(std::size_t n) {
  if (!IsPowerOfTwo(n)) throw std::invalid_argument("Fft: size not a power of 2");
  const int log2n = std::countr_zero(n);
  if (log2n > 32) throw std::length_error("Fft: size above 2^32");
  thread_local std::array<FftPlan, 33> plans;
  FftPlan& plan = plans[static_cast<std::size_t>(log2n)];
  if (plan.reversal.size() == n) return plan;

  plan.reversal.assign(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    plan.reversal[i] = static_cast<std::uint32_t>(
        (plan.reversal[i >> 1] >> 1) | ((i & 1) << (log2n - 1)));
  }
  plan.wr.resize(n - 1);
  plan.wi.resize(n - 1);
  for (std::size_t h = 1; h < n; h <<= 1) {
    const std::size_t step = n / (2 * h);
    for (std::size_t k = 0; k < h; ++k) {
      const double angle = -kTwoPi * static_cast<double>(k * step) /
                           static_cast<double>(n);
      plan.wr[h - 1 + k] = std::cos(angle);
      plan.wi[h - 1 + k] = std::sin(angle);
    }
  }
  return plan;
}

using V2 = double __attribute__((vector_size(16)));
using V4 = double __attribute__((vector_size(32)));
using M2 = long long __attribute__((vector_size(16)));
using M4 = long long __attribute__((vector_size(32)));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

// Everything below is always inlined into one build's entry point, and
// vectors are only passed by reference: no vector crosses a call
// boundary by value, so no ABI depends on the target (-Wpsabi).
// V = double is the scalar form.
template <class V>
__attribute__((always_inline)) inline void Load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <class V>
__attribute__((always_inline)) inline void Store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

// Every lane x, sign of zero included.
template <class V>
__attribute__((always_inline)) inline void Splat(V& v, double x) {
  if constexpr (kLanes<V> == 1) {
    v = x;
  } else {
    v = V{};
    for (std::size_t j = 0; j < kLanes<V>; ++j) v[j] = x;
  }
}

// The butterfly of every stage, lane by lane and in the scalar loop's
// order: v = b·w as vr = br·wr − bi·wi, vi = br·wi + bi·wr, then
// u ← u + v and b ← u − v. No build enables FMA, so nothing contracts.
template <class V>
__attribute__((always_inline)) inline void Butterfly(V& ur, V& ui, V& br,
                                                     V& bi, const V& wr,
                                                     const V& wi) {
  const V vr = br * wr - bi * wi;
  const V vi = br * wi + bi * wr;
  br = ur - vr;
  bi = ui - vi;
  ur = ur + vr;
  ui = ui + vi;
}

// Where a pass writes: back into the split arrays, or, for the last
// pass of Fft/Ifft, interleaved into the caller's buffer. The inverse
// output is Ifft's conj and 1/N scaling, (re·s, (−im)·s), lane-wise.
struct SplitSink {
  double* re;
  double* im;

  template <class V>
  __attribute__((always_inline)) void Put(std::size_t pos, const V& r,
                                          const V& i) const {
    Store(re + pos, r);
    Store(im + pos, i);
  }
};

struct InterleavedSink {
  double* out;  // the Cplx buffer as double pairs ([complex.numbers])
  bool inverse;
  double inv_n;

  template <class V>
  __attribute__((always_inline)) void Put(std::size_t pos, const V& r,
                                          const V& i) const {
    V re = r;
    V im = i;
    if (inverse) {
      V s;
      Splat(s, inv_n);
      re = re * s;
      im = -im * s;
    }
    double* p = out + 2 * pos;
    if constexpr (kLanes<V> == 4) {
      Store(p, V{re[0], im[0], re[1], im[1]});
      Store(p + 4, V{re[2], im[2], re[3], im[3]});
    } else if constexpr (kLanes<V> == 2) {
      Store(p, V{re[0], im[0]});
      Store(p + 2, V{re[1], im[1]});
    } else {
      p[0] = re;
      p[1] = im;
    }
  }
};

// One stage with butterflies spanning h points, h a multiple of the
// lane count: lanes are adjacent k.
template <class V, class Sink>
__attribute__((always_inline)) inline void Stage(double* re, double* im,
                                                 std::size_t n, std::size_t h,
                                                 const double* wr,
                                                 const double* wi,
                                                 const Sink& sink) {
  for (std::size_t i = 0; i < n; i += 2 * h) {
    for (std::size_t k = 0; k < h; k += kLanes<V>) {
      const std::size_t lo = i + k;
      const std::size_t hi = lo + h;
      V ur, ui, br, bi, w_r, w_i;
      Load(ur, re + lo), Load(ui, im + lo);
      Load(br, re + hi), Load(bi, im + hi);
      Load(w_r, wr + k), Load(w_i, wi + k);
      Butterfly(ur, ui, br, bi, w_r, w_i);
      sink.Put(lo, ur, ui);
      sink.Put(hi, br, bi);
    }
  }
}

// Two consecutive stages (spans h and 2h) in one pass. Each group of
// 4h points splits into quarters q0..q3; stage h pairs (q0, q1) and
// (q2, q3) with twiddle k, stage 2h pairs (q0, q2) with k and (q1, q3)
// with h + k. Every point sees the same two butterflies, in the same
// stage order, as two separate passes would apply.
template <class V, class Sink>
__attribute__((always_inline)) inline void StagePair(
    double* re, double* im, std::size_t n, std::size_t h, const double* wr,
    const double* wi, const Sink& sink) {
  const double* ar = wr + h - 1;  // stage h
  const double* ai = wi + h - 1;
  const double* br = wr + 2 * h - 1;  // stage 2h
  const double* bi = wi + 2 * h - 1;
  for (std::size_t i = 0; i < n; i += 4 * h) {
    for (std::size_t k = 0; k < h; k += kLanes<V>) {
      const std::size_t p0 = i + k;
      const std::size_t p1 = p0 + h;
      const std::size_t p2 = p1 + h;
      const std::size_t p3 = p2 + h;
      V r0, i0, r1, i1, r2, i2, r3, i3, war, wai, wbr, wbi, wcr, wci;
      Load(r0, re + p0), Load(i0, im + p0);
      Load(r1, re + p1), Load(i1, im + p1);
      Load(r2, re + p2), Load(i2, im + p2);
      Load(r3, re + p3), Load(i3, im + p3);
      Load(war, ar + k), Load(wai, ai + k);
      Load(wbr, br + k), Load(wbi, bi + k);
      Load(wcr, br + h + k), Load(wci, bi + h + k);
      Butterfly(r0, i0, r1, i1, war, wai);
      Butterfly(r2, i2, r3, i3, war, wai);
      Butterfly(r0, i0, r2, i2, wbr, wbi);
      Butterfly(r1, i1, r3, i3, wcr, wci);
      sink.Put(p0, r0, i0);
      sink.Put(p1, r1, i1);
      sink.Put(p2, r2, i2);
      sink.Put(p3, r3, i3);
    }
  }
}

// The twiddles of stages 1-3 as the lanes of Stages123 need them, built
// once per transform.
template <class V>
struct SmallStageTwiddles {
  static constexpr std::size_t kVecs = kLanes<V> == 4 ? 1 : 2;
  V w1r, w1i;  // stage 1: k = 0 in every lane
  V w2r, w2i;  // stage 2: k = 0, 1 (repeated across 4 lanes)
  V w3r[kVecs], w3i[kVecs];  // stage 3: k = 0..3

  __attribute__((always_inline)) SmallStageTwiddles(const double* wr,
                                                    const double* wi) {
    Splat(w1r, wr[0]), Splat(w1i, wi[0]);
    if constexpr (kVecs == 1) {
      w2r = V{wr[1], wr[2], wr[1], wr[2]};
      w2i = V{wi[1], wi[2], wi[1], wi[2]};
    } else {
      Load(w2r, wr + 1), Load(w2i, wi + 1);
    }
    for (std::size_t v = 0; v < kVecs; ++v) {
      Load(w3r[v], wr + 3 + v * kLanes<V>);
      Load(w3i[v], wi + 3 + v * kLanes<V>);
    }
  }
};

// Eight points in position order, as the first pass reads them.
template <class V>
struct Points8 {
  static constexpr std::size_t kVecs = 8 / kLanes<V>;
  V r[kVecs];
  V i[kVecs];
};

// Points g..g+7 of input already split in bit-reversed order.
template <class V>
__attribute__((always_inline)) inline void LoadSplit(const double* re,
                                                     const double* im,
                                                     Points8<V>& p) {
  for (std::size_t v = 0; v < Points8<V>::kVecs; ++v) {
    Load(p.r[v], re + v * kLanes<V>);
    Load(p.i[v], im + v * kLanes<V>);
  }
}

// Points g..g+7 gathered from natural-order interleaved input: for g a
// multiple of 8, rev[g + j] = rev[g] + rev3(j)·n/8, so `x` points at
// input rev[g] and the eight sources sit `stride` = n/8 apart.
// Conjugation negates the imaginary parts, an exact sign flip.
template <class V>
__attribute__((always_inline)) inline void LoadGathered(const Cplx* x,
                                                        std::size_t stride,
                                                        bool conjugate,
                                                        Points8<V>& p) {
  constexpr std::size_t kRev3[8] = {0, 4, 2, 6, 1, 5, 3, 7};
  for (std::size_t v = 0; v < Points8<V>::kVecs; ++v) {
    for (std::size_t j = 0; j < kLanes<V>; ++j) {
      const Cplx point = x[kRev3[v * kLanes<V> + j] * stride];
      p.r[v][j] = point.real();
      p.i[v][j] = point.imag();
    }
    if (conjugate) p.i[v] = -p.i[v];
  }
}

// Stages 1-3 (spans 1, 2, 4) of the eight points at position g, in
// registers. Shuffles only move points between lanes; each lane pair
// then gets its stage's twiddle, so every point sees the butterflies of
// the scalar loop.
template <class V, class Sink>
__attribute__((always_inline)) inline void Stages123(
    const Points8<V>& p, const SmallStageTwiddles<V>& w, std::size_t g,
    const Sink& sink) {
  if constexpr (kLanes<V> == 4) {
    // Stage 1: lo = points 0,2,4,6, hi = 1,3,5,7.
    V4 lr = __builtin_shuffle(p.r[0], p.r[1], M4{0, 2, 4, 6});
    V4 li = __builtin_shuffle(p.i[0], p.i[1], M4{0, 2, 4, 6});
    V4 hr = __builtin_shuffle(p.r[0], p.r[1], M4{1, 3, 5, 7});
    V4 hi = __builtin_shuffle(p.i[0], p.i[1], M4{1, 3, 5, 7});
    Butterfly(lr, li, hr, hi, w.w1r, w.w1i);
    // Stage 2: lo = points 0,1,4,5, hi = 2,3,6,7; twiddles k = 0,1,0,1.
    V4 l2r = __builtin_shuffle(lr, hr, M4{0, 4, 2, 6});
    V4 l2i = __builtin_shuffle(li, hi, M4{0, 4, 2, 6});
    V4 h2r = __builtin_shuffle(lr, hr, M4{1, 5, 3, 7});
    V4 h2i = __builtin_shuffle(li, hi, M4{1, 5, 3, 7});
    Butterfly(l2r, l2i, h2r, h2i, w.w2r, w.w2i);
    // Stage 3: lo = points 0..3, hi = 4..7; twiddles k = 0..3.
    V4 l3r = __builtin_shuffle(l2r, h2r, M4{0, 1, 4, 5});
    V4 l3i = __builtin_shuffle(l2i, h2i, M4{0, 1, 4, 5});
    V4 h3r = __builtin_shuffle(l2r, h2r, M4{2, 3, 6, 7});
    V4 h3i = __builtin_shuffle(l2i, h2i, M4{2, 3, 6, 7});
    Butterfly(l3r, l3i, h3r, h3i, w.w3r[0], w.w3i[0]);
    sink.Put(g, l3r, l3i);
    sink.Put(g + 4, h3r, h3i);
  } else {
    static_assert(kLanes<V> == 2);
    // Stage 1: lo = points 0,2 | 4,6, hi = 1,3 | 5,7.
    V2 alr = __builtin_shuffle(p.r[0], p.r[1], M2{0, 2});
    V2 ali = __builtin_shuffle(p.i[0], p.i[1], M2{0, 2});
    V2 ahr = __builtin_shuffle(p.r[0], p.r[1], M2{1, 3});
    V2 ahi = __builtin_shuffle(p.i[0], p.i[1], M2{1, 3});
    V2 blr = __builtin_shuffle(p.r[2], p.r[3], M2{0, 2});
    V2 bli = __builtin_shuffle(p.i[2], p.i[3], M2{0, 2});
    V2 bhr = __builtin_shuffle(p.r[2], p.r[3], M2{1, 3});
    V2 bhi = __builtin_shuffle(p.i[2], p.i[3], M2{1, 3});
    Butterfly(alr, ali, ahr, ahi, w.w1r, w.w1i);
    Butterfly(blr, bli, bhr, bhi, w.w1r, w.w1i);
    // Stage 2: lo = points 0,1 | 4,5, hi = 2,3 | 6,7; twiddles k = 0,1.
    V2 a2lr = __builtin_shuffle(alr, ahr, M2{0, 2});
    V2 a2li = __builtin_shuffle(ali, ahi, M2{0, 2});
    V2 a2hr = __builtin_shuffle(alr, ahr, M2{1, 3});
    V2 a2hi = __builtin_shuffle(ali, ahi, M2{1, 3});
    V2 b2lr = __builtin_shuffle(blr, bhr, M2{0, 2});
    V2 b2li = __builtin_shuffle(bli, bhi, M2{0, 2});
    V2 b2hr = __builtin_shuffle(blr, bhr, M2{1, 3});
    V2 b2hi = __builtin_shuffle(bli, bhi, M2{1, 3});
    Butterfly(a2lr, a2li, a2hr, a2hi, w.w2r, w.w2i);
    Butterfly(b2lr, b2li, b2hr, b2hi, w.w2r, w.w2i);
    // Stage 3: lo = points 0,1 | 2,3, hi = 4,5 | 6,7; twiddles k = 0..3.
    Butterfly(a2lr, a2li, b2lr, b2li, w.w3r[0], w.w3i[0]);
    Butterfly(a2hr, a2hi, b2hr, b2hi, w.w3r[1], w.w3i[1]);
    sink.Put(g, a2lr, a2li);
    sink.Put(g + 2, a2hr, a2hi);
    sink.Put(g + 4, b2lr, b2li);
    sink.Put(g + 6, b2hr, b2hi);
  }
}

// Every pass of an n >= 8 transform: stages 1-3 in registers per eight
// points, then the rest as fused pairs, with one single stage first
// when their count is odd. The first pass reads re/im or gathers from
// `from`; every pass but the last writes re/im, the last writes `last`.
template <class V, class Sink>
__attribute__((always_inline)) inline void Passes(const FftPlan& plan,
                                                  const Cplx* from,
                                                  bool conjugate, double* re,
                                                  double* im, std::size_t n,
                                                  const Sink& last) {
  const std::uint32_t* rev = plan.reversal.data();
  const double* wr = plan.wr.data();
  const double* wi = plan.wi.data();
  const SplitSink split{re, im};
  const SmallStageTwiddles<V> small(wr, wi);
  for (std::size_t g = 0; g < n; g += 8) {
    Points8<V> points{};
    if (from == nullptr) {
      LoadSplit(re + g, im + g, points);
    } else {
      LoadGathered(from + rev[g], n / 8, conjugate, points);
    }
    // With n = 8 this pass is the last, and its one group has read
    // every input before it writes.
    n == 8 ? Stages123(points, small, g, last)
           : Stages123(points, small, g, split);
  }
  std::size_t h = 8;
  if (std::countr_zero(n) % 2 == 0) {
    n == 16 ? Stage<V>(re, im, n, h, wr + h - 1, wi + h - 1, last)
            : Stage<V>(re, im, n, h, wr + h - 1, wi + h - 1, split);
    h <<= 1;
  }
  for (; h < n; h <<= 2) {
    4 * h == n ? StagePair<V>(re, im, n, h, wr, wi, last)
               : StagePair<V>(re, im, n, h, wr, wi, split);
  }
}

// The one body of both builds. Below eight points everything runs
// scalar: gather, stages, then the output.
template <class V>
__attribute__((always_inline)) inline void TransformBody(
    const Cplx* from, Cplx* to, bool inverse, double* re, double* im,
    std::size_t n) {
  const FftPlan& plan = PlanFor(n);
  const SplitSink split{re, im};
  const InterleavedSink interleaved{reinterpret_cast<double*>(to), inverse,
                                    1.0 / static_cast<double>(n)};
  if (n >= 8) {
    to == nullptr ? Passes<V>(plan, from, inverse, re, im, n, split)
                  : Passes<V>(plan, from, inverse, re, im, n, interleaved);
    return;
  }
  const std::uint32_t* rev = plan.reversal.data();
  for (std::size_t i = 0; from != nullptr && i < n; ++i) {
    re[i] = from[rev[i]].real();
    im[i] = inverse ? -from[rev[i]].imag() : from[rev[i]].imag();
  }
  for (std::size_t h = 1; h < n; h <<= 1) {
    Stage<double>(re, im, n, h, plan.wr.data() + h - 1,
                  plan.wi.data() + h - 1, split);
  }
  for (std::size_t i = 0; to != nullptr && i < n; ++i) {
    interleaved.Put(i, re[i], im[i]);
  }
}

void Transform(const Cplx* from, Cplx* to, bool inverse, double* re,
               double* im, std::size_t n) {
  static const auto build = CpuHasAvx2() ? FftAvx2 : FftBaseline;
  build(from, to, inverse, re, im, n);
}

// The calling thread's split scratch for Fft and Ifft.
struct SplitScratch {
  std::vector<double> re;
  std::vector<double> im;
};

SplitScratch& ThreadLocalScratch(std::size_t n) {
  thread_local SplitScratch scratch;
  if (scratch.re.size() < n) {
    scratch.re.resize(n);
    scratch.im.resize(n);
  }
  return scratch;
}

void InterleavedTransform(std::span<Cplx> data, bool inverse) {
  PlanFor(data.size());  // rejects a bad size before scratch grows
  SplitScratch& s = ThreadLocalScratch(data.size());
  Transform(data.data(), data.data(), inverse, s.re.data(), s.im.data(),
            data.size());
}

}  // namespace

std::span<const std::uint32_t> BitReversal(std::size_t n) {
  return PlanFor(n).reversal;
}

void FftBaseline(const Cplx* from, Cplx* to, bool inverse, double* re,
                 double* im, std::size_t n) {
  // 16-byte lanes: without AVX, GCC keeps a 32-byte vector in memory.
  TransformBody<V2>(from, to, inverse, re, im, n);
}

FREERIDER_TARGET_AVX2 void FftAvx2(const Cplx* from, Cplx* to, bool inverse,
                                   double* re, double* im, std::size_t n) {
  TransformBody<V4>(from, to, inverse, re, im, n);
}

void FftSplit(double* re, double* im, std::size_t n) {
  Transform(nullptr, nullptr, false, re, im, n);
}

void FftSplit(std::span<const Cplx> x, double* re, double* im) {
  Transform(x.data(), nullptr, false, re, im, x.size());
}

void Fft(std::span<Cplx> data) { InterleavedTransform(data, false); }

void Ifft(std::span<Cplx> data) {
  // conj, forward transform, conj and scale by 1/N, with the conj passes
  // folded into the first pass's gather and the last pass's output:
  // conj(x)·s is (re·s, (−im)·s), the bytes of the std::complex form.
  InterleavedTransform(data, true);
}

}  // namespace freerider::dsp
