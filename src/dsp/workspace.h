// Per-thread scratch arena for the allocation-free 802.11 fast paths.
//
// Every buffer the 802.11 receive chain needs between "raw samples in"
// and "decoded bits out", and every intermediate stream of the frame
// builder, lives here, so the steady-state decode (or build) of a
// frame performs zero heap allocations: each vector is resized (or
// cleared and refilled) in place, and after the first frame through a
// given workspace all capacities are warm. The workspace carries no
// state between frames — every field is fully overwritten before it is
// read on each call — so reusing one workspace across frames is
// bit-identical to using a fresh one (phy_fastpath_test pins this).
//
// Threading: a Workspace is NOT thread-safe; use one per thread. The
// public PHY entry points that do not take a workspace use
// ThreadLocalWorkspace(), which gives every executor worker its own
// arena and keeps the sweep runtime's threads-1-vs-8 byte-identity
// intact (scratch contents never influence results, only reuse).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace freerider::dsp {

struct Workspace {
  // --- Preamble scan (float filter input + scan state) ---
  std::vector<float> scan_fre;      ///< Prescaled Re of the rx buffer, float.
  std::vector<float> scan_fim;      ///< Prescaled Im of the rx buffer, float.
  std::vector<float> scan_fest;     ///< Filter energies, then estimates.
  std::vector<double> win_energy;   ///< Sliding 64-sample window energy.
  std::vector<double> ncorr;        ///< Exact ncorr or an upper bound on it.
  std::vector<std::uint8_t> scan_keep;  ///< Positions the screen kept.

  // --- Whole-buffer working copies (CFO mix output) ---
  IqBuffer rx_work;                 ///< CFO-corrected receive buffer.

  // --- Channel estimation / per-symbol demodulation ---
  IqBuffer chan;                    ///< 64-bin channel estimate.
  IqBuffer ltf_y1, ltf_y2;          ///< FFTs of the two long symbols.
  IqBuffer sym_bins;                ///< 64 FFT bins of one symbol.
  IqBuffer sym_data;                ///< 48 equalized data points.
  IqBuffer sym_ref;                 ///< Nearest constellation points (tracker).
  BitVector sym_hard;               ///< Hard bits of one symbol.
  BitVector sym_deint;              ///< Deinterleaved bits of one symbol.
  std::vector<double> sym_llrs;     ///< Soft demap output of one symbol.
  std::vector<double> sym_soft_deint;

  // --- Frame-scope coded/decoded streams ---
  BitVector coded;                  ///< Concatenated hard coded bits.
  BitVector mother;                 ///< Depunctured rate-1/2 stream.
  std::vector<double> soft_coded;   ///< Concatenated soft coded bits.
  std::vector<double> soft_mother;  ///< Depunctured soft stream.
  BitVector decoded;                ///< Viterbi output (scrambled bits).

  // --- Viterbi scratch ---
  std::vector<std::uint8_t> vit_decisions;  ///< steps x 64 survivor bytes.

  // --- 802.11 TX (BuildFrameInto) ---
  BitVector tx_signal;              ///< SIGNAL field bits.
  BitVector tx_scrambled;           ///< Scrambled DATA field bits.
  BitVector tx_mother;              ///< Rate-1/2 encoder output.
  BitVector tx_coded;               ///< Punctured coded bits.
  BitVector tx_interleaved;         ///< Interleaved coded bits.
  IqBuffer tx_points;               ///< Mapped constellation points.
};

/// The calling thread's lazily-constructed scratch arena.
Workspace& ThreadLocalWorkspace();

}  // namespace freerider::dsp
