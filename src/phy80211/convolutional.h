// The 802.11 convolutional code (clause 17.3.5.6): constraint length 7,
// rate 1/2, generators g0 = 133o, g1 = 171o — this is Eq. 9 of the
// FreeRider paper. Higher rates puncture the 1/2 mother code to 2/3 or
// 3/4. The decoders are hard- and soft-decision Viterbi with erasure
// support for the punctured positions, built as branchless butterfly
// kernels that are bit-identical to the scalar reference trellises kept
// as oracles in tests/phy_fastpath_test.cpp.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"
#include "phy80211/params.h"

namespace freerider::phy80211 {

/// Rate-1/2 mother-code encoder. Output is interleaved pairs
/// (A0, B0, A1, B1, ...). The encoder starts in the all-zero state; the
/// caller appends 6 tail zeros to terminate the trellis.
BitVector ConvolutionalEncode(std::span<const Bit> bits);

/// Puncture a rate-1/2 coded stream to the target coding rate
/// (clause 17.3.5.7 puncturing patterns). kHalf is the identity.
BitVector Puncture(std::span<const Bit> coded, CodingRate rate);

/// Re-insert erasure markers (value 2) at punctured positions so the
/// Viterbi decoder can skip them. `num_mother_bits` is the length of
/// the original rate-1/2 stream.
BitVector Depuncture(std::span<const Bit> punctured, CodingRate rate,
                     std::size_t num_mother_bits);

/// Hard-decision Viterbi decoder for the mother code. Inputs are coded
/// bits with optional erasures (0, 1, or 2 = erased). Returns the
/// maximum-likelihood information sequence (length = coded.size() / 2).
/// Assumes the encoder started in state 0; traceback ends at the best
/// final state (callers that append tail bits get state-0 termination
/// implicitly, since the zero tail drives the trellis home). Runs
/// ViterbiDecodeInto on the calling thread's workspace.
BitVector ViterbiDecode(std::span<const Bit> coded_with_erasures);

/// Soft-decision Viterbi: inputs are per-coded-bit LLR-style metrics
/// (positive favours 1; 0.0 = erasure/punctured). ~2 dB more coding
/// gain than the hard decoder — what production 802.11 receivers do.
/// Runs ViterbiDecodeSoftInto on the calling thread's workspace.
BitVector ViterbiDecodeSoft(std::span<const double> llrs);

/// Re-insert 0.0 erasures at punctured positions of a soft stream.
std::vector<double> DepunctureSoft(std::span<const double> punctured,
                                   CodingRate rate,
                                   std::size_t num_mother_bits);

/// Number of coded (punctured) bits produced for n info bits at `rate`.
std::size_t CodedLength(std::size_t info_bits, CodingRate rate);

// --- Workspace variants ------------------------------------------------
//
// The kernels below are bit-identical to the scalar reference trellises:
// exact integer path metrics for the hard decoder, and an add-order-
// preserving multiply-select formulation for the soft decoder (exact for
// all finite LLRs; see DESIGN.md §13). phy_fastpath_test pins the
// equivalence exhaustively against its test-local oracles.

/// Branchless state-major hard decoder. `decisions` is caller-owned
/// scratch (steps x 64 survivor take-bit bytes, two 32-byte planes per
/// step) so repeated calls allocate nothing once warm; `out` is resized
/// to coded.size() / 2. Throws std::length_error above 2^28 steps,
/// where the integer path metrics could wrap (an 802.11 PSDU of 4095
/// bytes is about 2^15 steps).
void ViterbiDecodeInto(std::span<const Bit> coded_with_erasures,
                       std::vector<std::uint8_t>& decisions, BitVector& out);

/// Branchless state-major soft decoder (same scratch contract).
void ViterbiDecodeSoftInto(std::span<const double> llrs,
                           std::vector<std::uint8_t>& decisions,
                           BitVector& out);

/// Allocation-free Depuncture: writes into `out` (cleared first).
void DepunctureInto(std::span<const Bit> punctured, CodingRate rate,
                    std::size_t num_mother_bits, BitVector& out);

/// Allocation-free DepunctureSoft: writes into `out` (cleared first).
void DepunctureSoftInto(std::span<const double> punctured, CodingRate rate,
                        std::size_t num_mother_bits, std::vector<double>& out);

}  // namespace freerider::phy80211
