#include "phy80211/interleaver.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace freerider::phy80211 {
namespace {

// Forward permutation: source index k -> destination index j.
std::vector<std::size_t> Permutation(const RateParams& rate) {
  const std::size_t ncbps = rate.coded_bits_per_symbol;
  const std::size_t s = std::max<std::size_t>(rate.bits_per_subcarrier / 2, 1);
  std::vector<std::size_t> perm(ncbps);
  for (std::size_t k = 0; k < ncbps; ++k) {
    // First permutation: adjacent coded bits to nonadjacent subcarriers.
    const std::size_t i = (ncbps / 16) * (k % 16) + k / 16;
    // Second permutation: alternate significance within a subcarrier.
    const std::size_t j =
        s * (i / s) + (i + ncbps - (16 * i / ncbps)) % s;
    perm[k] = j;
  }
  return perm;
}

const std::vector<std::size_t>& CachedPermutation(const RateParams& rate) {
  // thread_local: the lazy fill races when sweep tasks interleave
  // concurrently on the runtime executor; 8 small vectors per thread
  // is cheaper than a lock on the per-symbol hot path.
  thread_local std::vector<std::size_t> cache[8];
  auto& p = cache[static_cast<std::size_t>(rate.rate)];
  if (p.empty()) p = Permutation(rate);
  return p;
}

}  // namespace

BitVector InterleaveSymbol(std::span<const Bit> bits, const RateParams& rate) {
  if (bits.size() != rate.coded_bits_per_symbol) {
    throw std::invalid_argument("InterleaveSymbol: wrong symbol size");
  }
  const auto& perm = CachedPermutation(rate);
  BitVector out(bits.size());
  for (std::size_t k = 0; k < bits.size(); ++k) out[perm[k]] = bits[k];
  return out;
}

void DeinterleaveSymbolInto(std::span<const Bit> bits, const RateParams& rate,
                            BitVector& out) {
  if (bits.size() != rate.coded_bits_per_symbol) {
    throw std::invalid_argument("DeinterleaveSymbolInto: wrong symbol size");
  }
  const auto& perm = CachedPermutation(rate);
  out.resize(bits.size());
  for (std::size_t k = 0; k < bits.size(); ++k) out[k] = bits[perm[k]];
}

void DeinterleaveSymbolSoftInto(std::span<const double> values,
                                const RateParams& rate,
                                std::vector<double>& out) {
  if (values.size() != rate.coded_bits_per_symbol) {
    throw std::invalid_argument("DeinterleaveSymbolSoft: wrong symbol size");
  }
  const auto& perm = CachedPermutation(rate);
  out.resize(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) out[k] = values[perm[k]];
}

BitVector InterleaveStream(std::span<const Bit> bits, const RateParams& rate) {
  BitVector out;
  InterleaveStreamInto(bits, rate, out);
  return out;
}

void InterleaveStreamInto(std::span<const Bit> bits, const RateParams& rate,
                          BitVector& out) {
  const std::size_t ncbps = rate.coded_bits_per_symbol;
  if (bits.size() % ncbps != 0) {
    throw std::invalid_argument("stream length not a multiple of N_CBPS");
  }
  const auto& perm = CachedPermutation(rate);
  out.resize(bits.size());
  for (std::size_t off = 0; off < bits.size(); off += ncbps) {
    for (std::size_t k = 0; k < ncbps; ++k) out[off + perm[k]] = bits[off + k];
  }
}

}  // namespace freerider::phy80211
