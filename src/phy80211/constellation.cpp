#include "phy80211/constellation.h"

#include <cmath>
#include <stdexcept>

namespace freerider::phy80211 {
namespace {

constexpr double kQpskNorm = 0.7071067811865476;        // 1/sqrt(2)
constexpr double kQam16Norm = 0.31622776601683794;      // 1/sqrt(10)
constexpr double kQam64Norm = 0.1543033499620919;       // 1/sqrt(42)

// Gray-coded PAM level for the in-phase/quadrature bit groups, per
// clause 17.3.5.8 tables: b=0 maps negative-most.
double Pam2(Bit b0) { return b0 ? 1.0 : -1.0; }

double Pam4(Bit b0, Bit b1) {
  // (b0 b1): 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
  if (!b0 && !b1) return -3.0;
  if (!b0 && b1) return -1.0;
  if (b0 && b1) return 1.0;
  return 3.0;
}

double Pam8(Bit b0, Bit b1, Bit b2) {
  // (b0 b1 b2): 000 -3 ... standard: 000→-7,001→-5,011→-3,010→-1,
  // 110→+1,111→+3,101→+5,100→+7
  const int code = (b0 << 2) | (b1 << 1) | b2;
  switch (code) {
    case 0b000: return -7.0;
    case 0b001: return -5.0;
    case 0b011: return -3.0;
    case 0b010: return -1.0;
    case 0b110: return 1.0;
    case 0b111: return 3.0;
    case 0b101: return 5.0;
    case 0b100: return 7.0;
  }
  return 0.0;
}

Bit Slice2(double v) { return static_cast<Bit>(v >= 0.0); }

void Slice4(double v, Bit& b0, Bit& b1) {
  // Inverse of Pam4 by nearest level.
  if (v < -2.0) { b0 = 0; b1 = 0; }
  else if (v < 0.0) { b0 = 0; b1 = 1; }
  else if (v < 2.0) { b0 = 1; b1 = 1; }
  else { b0 = 1; b1 = 0; }
}

void Slice8(double v, Bit& b0, Bit& b1, Bit& b2) {
  int level;  // nearest odd level index 0..7 for -7..+7
  if (v < -6.0) level = 0;
  else if (v < -4.0) level = 1;
  else if (v < -2.0) level = 2;
  else if (v < 0.0) level = 3;
  else if (v < 2.0) level = 4;
  else if (v < 4.0) level = 5;
  else if (v < 6.0) level = 6;
  else level = 7;
  static constexpr int kCodes[8] = {0b000, 0b001, 0b011, 0b010,
                                    0b110, 0b111, 0b101, 0b100};
  const int code = kCodes[level];
  b0 = static_cast<Bit>((code >> 2) & 1);
  b1 = static_cast<Bit>((code >> 1) & 1);
  b2 = static_cast<Bit>(code & 1);
}

}  // namespace

std::size_t BitsPerSymbol(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk: return 1;
    case Modulation::kQpsk: return 2;
    case Modulation::kQam16: return 4;
    case Modulation::kQam64: return 6;
  }
  return 1;
}

IqBuffer MapBits(std::span<const Bit> bits, Modulation mod) {
  IqBuffer out;
  MapBitsInto(bits, mod, out);
  return out;
}

void MapBitsInto(std::span<const Bit> bits, Modulation mod, IqBuffer& out) {
  const std::size_t bps = BitsPerSymbol(mod);
  if (bits.size() % bps != 0) {
    throw std::invalid_argument("MapBits: bit count not a multiple of bps");
  }
  out.clear();
  out.reserve(bits.size() / bps);
  for (std::size_t i = 0; i < bits.size(); i += bps) {
    switch (mod) {
      case Modulation::kBpsk:
        out.emplace_back(Pam2(bits[i]), 0.0);
        break;
      case Modulation::kQpsk:
        out.emplace_back(Pam2(bits[i]) * kQpskNorm, Pam2(bits[i + 1]) * kQpskNorm);
        break;
      case Modulation::kQam16:
        out.emplace_back(Pam4(bits[i], bits[i + 1]) * kQam16Norm,
                         Pam4(bits[i + 2], bits[i + 3]) * kQam16Norm);
        break;
      case Modulation::kQam64:
        out.emplace_back(Pam8(bits[i], bits[i + 1], bits[i + 2]) * kQam64Norm,
                         Pam8(bits[i + 3], bits[i + 4], bits[i + 5]) * kQam64Norm);
        break;
    }
  }
}

BitVector DemapSymbols(std::span<const Cplx> symbols, Modulation mod) {
  BitVector out;
  DemapSymbolsInto(symbols, mod, out);
  return out;
}

void DemapSymbolsInto(std::span<const Cplx> symbols, Modulation mod,
                      BitVector& out) {
  out.clear();
  out.reserve(symbols.size() * BitsPerSymbol(mod));
  for (const Cplx& sym : symbols) {
    switch (mod) {
      case Modulation::kBpsk:
        out.push_back(Slice2(sym.real()));
        break;
      case Modulation::kQpsk:
        out.push_back(Slice2(sym.real()));
        out.push_back(Slice2(sym.imag()));
        break;
      case Modulation::kQam16: {
        Bit b0, b1, b2, b3;
        Slice4(sym.real() / kQam16Norm, b0, b1);
        Slice4(sym.imag() / kQam16Norm, b2, b3);
        out.push_back(b0);
        out.push_back(b1);
        out.push_back(b2);
        out.push_back(b3);
        break;
      }
      case Modulation::kQam64: {
        Bit b[6];
        Slice8(sym.real() / kQam64Norm, b[0], b[1], b[2]);
        Slice8(sym.imag() / kQam64Norm, b[3], b[4], b[5]);
        for (Bit bit : b) out.push_back(bit);
        break;
      }
    }
  }
}

void DemapSoftInto(std::span<const Cplx> symbols, Modulation mod,
                   std::vector<double>& llrs) {
  llrs.clear();
  llrs.reserve(symbols.size() * BitsPerSymbol(mod));
  // Max-log LLRs on the normalized PAM axis; the gray mappings above
  // give the closed forms: sign bit = v, "inner" bit = 2 - |v| (16-QAM)
  // or 4 - |v| (64-QAM outer), 2 - ||v| - 4| (64-QAM inner).
  auto pam2 = [&](double v) { llrs.push_back(v); };
  auto pam4 = [&](double v) {
    llrs.push_back(v);
    llrs.push_back(2.0 - std::abs(v));
  };
  auto pam8 = [&](double v) {
    llrs.push_back(v);
    llrs.push_back(4.0 - std::abs(v));
    llrs.push_back(2.0 - std::abs(std::abs(v) - 4.0));
  };
  for (const Cplx& sym : symbols) {
    switch (mod) {
      case Modulation::kBpsk:
        pam2(sym.real());
        break;
      case Modulation::kQpsk:
        pam2(sym.real() * 1.4142135623730951);
        pam2(sym.imag() * 1.4142135623730951);
        break;
      case Modulation::kQam16:
        pam4(sym.real() / kQam16Norm);
        pam4(sym.imag() / kQam16Norm);
        break;
      case Modulation::kQam64:
        pam8(sym.real() / kQam64Norm);
        pam8(sym.imag() / kQam64Norm);
        break;
    }
  }
}

bool IsValidConstellationPoint(Cplx point, Modulation mod, double tolerance) {
  // Round-trip through the demapper: the nearest valid point.
  const BitVector bits = DemapSymbols(std::span<const Cplx>{&point, 1}, mod);
  const IqBuffer remapped = MapBits(bits, mod);
  return std::abs(remapped[0] - point) <= tolerance;
}

}  // namespace freerider::phy80211
