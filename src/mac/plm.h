// Packet-length modulation (paper §2.4.2): the transmitter-to-tag
// downlink. A 0 bit is a packet of duration L0, a 1 bit a packet of
// duration L1; the tag measures durations with its envelope detector
// and ignores pulses that match neither (ambient traffic). Messages are
// delimited by the PLM preamble, matched against a circular buffer of
// received bits (paper §2.4.1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ring_buffer.h"
#include "common/types.h"
#include "tag/envelope_detector.h"

namespace freerider::mac {

struct PlmConfig {
  /// Bit durations sit in the valley of the ambient packet-duration
  /// distribution (Fig. 3): most traffic is <500 µs or >1.5 ms.
  double l0_s = 700e-6;
  double l1_s = 1100e-6;
  /// Pulse-width acceptance bound (the paper uses 25 µs).
  double tolerance_s = 25e-6;
  /// Idle gap between PLM packets (DIFS-ish).
  double gap_s = 60e-6;
};

/// Approximate PLM downlink bit rate for a config.
double PlmBitRateBps(const PlmConfig& config = {});

/// Encode message bits as a pulse train starting at `start_s` with the
/// given received power at the tag.
std::vector<tag::AirPulse> EncodePlm(std::span<const Bit> bits, double start_s,
                                     double power_dbm,
                                     const PlmConfig& config = {});

/// Classify one measured pulse: 0, 1, or nullopt (noise / ambient).
std::optional<Bit> ClassifyPulse(const tag::MeasuredPulse& pulse,
                                 const PlmConfig& config = {});

/// Decode a train of measured pulses into bits, dropping unclassified
/// pulses (this is what makes PLM robust to ambient traffic).
BitVector DecodePlm(std::span<const tag::MeasuredPulse> pulses,
                    const PlmConfig& config = {});

/// The PLM message preamble (8 bits).
const BitVector& PlmPreamble();

/// Upper bound on a PLM message payload. The control payload is 16
/// bits; anything beyond this is a corrupt or hostile configuration
/// and is clamped so the receiver can never be parked collecting an
/// unbounded (or never-completing zero-length) message.
inline constexpr std::size_t kMaxPlmPayloadBits = 1024;

// Extended announcement payload layout — the one description of the
// versioned PLM extension; SealPlmExtension and OpenPlmExtension below
// are the only code that writes or reads its header and CRC. The first
// 16 bits are the legacy announcement — a legacy PlmMessageReceiver(16)
// collects exactly those and never sees the extension, which is what
// keeps old tags parsing new announcements' prefix. After the prefix
// comes a fixed 12-bit extension header whose semantics are version-
// independent by contract (so receivers can skip extensions they do
// not understand without losing bit sync):
//
//   [0..15]   legacy prefix: slots (8) | sequence (8)
//   [16..19]  extension version (4 bits, LSB-first)
//   [20..27]  extension body length in bits (8 bits, LSB-first)
//   [28..28+len)       version-defined body
//   [28+len..28+len+8) CRC-8 (common/crc.h Crc8) over bits 16..28+len
//                      (header + body), LSB-first
//
// Bodies: version 1 is a run of ACK blocks (transport/ack.h); version 2
// is two block counts, ACK blocks, then health blocks (health/wire.h).
inline constexpr std::size_t kPlmExtHeaderBits = 12;
inline constexpr std::size_t kPlmExtCrcBits = 8;
/// Longest possible extended payload: prefix + header + 255-bit body +
/// CRC. Everything a well-formed coordinator emits fits in this.
inline constexpr std::size_t kMaxExtendedPayloadBits =
    16 + kPlmExtHeaderBits + 255 + kPlmExtCrcBits;

/// Append a sealed extension to a 16-bit announcement prefix: version,
/// body length, body, CRC-8. The body must fit the 8-bit length field
/// (at most 255 bits); the version must fit its 4 bits.
BitVector SealPlmExtension(BitVector prefix, std::uint8_t version,
                           std::span<const Bit> body);

/// An opened extension: its version and its body, a view into the
/// payload it was opened from.
struct PlmExtension {
  std::uint8_t version = 0;
  std::span<const Bit> body;
};

/// Open the extension of an announcement payload longer than its 16-bit
/// prefix. std::nullopt when the payload is shorter than prefix +
/// header + CRC or longer than kMaxExtendedPayloadBits, when the length
/// field does not account for every bit (truncated or padded), or when
/// the CRC-8 mismatches. The version is not judged here: whether a body
/// is understood is the caller's decision.
std::optional<PlmExtension> OpenPlmExtension(std::span<const Bit> payload);

/// Tag-side message receiver: push decoded bits one at a time; when the
/// newest bits match the preamble, the following `payload_bits` bits
/// form a message. `payload_bits` is clamped to [1, kMaxPlmPayloadBits].
///
/// The extended mode (ExtendedReceiver()) collects variable-length
/// announcements instead: prefix + extension header first, then as many
/// body/CRC bits as the header's length field declares. The length
/// field is 8 bits, so a hostile header can park the receiver for at
/// most kMaxExtendedPayloadBits — validation (version, block structure,
/// CRC) is the parser's job, not this class's.
class PlmMessageReceiver {
 public:
  explicit PlmMessageReceiver(std::size_t payload_bits);

  /// Variable-length receiver for extended announcements.
  static PlmMessageReceiver ExtendedReceiver();

  /// Returns the completed message payload when one finishes.
  std::optional<BitVector> PushBit(Bit bit);

 private:
  std::size_t payload_bits_;
  RingBuffer<Bit> history_;
  bool collecting_ = false;
  bool extended_ = false;
  /// Extended mode: target grows once the length field is readable.
  std::size_t target_bits_ = 0;
  BitVector pending_;
};

/// Build a full PLM message: preamble + payload bits.
BitVector BuildPlmMessage(std::span<const Bit> payload);

}  // namespace freerider::mac
