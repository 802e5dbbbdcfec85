// One MAC slot's sample-level chain, written once for every PHY:
//
//   excitation TX → scale to the receive power → dropout → each firing
//   tag's Translate, superposed → CFO → pad → AWGN → phase drift
//   (ZigBee) → interferer → PHY RX
//
// sim/link (one tag on any radio) and sim/multitag (any number of tags
// on 802.11g) are its only clients. A small per-PHY trait (WifiSlot,
// ZigbeeSlot, BleSlot) says how to build, receive and decode a frame,
// how much silence pads the capture and whether the receiver's phase
// noise applies; the chain itself is the same for all three.
//
// Every stage after TX is an in-place pass over buffers of one per-
// thread SlotWorkspace, in the arithmetic order of the allocating
// functions it replaces (channel::ToAbsolutePower, core::Translate,
// dsp::AddSignals' `0 + a + b`, FaultInjector::ApplyCfo,
// channel::AddThermalNoise), so the outputs are byte-identical to them
// (slot_chain_golden_test pins this) and a warm slot allocates no
// capture-sized buffer (slot_alloc_test pins that).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.h"
#include "common/types.h"
#include "core/translator.h"
#include "core/xor_decoder.h"
#include "dsp/workspace.h"
#include "impair/impair.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"
#include "phy802154/frame.h"
#include "phyble/frame.h"

namespace freerider::sim {

/// Per-thread scratch of the slot chain, like dsp::Workspace: one
/// excitation frame and one receive result per PHY (the frame scaled in
/// place once built), the receive capture and one reflection scratch
/// for the second and later tags of a collision. Every buffer is fully
/// overwritten before it is read, so reusing a workspace across slots is
/// bit-identical to fresh buffers; capacity is retained up to the
/// largest frame built on the thread.
///
/// Ownership: one SlotChain borrows the workspace for one slot and
/// returns it when it goes out of scope. A second chain on the same
/// workspace while the first is alive (re-entry) throws.
struct SlotWorkspace {
  phy80211::TxFrame wifi;
  phy802154::TxFrame zigbee;
  phyble::TxFrame ble;
  phy80211::RxResult wifi_rx;
  phy802154::RxResult zigbee_rx;
  phyble::RxResult ble_rx;
  IqBuffer capture;     ///< Lead pad | superposed reflections | trail pad.
  IqBuffer reflection;  ///< A later reflection before superposition.
  bool borrowed = false;
};

/// The calling thread's lazily-constructed slot workspace.
SlotWorkspace& ThreadLocalSlotWorkspace();

/// The receiver's random-walk phase drift (LO wander), in place: sample
/// n turns by the sum of sigma_per_sample * g over samples 0..n, one
/// rng.NextGaussian() g per sample. Nothing is drawn for sigma <= 0.
void ApplyPhaseDrift(std::span<Cplx> wave, double sigma_per_sample, Rng& rng);

/// 802.11g OFDM: 6 Mb/s excitation, 150 samples of silence each side.
struct WifiSlot {
  using Frame = phy80211::TxFrame;
  using Rx = phy80211::RxResult;
  static constexpr double kSampleRateHz = phy80211::kSampleRateHz;
  static constexpr std::size_t kPad = 150;
  static constexpr bool kPhaseNoise = false;
  static Frame& FrameIn(SlotWorkspace& ws) { return ws.wifi; }
  static Rx& RxIn(SlotWorkspace& ws) { return ws.wifi_rx; }
  static std::size_t PayloadBytes(std::size_t requested) { return requested; }
  static void Build(std::span<const std::uint8_t> payload, Frame& frame) {
    phy80211::BuildFrameInto(payload, {}, frame);
  }
  static double DurationS(const Frame& frame) {
    return phy80211::FrameDurationS(frame);
  }
  static void Receive(const IqBuffer& capture, Rx& rx) {
    phy80211::ReceiveFrame(capture, {}, dsp::ThreadLocalWorkspace(), rx);
  }
  static bool Decoded(const Rx& rx) { return rx.signal_ok; }
  static core::TagDecodeResult Decode(const Frame& frame, const Rx& rx,
                                      std::size_t redundancy) {
    return core::DecodeWifi(
        frame.data_bits, rx.data_bits,
        phy80211::ParamsFor(frame.rate).data_bits_per_symbol, redundancy);
  }
};

/// 802.15.4 O-QPSK: PSDU capped at 100 bytes, receiver phase noise on.
struct ZigbeeSlot {
  using Frame = phy802154::TxFrame;
  using Rx = phy802154::RxResult;
  static constexpr double kSampleRateHz = phy802154::kSampleRateHz;
  static constexpr std::size_t kPad = 200;
  static constexpr bool kPhaseNoise = true;
  static Frame& FrameIn(SlotWorkspace& ws) { return ws.zigbee; }
  static Rx& RxIn(SlotWorkspace& ws) { return ws.zigbee_rx; }
  static std::size_t PayloadBytes(std::size_t requested) {
    return std::min<std::size_t>(requested, 100);
  }
  static void Build(std::span<const std::uint8_t> payload, Frame& frame) {
    phy802154::BuildFrameInto(payload, frame);
  }
  static double DurationS(const Frame& frame) {
    return phy802154::FrameDurationS(frame);
  }
  static void Receive(const IqBuffer& capture, Rx& rx) {
    phy802154::ReceiveFrame(capture, {}, rx);
  }
  static bool Decoded(const Rx& rx) {
    return rx.detected && !rx.data_symbols.empty();
  }
  static core::TagDecodeResult Decode(const Frame& frame, const Rx& rx,
                                      std::size_t redundancy) {
    return core::DecodeZigbee(frame.data_symbols, rx.data_symbols, redundancy);
  }
};

/// BLE GFSK advertising: payload capped at the PDU maximum.
struct BleSlot {
  using Frame = phyble::TxFrame;
  using Rx = phyble::RxResult;
  static constexpr double kSampleRateHz = phyble::kSampleRateHz;
  static constexpr std::size_t kPad = 200;
  static constexpr bool kPhaseNoise = false;
  static Frame& FrameIn(SlotWorkspace& ws) { return ws.ble; }
  static Rx& RxIn(SlotWorkspace& ws) { return ws.ble_rx; }
  static std::size_t PayloadBytes(std::size_t requested) {
    return std::min<std::size_t>(requested, phyble::kMaxPayloadBytes);
  }
  static void Build(std::span<const std::uint8_t> payload, Frame& frame) {
    phyble::BuildFrameInto(payload, {}, frame);
  }
  static double DurationS(const Frame& frame) {
    return phyble::FrameDurationS(frame);
  }
  // phyble has no into-form, so this receive still allocates.
  static void Receive(const IqBuffer& capture, Rx& rx) {
    rx = phyble::ReceiveFrame(capture);
  }
  static bool Decoded(const Rx& rx) {
    return rx.detected && !rx.stream_bits.empty();
  }
  static core::TagDecodeResult Decode(const Frame& frame, const Rx& rx,
                                      std::size_t redundancy) {
    return core::DecodeBluetooth(frame.stream_bits, rx.stream_bits, redundancy);
  }
};

/// One slot through the chain. Call order: Excite, then Reflect once
/// per firing tag, then (if anything reflected) Receive.
template <class Phy>
class SlotChain {
 public:
  using Frame = typename Phy::Frame;
  using Rx = typename Phy::Rx;

  /// Borrow `ws` for one slot. The capture is `lead_pad` samples of
  /// silence, the superposed reflections, then `trail_pad` of silence.
  SlotChain(SlotWorkspace& ws, std::size_t lead_pad, std::size_t trail_pad);
  ~SlotChain();
  SlotChain(const SlotChain&) = delete;
  SlotChain& operator=(const SlotChain&) = delete;

  /// Build the excitation carrying `payload`, scale it in place to
  /// `rx_power_dbm` and apply the drawn dropout. Returns the (scaled)
  /// frame, valid until the workspace's next slot.
  const Frame& Excite(std::span<const std::uint8_t> payload,
                      double rx_power_dbm, impair::FaultInjector& injector,
                      const impair::FrameFaults& faults);
  bool excited() const { return excited_; }
  const Frame& frame() const { return Phy::FrameIn(ws_); }

  /// Superpose one tag's reflection of the excitation.
  void Reflect(std::span<const Bit> tag_bits,
               const core::TranslateConfig& tcfg);
  bool reflected() const { return reflections_ > 0; }

  /// Rotate the superposed reflections by the drawn CFO, then add
  /// thermal noise over the padded capture, the receiver's random-walk
  /// phase drift (if the PHY has it and `phase_noise_rw_rad_per_sample`
  /// is positive) and the interferer burst, and run the PHY receiver
  /// into the workspace's result for this PHY. The result stays valid
  /// until the workspace's next slot.
  const Rx& Receive(double noise_figure_db,
                    double phase_noise_rw_rad_per_sample, Rng& rng,
                    impair::FaultInjector& injector,
                    const impair::FrameFaults& faults);

 private:
  std::span<Cplx> Composite();

  SlotWorkspace& ws_;
  std::size_t lead_;
  std::size_t trail_;
  std::size_t samples_ = 0;
  std::size_t reflections_ = 0;
  bool excited_ = false;
};

extern template class SlotChain<WifiSlot>;
extern template class SlotChain<ZigbeeSlot>;
extern template class SlotChain<BleSlot>;

}  // namespace freerider::sim
