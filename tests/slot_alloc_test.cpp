// Allocation contract of the slot chain (sim/slot_chain.h): once the
// calling thread's workspaces are warm, a slot allocates no capture-
// sized buffer. SimulateTagLink on each radio, with and without every
// channel fault, and FullStackSim::StepRound with collisions make zero
// heap allocations of 64 KiB or more. (A capture is 170–350 KB on these
// links; the small per-slot vectors — payload bytes, tag bits, decoded
// streams — stay well below the threshold and are not counted.) The
// receive step of a warm WiFi or ZigBee slot allocates nothing at all:
// it decodes into the workspace's result.
//
// This binary replaces the global operator new to count large requests,
// so it must stay its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "common/rng.h"
#include "sim/link.h"
#include "sim/multitag.h"
#include "sim/slot_chain.h"

namespace {

constexpr std::size_t kLargeBytes = 64 * 1024;
std::atomic<std::size_t> g_large_allocs{0};
std::atomic<std::size_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size >= kLargeBytes) g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size >= kLargeBytes) g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

std::size_t LargeAllocs() {
  return g_large_allocs.load(std::memory_order_relaxed);
}

std::size_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace freerider {
namespace {

sim::LinkConfig OnePacketLink(core::RadioType radio, bool faults) {
  sim::LinkConfig c;
  c.radio = radio;
  c.profile = sim::DefaultProfile(radio);
  c.profile.sensitivity_dbm = -150.0;  // every packet reaches the chain
  c.tag_to_rx_m = 10.0;
  c.num_packets = 1;
  if (faults) {
    c.impairments.cfo.enabled = true;
    c.impairments.cfo.cfo_hz = 300.0;
    c.impairments.cfo.tag_clock_ppm = 1000.0;
    c.impairments.cfo.start_slip_sigma_samples = 2.0;
    c.impairments.interferer.enabled = true;
    c.impairments.interferer.burst_probability = 1.0;
    c.impairments.dropout.enabled = true;
    c.impairments.dropout.dropout_probability = 1.0;
  }
  return c;
}

TEST(SlotAlloc, WarmLinkSlotsAllocateNoCaptureBuffer) {
  for (const core::RadioType radio :
       {core::RadioType::kWifi, core::RadioType::kZigbee,
        core::RadioType::kBluetooth}) {
    for (const bool faults : {false, true}) {
      const sim::LinkConfig config = OnePacketLink(radio, faults);
      Rng rng(11);
      sim::SimulateTagLink(config, rng);  // Two warm-up slots.
      sim::SimulateTagLink(config, rng);
      for (int slot = 0; slot < 3; ++slot) {
        const std::size_t before = LargeAllocs();
        const sim::LinkStats stats = sim::SimulateTagLink(config, rng);
        EXPECT_EQ(LargeAllocs() - before, 0u)
            << "radio " << static_cast<int>(radio) << " faults " << faults
            << " slot " << slot;
        EXPECT_EQ(stats.packets_attempted, 1u);
      }
    }
  }
}

// One slot of `config`'s radio through the chain by hand; returns the
// heap allocations its Receive step made.
template <class Phy>
std::size_t ReceiveStepAllocs(const sim::LinkConfig& config, Rng& rng,
                              impair::FaultInjector& injector) {
  const impair::FrameFaults faults = injector.DrawFrame();
  core::TranslateConfig tcfg;
  tcfg.radio = config.radio;
  tcfg.tag_clock_ppm = faults.tag_clock_ppm;
  tcfg.start_slip_samples = faults.start_slip_samples;
  sim::SlotChain<Phy> chain(sim::ThreadLocalSlotWorkspace(), Phy::kPad,
                            Phy::kPad);
  const Bytes payload =
      RandomBytes(rng, config.profile.excitation_payload_bytes);
  const typename Phy::Frame& frame = chain.Excite(
      std::span(payload).first(Phy::PayloadBytes(payload.size())), -60.0,
      injector, faults);
  const BitVector tag_bits =
      RandomBits(rng, core::TagBitCapacity(frame.waveform.size(), tcfg));
  chain.Reflect(tag_bits, tcfg);
  const std::size_t before = Allocs();
  const typename Phy::Rx& rx =
      chain.Receive(config.profile.noise_figure_db,
                    config.profile.phase_noise_rw_rad_per_sample, rng,
                    injector, faults);
  const std::size_t made = Allocs() - before;
  EXPECT_TRUE(rx.detected);
  return made;
}

TEST(SlotAlloc, WarmLinkSlotReceiveAllocatesNothing) {
  for (const core::RadioType radio :
       {core::RadioType::kWifi, core::RadioType::kZigbee}) {
    for (const bool faults : {false, true}) {
      const sim::LinkConfig config = OnePacketLink(radio, faults);
      impair::FaultInjector injector(config.impairments, 17);
      Rng rng(19);
      for (int slot = 0; slot < 12; ++slot) {
        const std::size_t made =
            radio == core::RadioType::kWifi
                ? ReceiveStepAllocs<sim::WifiSlot>(config, rng, injector)
                : ReceiveStepAllocs<sim::ZigbeeSlot>(config, rng, injector);
        // Four warm-up slots: a result vector may still grow once when
        // a later frame decodes longer than any before it.
        if (slot >= 4) {
          EXPECT_EQ(made, 0u) << "radio " << static_cast<int>(radio)
                              << " faults " << faults << " slot " << slot;
        }
      }
    }
  }
}

TEST(SlotAlloc, WarmFullStackRoundsAllocateNoCaptureBuffer) {
  // The perfbench mac_campaign shape: six tags, one a babbler, so
  // reflections collide and the superposition path runs.
  sim::FullStackConfig c;
  c.num_tags = 6;
  c.rounds = 40;
  c.transport.enabled = true;
  c.supervisor.enabled = true;
  c.supervisor.policing_enabled = true;
  c.policing.enabled = true;
  c.dynamics.gilbert.enabled = true;
  c.rogue.tags.resize(c.num_tags);
  c.rogue.tags[5].model = impair::RogueModel::kBabbler;
  Rng rng(3);
  sim::FullStackSim sim(c, rng);
  // Warm-up: two rounds, and on until a collision has sized the
  // reflection scratch (capacity is kept from then on).
  std::size_t round = 0;
  for (; round < 2 || sim::ThreadLocalSlotWorkspace().reflection.empty();
       ++round) {
    ASSERT_LT(round, c.rounds) << "no collision to warm the workspace";
    sim.StepRound();
  }
  std::size_t slots = 0;
  for (int i = 0; i < 10; ++i, ++round) {
    const std::size_t before = LargeAllocs();
    slots += sim.StepRound().slots;
    EXPECT_EQ(LargeAllocs() - before, 0u) << "round " << round;
  }
  EXPECT_GT(slots, 10u);
}

TEST(SlotAlloc, ReentrantBorrowThrows) {
  sim::SlotWorkspace ws;
  {
    sim::SlotChain<sim::WifiSlot> outer(ws, 0, 0);
    EXPECT_TRUE(ws.borrowed);
    EXPECT_THROW((sim::SlotChain<sim::ZigbeeSlot>(ws, 0, 0)),
                 std::logic_error);
    EXPECT_TRUE(ws.borrowed);
  }
  EXPECT_FALSE(ws.borrowed);
  sim::SlotChain<sim::BleSlot> next(ws, 0, 0);  // Returned: borrowable.
  EXPECT_THROW(next.Reflect({}, {}), std::logic_error);
}

}  // namespace
}  // namespace freerider
