#include "core/redundancy.h"

#include <array>

namespace freerider::core {
namespace {

constexpr std::array<std::size_t, 4> kWifiLadder = {4, 8, 16, 32};
constexpr std::array<std::size_t, 4> kZigbeeLadder = {4, 8, 16, 32};
constexpr std::array<std::size_t, 4> kBluetoothLadder = {18, 36, 72, 144};

}  // namespace

std::span<const std::size_t> RedundancyLadder(RadioType radio) {
  switch (radio) {
    case RadioType::kWifi:
      return kWifiLadder;
    case RadioType::kZigbee:
      return kZigbeeLadder;
    case RadioType::kBluetooth:
      return kBluetoothLadder;
  }
  return kWifiLadder;
}

}  // namespace freerider::core
