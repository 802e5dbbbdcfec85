// The benchmark's workloads. Each fills a RunResult with either the
// end-to-end metrics (untraced run) or the per-layer table (traced run).
#pragma once

#include <cstdint>

#include "harness.h"
#include "sim/multitag.h"

namespace perfbench {

/// `wifi_link` / `zigbee_link`: one sim::SimulateTagLink packet per step.
RunResult RunLinkWorkload(const RunOptions& options, bool zigbee);

/// `mac_campaign`: sim::FullStackSim campaigns stepped round by round on
/// runtime::SweepEngine.
RunResult RunMacCampaign(const RunOptions& options);

/// The configuration of `mac_campaign`'s campaign number `task`.
freerider::sim::FullStackConfig CampaignConfig(std::uint64_t seed,
                                               std::uint64_t task);

}  // namespace perfbench
