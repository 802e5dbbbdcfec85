// Experiment sweeps for the evaluation figures: distance sweeps
// (Figs. 10-13) and the 2-D operational-regime sweep (Fig. 14).
//
// Since PR 3 every sweep executes its points as a task graph on the
// parallel runtime (runtime::SweepEngine over the process-wide
// work-stealing executor). Determinism: per-point seeds are drawn from
// the master stream *serially, up front, in point order* — exactly the
// values the historical serial loop's rng.Split() produced — and each
// point owns its Rng from that seed, so the results are bit-identical
// to the pre-runtime serial path at every --threads value.
#pragma once

#include <string>
#include <vector>

#include "common/table.h"
#include "runtime/recovery.h"
#include "runtime/sweep_engine.h"
#include "sim/link.h"

namespace freerider::sim {

/// Table rendering moved to common/table.h so the runtime layer can
/// emit telemetry tables; this alias keeps every existing call site.
using TablePrinter = freerider::TablePrinter;

struct DistancePoint {
  double tag_to_rx_m = 0.0;
  LinkStats stats;
};

/// Sweep the tag→receiver distance with adaptive redundancy (rate
/// adaptation on), `packets` excitation frames per point, through
/// runtime::RecoveryRunner on the default executor, persisting each
/// completed point to
/// `robust.checkpoint_path` and (with `robust.resume`) restoring
/// completed points instead of recomputing them. Restored LinkStats
/// are bit-identical to recomputed ones (hex-float serialization), so
/// the returned points — and everything printed from them — match an
/// uninterrupted run byte for byte. `robust.campaign` is filled in
/// from `slug` and `seed` by this function.
std::vector<DistancePoint> DistanceSweepRobust(
    core::RadioType radio, const channel::Deployment& deployment,
    const std::vector<double>& distances, std::size_t packets,
    std::uint64_t seed, const std::string& slug,
    runtime::RobustSweepOptions robust,
    runtime::RobustSweepReport* report = nullptr);

/// Bit-exact LinkStats (de)serialization for checkpoint payloads.
std::string SerializeLinkStats(const LinkStats& stats);
bool DeserializeLinkStats(const std::string& payload, LinkStats* stats);

struct RangePoint {
  double tx_to_tag_m = 0.0;
  double max_tag_to_rx_m = 0.0;
};

/// Fig. 14: for each TX→tag distance, the largest tag→RX distance at
/// which the link sustains (packet reception rate >= `prr_floor`).
/// Each TX→tag point (an inherently sequential bracket+bisection) is
/// one parallel task owning a per-point child stream; probe streams
/// derive from that child, not from the shared master (the one
/// documented rng-ownership change of the runtime port — see
/// DESIGN.md §7 for the expected drift).
std::vector<RangePoint> RangeSweep(core::RadioType radio,
                                   const std::vector<double>& tx_tag_distances,
                                   double max_search_m, std::size_t packets,
                                   std::uint64_t seed, double prr_floor = 0.5,
                                   runtime::SweepReport* report = nullptr);

/// One Fig. 14 point: the largest tag→RX distance (m) sustaining
/// PRR >= `prr_floor` at TX→tag distance `d1`, via the exponential
/// bracket + bisection. A pure function of its arguments (every probe
/// stream Split()s off a point-local Rng seeded with `point_seed`) —
/// the shared kernel of RangeSweep and the distributed "fig14_range"
/// body (sim/dist_bodies.h), so both compute bit-identical points by
/// construction.
double RangeSearchPoint(core::RadioType radio, double d1,
                        std::uint64_t point_seed, double max_search_m,
                        std::size_t packets, double prr_floor);

}  // namespace freerider::sim
