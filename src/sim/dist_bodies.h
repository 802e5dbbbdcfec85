// Named distributable campaign bodies for the multi-process sweep
// runtime (runtime/dist, DESIGN.md §12).
//
// A distributed campaign needs the identical task body on both sides
// of the worker pipe. This module owns that shared ground: the
// campaign presets (grids, seeds, radio tables) and the registry
// factories that rebuild each body from its (name, params, grid)
// triple, plus the coordinator-side wrappers the benches call.
//
// The wrappers hand DistRunner the same pure registry body the workers
// build, and a restore callback that is the one writer of results: the
// runner's ledger folds every settled payload through it in grid
// order, so a result slot is always filled from decode(encode(x)) —
// bit-exact by the hex-float payload grammar — in every mode
// (`--workers 0`, `--workers N`, degraded, resumed).
//
// Every coordinating or serving binary (bench_fig14_range,
// bench_stress_supervisor, tools/sweep_worker, tools/chaos_fleet)
// calls RegisterDistBodies() at the top of main, before any flag
// parser and before runtime::dist::HandleWorkerMode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/dist/coordinator.h"
#include "sim/stress.h"
#include "sim/sweep.h"

namespace freerider::sim {

/// One Fig. 14 exciter preset (the bench's table columns).
struct Fig14Radio {
  const char* name;
  const char* slug;  ///< Wire params of the "fig14_range" body.
  core::RadioType radio;
  double max_search_m;
};

/// The three exciters of Fig. 14, in table-column order.
const std::vector<Fig14Radio>& Fig14Radios();

/// The TX→tag axis of Fig. 14: {0.5, 1.0, ..., 4.0} m.
const std::vector<double>& Fig14TxTagDistances();

inline constexpr std::size_t kFig14Packets = 10;
inline constexpr std::uint64_t kFig14Seed = 141;
inline constexpr double kFig14PrrFloor = 0.5;

/// Register every distributable body — "fig14_range" (params: radio
/// slug), "stress_supervisor" (params: decimal rounds), "chaos_probe"
/// (params: "seed:rounds") — in the runtime/dist registry. Idempotent.
void RegisterDistBodies();

/// The checkpointed Fig. 14 sweep for one preset: campaign
/// "fig14_range_<slug>" seeded with kFig14Seed, sharded across
/// dist.workers subprocesses (0 = in-process through RecoveryRunner).
/// Output is byte-identical across worker counts.
std::vector<RangePoint> RangeSweepDistributed(
    const Fig14Radio& preset, runtime::RobustSweepOptions robust,
    runtime::dist::DistOptions dist,
    runtime::dist::DistReport* report = nullptr);

/// Distributed sibling of the bench_stress_supervisor seed×{on,off}
/// grid: `on`/`off` are resized to StressBenchSeeds().size() and
/// filled with the (restored-or-recomputed) campaign results.
void StressSweepDistributed(std::size_t rounds,
                            runtime::RobustSweepOptions robust,
                            runtime::dist::DistOptions dist,
                            std::vector<StressResult>* on,
                            std::vector<StressResult>* off,
                            runtime::dist::DistReport* report = nullptr);

/// Cheap MAC-campaign grid for the chaos harness: each task runs a
/// short Framed-Slotted-Aloha campaign on a counter-derived per-task
/// stream (pure in seed/point/trial). `digest` (optional) receives one
/// canonical hex-float line per task in grid order — two runs agree
/// iff their digests are equal byte for byte, which is exactly the
/// check tools/chaos_fleet makes between a chaos-ridden fleet run and
/// the in-process baseline.
runtime::dist::DistReport ChaosProbeDistributed(
    std::uint64_t seed, std::size_t rounds, const runtime::SweepGrid& grid,
    runtime::RobustSweepOptions robust, runtime::dist::DistOptions dist,
    std::string* digest = nullptr);

}  // namespace freerider::sim
