// Coordinator side of the fault-tolerant multi-process sweep runtime
// (DESIGN.md §12).
//
// DistRunner shards a SweepGrid across N worker subprocesses while
// preserving the repo's determinism contract: stdout and the
// BENCH/METRICS/TRACE artifacts of a `--workers N` run are
// byte-identical to the single-process `--workers 0` path, at any N,
// under any schedule of worker deaths. The argument is structural:
//
//   1. a task's result payload is a pure function of (body, point,
//      trial) — the body is built from the same (name, params, grid)
//      triple on both sides of the pipe;
//   2. payloads ride CRC-framed pipes and checkpoints bit-exactly
//      (PayloadWriter hex-float grammar), and a corrupt frame is
//      killed at the CRC, never folded;
//   3. accepted results fold through the caller's restore callback
//      serially in grid-index order, after the barrier (TaskLedger's
//      fold, the same one RecoveryRunner runs) — arrival order,
//      duplicate results, retries and respawns can reorder *work*,
//      never *reduction*.
//
// Failure handling: worker heartbeats renew lease deadlines on the
// coordinator's monotonic clock; a silent worker (SIGKILL, SIGSTOP,
// wedged) expires, is killed and respawned within a bounded budget,
// and its leases re-dispatch with exponential backoff. Stragglers get
// speculative duplicate leases (first result wins). Body-level
// failures follow RecoveryRunner semantics: throwing tasks retry up
// to max_retries then quarantine (or cancel in the strict default).
// When the fleet cannot be spawned at all — or dies beyond its
// respawn budget — the runner degrades to in-process execution, so a
// campaign always completes with the same bytes.
//
// Checkpointing and reduction are not the coordinator's: resume, the
// snapshot cadence, the crash hook, the grid-order fold (a payload
// restore rejects is recomputed once in-process, then quarantined) and
// the final accounting are the same runtime::TaskLedger RecoveryRunner
// uses (runtime/recovery.h). The coordinator owns dispatch
// (LeaseTable) and the fleet.
//
// stdout belongs to the bench: the coordinator writes only to stderr.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "runtime/recovery.h"
#include "runtime/sweep_engine.h"

namespace freerider::runtime::dist {

struct DistOptions {
  /// Worker subprocesses; 0 = run in-process (identical to handing
  /// the sweep straight to RecoveryRunner).
  std::size_t workers = 0;
  /// Registry name + params the workers build their body from.
  std::string body_name;
  std::string params;
  /// Worker binary to exec; empty = /proc/self/exe (the bench serves
  /// itself). Overridden by FREERIDER_WORKER_BIN.
  std::string worker_bin;
  /// A worker silent for this long is dead: SIGKILL + respawn, leases
  /// re-dispatched. (FREERIDER_DIST_LEASE_S)
  double lease_timeout_s = 20.0;
  /// Extra allowance for exec+handshake before the first heartbeat.
  double spawn_grace_s = 20.0;
  /// Speculatively duplicate a lease older than this when a worker
  /// has nothing else to do; 0 disables. (FREERIDER_DIST_SPECULATE_S)
  double speculate_after_s = 10.0;
  /// Fleet-wide respawn budget; exhausted = degrade to in-process.
  /// (FREERIDER_DIST_RESPAWNS)
  std::size_t max_respawns = 8;
};

/// The most worker subprocesses `--workers N` or FREERIDER_WORKERS may
/// ask for; a larger count is a usage error.
inline constexpr std::size_t kMaxWorkers = 256;

/// Consume `--workers N` / `--workers=N` from argv (compacting it),
/// with FREERIDER_WORKERS as the environment fallback, plus the
/// FREERIDER_DIST_* tunables (FREERIDER_WORKER_BIN is read when the
/// fleet spawns). A malformed --workers, FREERIDER_WORKERS or
/// FREERIDER_DIST_RESPAWNS value (cli::ParseSize), a worker count above
/// kMaxWorkers, or a FREERIDER_DIST_*_S time that is malformed
/// (cli::ParseDouble) or not positive clears `*ok`.
DistOptions DistOptionsFromArgs(int& argc, char** argv, bool* ok);

/// Fleet telemetry on top of the familiar robust accounting. All of
/// it is TIMING-channel material (scheduling-dependent): the
/// determinism byte-diff covers robust-task *states*, never these.
struct DistReport {
  RobustSweepReport robust;
  bool distributed = false;  ///< False: the in-process path ran.
  std::size_t workers_requested = 0;
  std::size_t workers_spawned = 0;  ///< Initial spawns + respawns.
  std::size_t workers_killed = 0;   ///< Coordinator-initiated SIGKILLs.
  std::size_t respawns = 0;
  std::size_t lease_expiries = 0;
  std::size_t speculative_dispatches = 0;
  std::size_t duplicate_results = 0;
  std::size_t corrupt_frames = 0;
  std::size_t worker_deaths = 0;  ///< EOF/exit without shutdown.
  std::size_t heartbeats = 0;
  std::size_t degraded_tasks = 0;  ///< Ran in-process after fleet loss.

  /// robust.SummaryJson(name) plus one dist-fleet JSON object —
  /// TIMING_*.json material, never byte-diffed.
  std::string SummaryJson(const std::string& name) const;
};

/// Drop-in distributed sibling of RecoveryRunner::Run. `body` is the
/// in-process implementation (used verbatim when workers == 0, for
/// degraded execution and for recomputing a rejected payload); workers
/// build theirs from (body_name, params). Neither writes caller state.
/// `restore` is the one writer: it sees every settled payload —
/// restored from checkpoint, computed by a worker or in-process —
/// once, serially, in grid-index order.
class DistRunner {
 public:
  DistRunner(DistOptions dist, RobustSweepOptions robust);

  DistReport Run(const SweepGrid& grid, const TaskBody& body,
                 const TaskRestore& restore);

 private:
  /// The fleet path. False when no worker could start (nothing ran):
  /// Run then falls back to RecoveryRunner in-process.
  bool RunFleet(const SweepGrid& grid, const TaskBody& body,
                const TaskRestore& restore, DistReport* report);

  DistOptions dist_;
  RobustSweepOptions robust_;
};

}  // namespace freerider::runtime::dist
