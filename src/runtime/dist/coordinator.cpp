#include "runtime/dist/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "obs/profile.h"
#include "runtime/checkpoint.h"
#include "runtime/dist/lease.h"
#include "runtime/dist/wire.h"

namespace freerider::runtime::dist {

namespace {

using Clock = std::chrono::steady_clock;

struct WorkerProc {
  pid_t pid = -1;
  int to_fd = -1;    ///< Coordinator → worker (tasks). Blocking.
  int from_fd = -1;  ///< Worker → coordinator (results). Non-blocking.
  int index = -1;    ///< Stable spawn index (lease id, chaos target).
  FrameStream stream;
  bool alive = false;
  bool ready = false;  ///< StartAck(ok) received.
  std::size_t outstanding = 0;
  double deadline_s = 0.0;
};

/// fork+exec one worker serving `--dist-serve=RFD,WFD,IDX`. All pipe
/// fds are O_CLOEXEC in the parent; the child re-enables exactly its
/// own two ends before exec, so workers never inherit each other's
/// pipes (EOF detection stays crisp).
bool SpawnWorker(const std::string& bin, int index, WorkerProc* w) {
  int to_pipe[2] = {-1, -1};
  int from_pipe[2] = {-1, -1};
  if (::pipe2(to_pipe, O_CLOEXEC) != 0) return false;
  if (::pipe2(from_pipe, O_CLOEXEC) != 0) {
    ::close(to_pipe[0]);
    ::close(to_pipe[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_pipe[0]);
    ::close(to_pipe[1]);
    ::close(from_pipe[0]);
    ::close(from_pipe[1]);
    return false;
  }
  if (pid == 0) {
    ::fcntl(to_pipe[0], F_SETFD, 0);
    ::fcntl(from_pipe[1], F_SETFD, 0);
    char arg[64];
    std::snprintf(arg, sizeof arg, "--dist-serve=%d,%d,%d", to_pipe[0],
                  from_pipe[1], index);
    ::execl(bin.c_str(), bin.c_str(), arg, static_cast<char*>(nullptr));
    std::fprintf(stderr, "[dist] exec %s failed: %s\n", bin.c_str(),
                 std::strerror(errno));
    std::_Exit(127);
  }
  ::close(to_pipe[0]);
  ::close(from_pipe[1]);
  ::fcntl(from_pipe[0], F_SETFL, O_NONBLOCK);
  w->pid = pid;
  w->to_fd = to_pipe[1];
  w->from_fd = from_pipe[0];
  w->index = index;
  w->stream = FrameStream();
  w->alive = true;
  w->ready = false;
  w->outstanding = 0;
  return true;
}

}  // namespace

DistOptions DistOptionsFromArgs(int& argc, char** argv, bool* ok) {
  DistOptions options;
  options.workers = cli::EnvSize("FREERIDER_WORKERS", options.workers, ok);
  cli::ConsumeSize(argc, argv, "--workers", &options.workers, ok);
  cli::RejectAboveCap("--workers", options.workers, kMaxWorkers, ok);
  options.lease_timeout_s = cli::EnvPositiveDouble(
      "FREERIDER_DIST_LEASE_S", options.lease_timeout_s, ok);
  options.spawn_grace_s = cli::EnvPositiveDouble(
      "FREERIDER_DIST_SPAWN_GRACE_S", options.spawn_grace_s, ok);
  options.speculate_after_s = cli::EnvPositiveDouble(
      "FREERIDER_DIST_SPECULATE_S", options.speculate_after_s, ok);
  options.max_respawns =
      cli::EnvSize("FREERIDER_DIST_RESPAWNS", options.max_respawns, ok);
  return options;
}

std::string DistReport::SummaryJson(const std::string& name) const {
  std::ostringstream out;
  out << robust.SummaryJson(name);
  out << "{\"dist\": \"" << name << "\""
      << ", \"distributed\": " << (distributed ? "true" : "false")
      << ", \"workers_requested\": " << workers_requested
      << ", \"workers_spawned\": " << workers_spawned
      << ", \"workers_killed\": " << workers_killed
      << ", \"worker_deaths\": " << worker_deaths
      << ", \"respawns\": " << respawns
      << ", \"lease_expiries\": " << lease_expiries
      << ", \"speculative_dispatches\": " << speculative_dispatches
      << ", \"duplicate_results\": " << duplicate_results
      << ", \"corrupt_frames\": " << corrupt_frames
      << ", \"heartbeats\": " << heartbeats
      << ", \"degraded_tasks\": " << degraded_tasks << "}\n";
  return out.str();
}

DistRunner::DistRunner(DistOptions dist, RobustSweepOptions robust)
    : dist_(std::move(dist)), robust_(std::move(robust)) {}

DistReport DistRunner::Run(const SweepGrid& grid, const TaskBody& body,
                           const TaskRestore& restore) {
  DistReport report;
  report.workers_requested = dist_.workers;
  if (dist_.workers == 0 || dist_.body_name.empty() ||
      !RunFleet(grid, body, restore, &report)) {
    // In-process: identical to handing the sweep straight to
    // RecoveryRunner — the regression anchor every --workers N run is
    // byte-diffed against, and the fallback when no fleet can start.
    RecoveryRunner runner(DefaultExecutor(), robust_);
    report.robust = runner.Run(grid, body, restore);
    report.distributed = false;
  }
  return report;
}

bool DistRunner::RunFleet(const SweepGrid& grid, const TaskBody& body,
                          const TaskRestore& restore, DistReport* out) {
  DistReport& report = *out;
  obs::Profiler& profiler = obs::GlobalProfiler();
  obs::ScopedSpan run_span("dist_run", "dist");

  const std::size_t n = grid.tasks();
  RobustSweepReport& robust = report.robust;
  TaskLedger ledger(grid, robust_, robust);
  if (n == 0) {
    report.distributed = true;
    return true;
  }

  // A dead worker must surface as EPIPE on our next write, never as a
  // process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  // Resolve the worker binary at spawn time so the FREERIDER_WORKER_BIN
  // override works however DistOptions was constructed (flag parser,
  // test fixture, or a tool filling the struct by hand).
  std::string bin = dist_.worker_bin;
  if (const char* env = std::getenv("FREERIDER_WORKER_BIN")) bin = env;
  if (bin.empty()) bin = "/proc/self/exe";
  if (::access(bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "[dist] worker binary %s not executable (%s); running "
                 "in-process\n",
                 bin.c_str(), std::strerror(errno));
    return false;
  }

  // ---------------- fleet spawn (before any thread exists) ----------
  const auto t0 = Clock::now();
  auto now_s = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const std::string start_frame = [&] {
    WireMsg start;
    start.type = MsgType::kStart;
    start.points = grid.points;
    start.trials = grid.trials;
    start.body = dist_.body_name;
    start.params = dist_.params;
    return EncodeFrame(EncodeMsg(start));
  }();

  std::vector<WorkerProc> fleet(dist_.workers);
  int spawn_counter = 0;
  std::size_t respawns_left = dist_.max_respawns;
  auto spawn_into = [&](WorkerProc& w) {
    if (!SpawnWorker(bin, spawn_counter, &w)) return false;
    ++spawn_counter;
    ++report.workers_spawned;
    w.deadline_s = now_s() + dist_.spawn_grace_s + dist_.lease_timeout_s;
    if (!WriteAll(w.to_fd, start_frame)) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
      ::close(w.to_fd);
      ::close(w.from_fd);
      w.alive = false;
      return false;
    }
    return true;
  };
  for (WorkerProc& w : fleet) {
    if (!spawn_into(w)) break;
  }
  std::size_t alive = 0;
  for (const WorkerProc& w : fleet) alive += w.alive ? 1 : 0;
  if (alive == 0) {
    std::fprintf(stderr,
                 "[dist] could not spawn any worker; running in-process\n");
    return false;
  }
  report.distributed = true;

  // ---------------- campaign state ----------------------------------
  LeaseOptions lease_options;
  lease_options.lease_timeout_s = dist_.lease_timeout_s;
  lease_options.max_retries = robust_.max_retries;
  lease_options.quarantine = robust_.quarantine;
  lease_options.speculate_after_s = dist_.speculate_after_s;
  LeaseTable lease(n, lease_options);
  ledger.Resume(restore);
  for (std::size_t i = 0; i < n; ++i) {
    if (robust.tasks[i].state == RobustTaskState::kRestored) {
      lease.MarkDone(i);
    } else if (robust.tasks[i].state == RobustTaskState::kQuarantined) {
      lease.MarkQuarantined(i);
    }
  }

  // ---------------- fleet plumbing ----------------------------------
  auto reap = [&](WorkerProc& w, bool send_kill) {
    if (!w.alive) return;
    if (send_kill) {
      ::kill(w.pid, SIGKILL);
      ++report.workers_killed;
    }
    ::waitpid(w.pid, nullptr, 0);
    ::close(w.to_fd);
    ::close(w.from_fd);
    w.alive = false;
    w.ready = false;
    w.outstanding = 0;
  };
  auto release_and_respawn = [&](WorkerProc& w, const char* why,
                                 bool deadline_driven) {
    const std::size_t released = lease.ReleaseWorker(w.index, now_s());
    if (deadline_driven) report.lease_expiries += released;
    std::fprintf(stderr, "[dist] worker %d (pid %d) %s — %zu lease(s) "
                 "re-dispatched\n",
                 w.index, static_cast<int>(w.pid), why, released);
    reap(w, true);
    if (respawns_left > 0 && !lease.AllSettled() && !ledger.cancelled()) {
      --respawns_left;
      if (spawn_into(w)) {
        ++report.respawns;
      }
    }
  };
  auto handle_failure_verdict = [&](std::size_t index,
                                    LeaseTable::FailResult verdict) {
    if (verdict == LeaseTable::FailResult::kQuarantined) {
      ledger.Quarantine(index);
    } else if (verdict == LeaseTable::FailResult::kFatal) {
      ledger.Cancel(index);
    }
  };

  // Degraded drain: the fleet is gone (or never served the body) and
  // the campaign must still finish with the same bytes — run the
  // remainder serially in-process with RecoveryRunner retry
  // semantics.
  auto degraded_drain = [&] {
    for (const std::size_t i : lease.Unsettled()) {
      if (ledger.cancelled()) break;
      TaskCall call = CallTask(body, i / grid.trials, i % grid.trials,
                               robust_.max_retries);
      robust.task_retries += call.attempts - 1;
      if (call.threw || !call.result.ok) {
        if (call.threw) {
          std::fprintf(stderr,
                       "[dist] degraded task %zu failed after %zu "
                       "attempt(s): %s\n",
                       i, call.attempts, call.error.c_str());
        }
        handle_failure_verdict(
            i, lease.Fail(i, now_s(), /*retryable=*/false));
        continue;
      }
      lease.MarkDone(i);
      ++report.degraded_tasks;
      ledger.Commit(i, std::move(call.result.payload));
    }
  };

  // ---------------- event loop --------------------------------------
  bool fleet_unusable = false;
  while (!lease.AllSettled() && !ledger.cancelled() && !fleet_unusable) {
    const double now = now_s();

    // Silent workers: heartbeat deadline passed → dead (SIGSTOP,
    // SIGKILL, wedge). Kill, release, respawn within budget.
    for (WorkerProc& w : fleet) {
      if (w.alive && now > w.deadline_s) {
        release_and_respawn(w, "missed heartbeat deadline",
                            /*deadline_driven=*/true);
      }
    }
    // Belt and braces: lease-level expiry (kept aligned with worker
    // deadlines by Renew-on-any-frame, but the table enforces its own
    // clock so a bookkeeping bug cannot strand a task).
    lease.ExpireLeases(now);

    alive = 0;
    for (const WorkerProc& w : fleet) alive += w.alive ? 1 : 0;
    if (alive == 0) {
      std::fprintf(stderr,
                   "[dist] fleet lost (respawn budget %zu left); draining "
                   "%zu task(s) in-process\n",
                   respawns_left, lease.Unsettled().size());
      degraded_drain();
      break;
    }

    // Dispatch: one outstanding task per ready worker.
    for (WorkerProc& w : fleet) {
      if (!w.alive || !w.ready || w.outstanding > 0 || ledger.cancelled()) {
        continue;
      }
      std::size_t task = 0;
      bool speculative = false;
      if (!lease.Acquire(w.index, now, &task, &speculative)) continue;
      if (speculative) ++report.speculative_dispatches;
      WireMsg msg;
      msg.type = MsgType::kTask;
      msg.index = task;
      if (!WriteAll(w.to_fd, EncodeFrame(EncodeMsg(msg)))) {
        release_and_respawn(w, "task write failed",
                            /*deadline_driven=*/false);
        continue;
      }
      w.outstanding = 1;
    }

    // Wait for results/heartbeats/deaths.
    std::vector<pollfd> pfds;
    std::vector<WorkerProc*> pfd_workers;
    for (WorkerProc& w : fleet) {
      if (!w.alive) continue;
      pfds.push_back({w.from_fd, POLLIN, 0});
      pfd_workers.push_back(&w);
    }
    if (pfds.empty()) continue;
    const int rc = ::poll(pfds.data(), pfds.size(), 20);
    if (rc < 0 && errno != EINTR) {
      std::fprintf(stderr, "[dist] poll failed (%s); draining in-process\n",
                   std::strerror(errno));
      for (WorkerProc& w : fleet) {
        if (w.alive) {
          lease.ReleaseWorker(w.index, now_s());
          reap(w, true);
        }
      }
      degraded_drain();
      break;
    }
    if (rc <= 0) continue;

    for (std::size_t k = 0; k < pfds.size(); ++k) {
      WorkerProc& w = *pfd_workers[k];
      if (!w.alive) continue;
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool eof = false;
      char buf[65536];
      for (;;) {
        const ssize_t got = ::read(w.from_fd, buf, sizeof buf);
        if (got > 0) {
          w.stream.Feed(buf, static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0) eof = true;
        if (got < 0 && errno == EINTR) continue;
        break;
      }

      // Drain whole frames. A corrupt stream (flipped bit, torn
      // write) is unrecoverable: the worker dies, its leases retry.
      bool corrupt = false;
      std::string payload;
      for (;;) {
        const FrameStatus status = w.stream.Next(&payload);
        if (status == FrameStatus::kNeedMore) break;
        if (status == FrameStatus::kCorrupt) {
          corrupt = true;
          break;
        }
        WireMsg msg;
        if (!DecodeMsg(payload, &msg)) {
          corrupt = true;
          break;
        }
        const double frame_now = now_s();
        w.deadline_s = frame_now + dist_.lease_timeout_s;
        lease.Renew(w.index, frame_now);
        switch (msg.type) {
          case MsgType::kStartAck:
            if (msg.ok) {
              w.ready = true;
            } else {
              // The worker binary cannot serve this body — a config
              // error that every (re)spawn of the same binary shares.
              std::fprintf(stderr, "[dist] worker %d rejected start: %s; "
                           "running remainder in-process\n",
                           w.index, msg.error.c_str());
              fleet_unusable = true;
            }
            break;
          case MsgType::kHeartbeat:
            ++report.heartbeats;
            break;
          case MsgType::kResult: {
            if (w.outstanding > 0) --w.outstanding;
            const auto index = static_cast<std::size_t>(msg.index);
            if (msg.status == ResultStatus::kOk) {
              const LeaseTable::CompleteResult cr =
                  lease.Complete(index, frame_now);
              if (cr == LeaseTable::CompleteResult::kAccepted) {
                robust.tasks[index].worker = w.index;
                ledger.Commit(index, std::move(msg.payload));
              } else if (cr == LeaseTable::CompleteResult::kInvalid) {
                corrupt = true;  // hostile index: treat like a bad frame
              }
            } else {
              const bool retryable = msg.status == ResultStatus::kThrew;
              std::fprintf(stderr,
                           "[dist] task %zu failed on worker %d%s: %s\n",
                           index, w.index,
                           retryable ? "" : " (non-retryable)",
                           msg.payload.c_str());
              handle_failure_verdict(
                  index, lease.Fail(index, frame_now, retryable));
            }
            break;
          }
          default:
            break;  // coordinator-bound streams carry no other types
        }
        if (corrupt || fleet_unusable) break;
      }

      if (corrupt) {
        ++report.corrupt_frames;
        release_and_respawn(w, "sent a corrupt frame",
                            /*deadline_driven=*/false);
      } else if (eof) {
        ++report.worker_deaths;
        release_and_respawn(w, "exited unexpectedly",
                            /*deadline_driven=*/false);
      }
    }

    if (fleet_unusable) {
      for (WorkerProc& w : fleet) {
        if (w.alive) {
          lease.ReleaseWorker(w.index, now_s());
          reap(w, true);
        }
      }
      degraded_drain();
    }
  }

  // ---------------- shutdown ----------------------------------------
  const std::string shutdown_frame = [&] {
    WireMsg msg;
    msg.type = MsgType::kShutdown;
    return EncodeFrame(EncodeMsg(msg));
  }();
  for (WorkerProc& w : fleet) {
    if (!w.alive) continue;
    WriteAll(w.to_fd, shutdown_frame);
  }
  const double shutdown_deadline = now_s() + 1.0;
  for (WorkerProc& w : fleet) {
    if (!w.alive) continue;
    bool reaped = false;
    while (now_s() < shutdown_deadline) {
      if (::waitpid(w.pid, nullptr, WNOHANG) == w.pid) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (reaped) {
      ::close(w.to_fd);
      ::close(w.from_fd);
      w.alive = false;
    } else {
      // SIGSTOPped or wedged workers do not drain a shutdown message;
      // SIGKILL reaps even a stopped process.
      reap(w, true);
    }
  }

  // Worker-computed and degraded results fold in grid-index order,
  // whatever order they arrived in.
  report.degraded_tasks += ledger.Fold(body, restore);
  ledger.Finish();

  // ---------------- report ------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    robust.tasks[i].attempts += lease.attempts(i);
  }
  robust.task_retries += lease.retries();
  report.lease_expiries += lease.expiries();
  report.duplicate_results = lease.duplicate_results();
  robust.run.threads = dist_.workers;
  robust.run.tasks_total = n;
  robust.run.tasks_executed = robust.tasks_ok;
  robust.run.wall_s = now_s();

  profiler.AddCount("dist.workers_spawned", report.workers_spawned);
  profiler.AddCount("dist.respawns", report.respawns);
  profiler.AddCount("dist.lease_expiries", report.lease_expiries);
  profiler.AddCount("dist.corrupt_frames", report.corrupt_frames);
  profiler.AddCount("dist.duplicate_results", report.duplicate_results);
  profiler.AddCount("dist.degraded_tasks", report.degraded_tasks);
  return true;
}

}  // namespace freerider::runtime::dist
