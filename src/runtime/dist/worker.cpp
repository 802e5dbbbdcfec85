#include "runtime/dist/worker.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "runtime/checkpoint.h"
#include "runtime/dist/registry.h"
#include "runtime/dist/wire.h"

namespace freerider::runtime::dist {

namespace {

/// One FREERIDER_CHAOS directive targeting this worker.
struct ChaosDirective {
  enum class Verb : std::uint8_t { kKill, kStop, kFlip } verb;
  std::size_t at_result = 0;  ///< 1-based completed-result count.
  bool fired = false;
};

std::vector<ChaosDirective> ParseChaos(const char* spec, int worker_index) {
  std::vector<ChaosDirective> out;
  if (spec == nullptr) return out;
  const std::string s(spec);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    const std::string entry = s.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t at = entry.find('@');
    const std::size_t colon = entry.find(':', at);
    if (at == std::string::npos || colon == std::string::npos) continue;
    const std::string verb = entry.substr(0, at);
    const long w = std::strtol(entry.c_str() + at + 1, nullptr, 10);
    const unsigned long long n =
        std::strtoull(entry.c_str() + colon + 1, nullptr, 10);
    if (w != worker_index || n == 0) continue;
    ChaosDirective d;
    if (verb == "kill") {
      d.verb = ChaosDirective::Verb::kKill;
    } else if (verb == "stop") {
      d.verb = ChaosDirective::Verb::kStop;
    } else if (verb == "flip") {
      d.verb = ChaosDirective::Verb::kFlip;
    } else {
      continue;
    }
    d.at_result = static_cast<std::size_t>(n);
    out.push_back(d);
  }
  return out;
}

/// Blocking read of the next whole frame. False on EOF/error/corrupt
/// (the coordinator-to-worker direction is a trusted local pipe; any
/// damage there means the coordinator is gone or broken — exit).
bool ReadFrame(int fd, FrameStream& stream, std::string* payload) {
  char buf[4096];
  for (;;) {
    const FrameStatus status = stream.Next(payload);
    if (status == FrameStatus::kFrame) return true;
    if (status == FrameStatus::kCorrupt) return false;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF
    stream.Feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace

int RunWorkerServe(int read_fd, int write_fd, int worker_index) {
  std::signal(SIGPIPE, SIG_IGN);
  FrameStream in;
  std::mutex write_mu;
  auto send = [&](const WireMsg& msg) {
    const std::string frame = EncodeFrame(EncodeMsg(msg));
    std::lock_guard<std::mutex> lock(write_mu);
    return WriteAll(write_fd, frame);
  };

  // ---- handshake: kStart → body factory → kStartAck ----------------
  std::string payload;
  WireMsg start;
  if (!ReadFrame(read_fd, in, &payload) || !DecodeMsg(payload, &start) ||
      start.type != MsgType::kStart) {
    std::fprintf(stderr, "[worker %d] bad start handshake\n", worker_index);
    return 1;
  }
  const SweepGrid grid{static_cast<std::size_t>(start.points),
                       static_cast<std::size_t>(start.trials)};
  DistBody body;
  {
    const DistBodyFactory factory = FindDistBody(start.body);
    if (factory) body = factory(start.params, grid);
  }
  WireMsg ack;
  ack.type = MsgType::kStartAck;
  ack.ok = static_cast<bool>(body);
  if (!ack.ok) {
    ack.error = "no body '" + start.body + "' for params '" + start.params +
                "' in this binary";
  }
  if (!send(ack)) return 1;
  if (!ack.ok) {
    std::fprintf(stderr, "[worker %d] %s\n", worker_index, ack.error.c_str());
    return 1;
  }

  // ---- heartbeat beacon --------------------------------------------
  std::atomic<bool> stop_heartbeat{false};
  std::thread heartbeat([&] {
    // A worker has no usage-error path: a malformed or non-positive
    // value is reported on stderr and the default kept.
    bool reported = true;
    const double interval_s =
        cli::EnvPositiveDouble("FREERIDER_DIST_HEARTBEAT_S", 0.5, &reported);
    std::uint64_t seq = 0;
    while (!stop_heartbeat.load(std::memory_order_acquire)) {
      WireMsg beat;
      beat.type = MsgType::kHeartbeat;
      beat.seq = ++seq;
      if (!send(beat)) return;  // coordinator gone; main loop will see EOF
      // Sleep in short slices so shutdown does not wait a full interval.
      double slept = 0.0;
      while (slept < interval_s &&
             !stop_heartbeat.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        slept += 0.01;
      }
    }
  });
  auto join_heartbeat = [&] {
    stop_heartbeat.store(true, std::memory_order_release);
    if (heartbeat.joinable()) heartbeat.join();
  };

  // ---- chaos self-injection ----------------------------------------
  std::vector<ChaosDirective> chaos =
      ParseChaos(std::getenv("FREERIDER_CHAOS"), worker_index);
  std::size_t results_done = 0;

  // ---- serve loop ---------------------------------------------------
  int exit_code = 0;
  for (;;) {
    WireMsg msg;
    if (!ReadFrame(read_fd, in, &payload) || !DecodeMsg(payload, &msg)) {
      break;  // EOF or broken coordinator: exit quietly.
    }
    if (msg.type == MsgType::kShutdown) break;
    if (msg.type != MsgType::kTask) continue;

    const std::size_t index = static_cast<std::size_t>(msg.index);
    WireMsg result;
    result.type = MsgType::kResult;
    result.index = msg.index;
    if (grid.trials == 0 || index >= grid.tasks()) {
      result.status = ResultStatus::kFailed;
      result.payload = "task index out of range";
    } else {
      // One attempt: retries are the coordinator's (LeaseTable), which
      // re-dispatches a kThrew result.
      TaskCall call =
          CallTask(body, index / grid.trials, index % grid.trials, 0);
      if (call.threw) {
        result.status = ResultStatus::kThrew;
        result.payload = std::move(call.error);
      } else {
        result.status =
            call.result.ok ? ResultStatus::kOk : ResultStatus::kFailed;
        result.payload = std::move(call.result.payload);
      }
    }

    ++results_done;
    bool flip_this = false;
    for (ChaosDirective& d : chaos) {
      if (d.fired || d.at_result != results_done) continue;
      d.fired = true;
      switch (d.verb) {
        case ChaosDirective::Verb::kKill:
          // Before the result leaves the process: the lease must be
          // re-dispatched, the completed work lost.
          std::fprintf(stderr, "[worker %d] chaos: SIGKILL at result %zu\n",
                       worker_index, results_done);
          std::fflush(stderr);
          std::raise(SIGKILL);
          break;
        case ChaosDirective::Verb::kStop:
          std::fprintf(stderr, "[worker %d] chaos: SIGSTOP at result %zu\n",
                       worker_index, results_done);
          std::fflush(stderr);
          // Stops the whole process, heartbeat thread included — the
          // coordinator sees the beacon die and expires the lease.
          std::raise(SIGSTOP);
          break;
        case ChaosDirective::Verb::kFlip:
          flip_this = true;
          break;
      }
    }

    std::string frame = EncodeFrame(EncodeMsg(result));
    if (flip_this) {
      // Flip one payload bit: the CRC no longer checks, the
      // coordinator must classify the stream corrupt and retry the
      // lease on a fresh worker.
      std::fprintf(stderr, "[worker %d] chaos: bit flip at result %zu\n",
                   worker_index, results_done);
      frame[4] = static_cast<char>(frame[4] ^ 0x01);
    }
    {
      std::lock_guard<std::mutex> lock(write_mu);
      if (!WriteAll(write_fd, frame)) {
        exit_code = 1;
        break;
      }
    }
  }

  join_heartbeat();
  return exit_code;
}

int HandleWorkerMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dist-serve=", 13) != 0) continue;
    int rfd = -1;
    int wfd = -1;
    int idx = -1;
    if (std::sscanf(argv[i] + 13, "%d,%d,%d", &rfd, &wfd, &idx) != 3 ||
        rfd < 0 || wfd < 0 || idx < 0) {
      std::fprintf(stderr, "error: malformed %s\n", argv[i]);
      return 2;
    }
    return RunWorkerServe(rfd, wfd, idx);
  }
  return -1;
}

}  // namespace freerider::runtime::dist
