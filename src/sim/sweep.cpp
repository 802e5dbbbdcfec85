#include "sim/sweep.h"

#include <cmath>

#include "core/redundancy.h"
#include "runtime/checkpoint.h"
#include "runtime/executor.h"

namespace freerider::sim {

namespace {

constexpr std::uint64_t kLinkStatsVersion = 1;

template <class Io, class T>
bool LinkStatsFields(Io& io, T& s) {
  return io.Version(kLinkStatsVersion) && io.Size(s.packets_attempted) &&
         io.Size(s.packets_decoded) && io.F64(s.packet_reception_rate) &&
         io.F64(s.tag_ber) && io.F64(s.tag_throughput_bps) &&
         io.F64(s.rssi_dbm) && io.F64(s.snr_db) &&
         io.Size(s.redundancy_used) && io.Size(s.faults_injected) &&
         io.Size(s.desync_events) && io.Size(s.rounds_recovered) &&
         FaultCountersFields(io, s.fault_counters);
}

}  // namespace

std::string SerializeLinkStats(const LinkStats& stats) {
  runtime::PayloadWriter w;
  LinkStatsFields(w, stats);
  return w.Take();
}

bool DeserializeLinkStats(const std::string& payload, LinkStats* stats) {
  return runtime::ReadPayload(
      payload, stats, [](auto& r, auto& s) { return LinkStatsFields(r, s); });
}

std::vector<DistancePoint> DistanceSweepRobust(
    core::RadioType radio, const channel::Deployment& deployment,
    const std::vector<double>& distances, std::size_t packets,
    std::uint64_t seed, const std::string& slug,
    runtime::RobustSweepOptions robust, runtime::RobustSweepReport* report) {
  std::vector<DistancePoint> points(distances.size());
  // Per-point seeds drawn serially in point order: the exact values the
  // historical `Rng point_rng = rng.Split()` loop handed each point, so
  // restored and recomputed points — at any --threads value — consume
  // identical per-point seeds.
  Rng master(seed);
  std::vector<std::uint64_t> point_seeds(distances.size());
  for (auto& s : point_seeds) s = master.NextU64();

  robust.campaign = runtime::CampaignId(slug, seed);
  runtime::RecoveryRunner runner(runtime::DefaultExecutor(), robust);
  runtime::RobustSweepReport local_report = runner.Run(
      {distances.size(), 1},
      [&](std::size_t p, std::size_t) {
        LinkConfig config;
        config.radio = radio;
        config.deployment = deployment;
        config.tag_to_rx_m = distances[p];
        config.num_packets = packets;
        config.profile = DefaultProfile(radio);
        Rng point_rng(point_seeds[p]);
        runtime::RobustTaskResult out;
        out.payload =
            SerializeLinkStats(SimulateTagLinkAdaptive(config, point_rng));
        return out;
      },
      [&](std::size_t p, std::size_t, const std::string& payload) {
        LinkStats stats;
        if (!DeserializeLinkStats(payload, &stats)) return false;
        points[p] = {distances[p], stats};
        return true;
      });
  if (report != nullptr) *report = std::move(local_report);
  return points;
}

double RangeSearchPoint(core::RadioType radio, double d1,
                        std::uint64_t point_seed, double max_search_m,
                        std::size_t packets, double prr_floor) {
  Rng point_rng(point_seed);
  auto sustained = [&](double d2) {
    LinkConfig config;
    config.radio = radio;
    config.deployment = channel::LosDeployment(d1);
    config.tag_to_rx_m = d2;
    config.num_packets = packets;
    config.profile = DefaultProfile(radio);
    // The range limit is header detection, not tag BER: use the
    // largest redundancy.
    config.redundancy = core::RedundancyLadder(radio).back();
    Rng trial_rng = point_rng.Split();
    const LinkStats stats = SimulateTagLink(config, trial_rng);
    return stats.packet_reception_rate >= prr_floor;
  };
  // Exponential bracket then bisection on the sustained range.
  double lo = 0.5;
  if (!sustained(lo)) return 0.0;
  double hi = 1.0;
  while (hi < max_search_m && sustained(hi)) hi *= 1.6;
  hi = std::min(hi, max_search_m);
  for (int iter = 0; iter < 7 && hi - lo > 0.25; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (sustained(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<RangePoint> RangeSweep(core::RadioType radio,
                                   const std::vector<double>& tx_tag_distances,
                                   double max_search_m, std::size_t packets,
                                   std::uint64_t seed, double prr_floor,
                                   runtime::SweepReport* report) {
  std::vector<RangePoint> points(tx_tag_distances.size());
  // One child stream per TX→tag point. The serial code drew probe
  // streams from the shared master as the bisection went, which ties
  // each probe's seed to how many probes *earlier points* consumed —
  // unparallelizable by construction. Point-owned streams decouple the
  // points (bit-identical across thread counts; a one-time documented
  // drift from the pre-runtime serial outputs).
  Rng master(seed);
  std::vector<std::uint64_t> point_seeds(tx_tag_distances.size());
  for (auto& s : point_seeds) s = master.NextU64();

  runtime::SweepEngine engine(runtime::DefaultExecutor());
  runtime::SweepReport local_report = engine.Run(
      {tx_tag_distances.size(), 1}, [&](std::size_t p, std::size_t) {
        const double d1 = tx_tag_distances[p];
        points[p] = {d1, RangeSearchPoint(radio, d1, point_seeds[p],
                                          max_search_m, packets, prr_floor)};
        return true;
      });
  if (report != nullptr) *report = std::move(local_report);
  return points;
}

}  // namespace freerider::sim
