#include "sim/dist_bodies.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "mac/slotted_aloha.h"
#include "runtime/checkpoint.h"
#include "runtime/dist/registry.h"

namespace freerider::sim {

namespace {

/// The per-point seeds of Fig. 14, as RangeSweep draws them: serially,
/// up front, in point order off the master stream.
std::vector<std::uint64_t> Fig14PointSeeds() {
  Rng master(kFig14Seed);
  std::vector<std::uint64_t> seeds(Fig14TxTagDistances().size());
  for (auto& s : seeds) s = master.NextU64();
  return seeds;
}

const Fig14Radio* FindFig14Radio(const std::string& slug) {
  for (const Fig14Radio& r : Fig14Radios()) {
    if (slug == r.slug) return &r;
  }
  return nullptr;
}

runtime::dist::DistBody MakeFig14Body(const Fig14Radio& preset) {
  auto seeds =
      std::make_shared<const std::vector<std::uint64_t>>(Fig14PointSeeds());
  const core::RadioType radio = preset.radio;
  const double max_search_m = preset.max_search_m;
  return [seeds, radio, max_search_m](std::size_t p, std::size_t) {
    const double max_m =
        RangeSearchPoint(radio, Fig14TxTagDistances()[p], (*seeds)[p],
                         max_search_m, kFig14Packets, kFig14PrrFloor);
    runtime::PayloadWriter w;
    w.F64(max_m);
    runtime::RobustTaskResult out;
    out.payload = w.Take();
    return out;
  };
}

runtime::dist::DistBody MakeStressBody(std::size_t rounds) {
  return [rounds](std::size_t p, std::size_t t) {
    const StressResult result =
        RunStress(MakeStressBenchConfig(StressBenchSeeds()[p], t == 0, rounds));
    runtime::RobustTaskResult out;
    out.payload = SerializeStressResult(result);
    return out;
  };
}

runtime::dist::DistBody MakeChaosProbeBody(std::uint64_t seed,
                                           std::size_t rounds,
                                           runtime::SweepGrid grid) {
  return [seed, rounds, grid](std::size_t p, std::size_t t) {
    // Counter-derived per-task stream: pure in (seed, p, t), so the
    // same task recomputed on any worker — or in-process after fleet
    // loss — yields the same bytes.
    Rng rng(seed ^ (0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(p) * 0x100000001b3ull +
                    static_cast<std::uint64_t>(t) * 0x1000193ull));
    mac::FramedSlottedAlohaSimulator sim;
    const mac::CampaignStats stats = sim.RunCampaign(4 + p % 8, rounds, rng);
    runtime::PayloadWriter w;
    w.F64(stats.aggregate_throughput_bps);
    w.F64(stats.jain_fairness);
    w.F64(stats.mean_slots);
    runtime::RobustTaskResult out;
    out.payload = w.Take();
    (void)grid;
    return out;
  };
}

}  // namespace

const std::vector<Fig14Radio>& Fig14Radios() {
  static const std::vector<Fig14Radio> kRadios = {
      {"802.11g/n WiFi", "wifi", core::RadioType::kWifi, 60.0},
      {"ZigBee", "zigbee", core::RadioType::kZigbee, 40.0},
      {"Bluetooth", "bluetooth", core::RadioType::kBluetooth, 25.0},
  };
  return kRadios;
}

const std::vector<double>& Fig14TxTagDistances() {
  static const std::vector<double> kDistances = {0.5, 1.0, 1.5, 2.0,
                                                 2.5, 3.0, 3.5, 4.0};
  return kDistances;
}

void RegisterDistBodies() {
  runtime::dist::RegisterDistBody(
      "fig14_range",
      [](const std::string& params,
         const runtime::SweepGrid& grid) -> runtime::dist::DistBody {
        const Fig14Radio* preset = FindFig14Radio(params);
        if (preset == nullptr || grid.trials != 1 ||
            grid.points != Fig14TxTagDistances().size()) {
          return nullptr;
        }
        return MakeFig14Body(*preset);
      });
  runtime::dist::RegisterDistBody(
      "stress_supervisor",
      [](const std::string& params,
         const runtime::SweepGrid& grid) -> runtime::dist::DistBody {
        unsigned long long rounds = 0;
        if (std::sscanf(params.c_str(), "%llu", &rounds) != 1 ||
            rounds < 600 || grid.points != StressBenchSeeds().size() ||
            grid.trials != 2) {
          return nullptr;
        }
        return MakeStressBody(static_cast<std::size_t>(rounds));
      });
  runtime::dist::RegisterDistBody(
      "chaos_probe",
      [](const std::string& params,
         const runtime::SweepGrid& grid) -> runtime::dist::DistBody {
        unsigned long long seed = 0;
        unsigned long long rounds = 0;
        if (std::sscanf(params.c_str(), "%llu:%llu", &seed, &rounds) != 2 ||
            rounds == 0 || grid.trials == 0 || grid.tasks() == 0) {
          return nullptr;
        }
        return MakeChaosProbeBody(seed, static_cast<std::size_t>(rounds),
                                  grid);
      });
}

std::vector<RangePoint> RangeSweepDistributed(
    const Fig14Radio& preset, runtime::RobustSweepOptions robust,
    runtime::dist::DistOptions dist, runtime::dist::DistReport* report) {
  const std::vector<double>& distances = Fig14TxTagDistances();
  std::vector<RangePoint> points(distances.size());
  robust.campaign = runtime::CampaignId(
      std::string("fig14_range_") + preset.slug, kFig14Seed);
  dist.body_name = "fig14_range";
  dist.params = preset.slug;

  const runtime::dist::DistBody pure = MakeFig14Body(preset);
  auto restore = [&](std::size_t p, std::size_t, const std::string& payload) {
    runtime::PayloadReader r(payload);
    double max_m = 0.0;
    if (!r.F64(max_m) || !r.AtEnd()) return false;
    points[p] = {distances[p], max_m};
    return true;
  };
  // In-process body = pure body + inline restore fold: the slot is
  // filled from decode(encode(x)) in every mode, so `--workers N` and
  // `--workers 0` print the same bytes.
  auto body = [&](std::size_t p, std::size_t t) {
    runtime::RobustTaskResult out = pure(p, t);
    if (out.ok) restore(p, t, out.payload);
    return out;
  };
  runtime::dist::DistRunner runner(std::move(dist), std::move(robust));
  runtime::dist::DistReport local = runner.Run({distances.size(), 1}, body,
                                               restore);
  if (report != nullptr) *report = std::move(local);
  return points;
}

void StressSweepDistributed(std::size_t rounds,
                            runtime::RobustSweepOptions robust,
                            runtime::dist::DistOptions dist,
                            std::vector<StressResult>* on,
                            std::vector<StressResult>* off,
                            runtime::dist::DistReport* report) {
  const std::vector<std::uint64_t>& seeds = StressBenchSeeds();
  on->assign(seeds.size(), StressResult{});
  off->assign(seeds.size(), StressResult{});
  robust.campaign = runtime::CampaignId("stress_supervisor", rounds);
  dist.body_name = "stress_supervisor";
  dist.params = std::to_string(rounds);

  const runtime::dist::DistBody pure = MakeStressBody(rounds);
  auto restore = [&](std::size_t p, std::size_t t,
                     const std::string& payload) {
    StressResult& slot = t == 0 ? (*on)[p] : (*off)[p];
    return DeserializeStressResult(payload, &slot);
  };
  auto body = [&](std::size_t p, std::size_t t) {
    runtime::RobustTaskResult out = pure(p, t);
    if (out.ok) restore(p, t, out.payload);
    return out;
  };
  runtime::dist::DistRunner runner(std::move(dist), std::move(robust));
  runtime::dist::DistReport local = runner.Run({seeds.size(), 2}, body,
                                               restore);
  if (report != nullptr) *report = std::move(local);
}

runtime::dist::DistReport ChaosProbeDistributed(
    std::uint64_t seed, std::size_t rounds, const runtime::SweepGrid& grid,
    runtime::RobustSweepOptions robust, runtime::dist::DistOptions dist,
    std::string* digest) {
  const std::size_t tasks = grid.tasks();
  std::vector<double> throughput(tasks, 0.0);
  std::vector<double> fairness(tasks, 0.0);
  std::vector<double> mean_slots(tasks, 0.0);
  std::vector<char> have(tasks, 0);
  robust.campaign = runtime::CampaignId("chaos_probe", seed ^ rounds);
  dist.body_name = "chaos_probe";
  dist.params = std::to_string(seed) + ":" + std::to_string(rounds);

  const runtime::dist::DistBody pure = MakeChaosProbeBody(seed, rounds, grid);
  auto restore = [&](std::size_t p, std::size_t t,
                     const std::string& payload) {
    runtime::PayloadReader r(payload);
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
    if (!r.F64(a) || !r.F64(b) || !r.F64(c) || !r.AtEnd()) return false;
    const std::size_t i = p * grid.trials + t;
    throughput[i] = a;
    fairness[i] = b;
    mean_slots[i] = c;
    have[i] = 1;
    return true;
  };
  auto body = [&](std::size_t p, std::size_t t) {
    runtime::RobustTaskResult out = pure(p, t);
    if (out.ok) restore(p, t, out.payload);
    return out;
  };
  runtime::dist::DistRunner runner(std::move(dist), std::move(robust));
  runtime::dist::DistReport report = runner.Run(grid, body, restore);
  if (digest != nullptr) {
    std::string s;
    char line[192];
    for (std::size_t i = 0; i < tasks; ++i) {
      std::snprintf(line, sizeof line, "%zu,%zu:%d:%a,%a,%a\n",
                    i / grid.trials, i % grid.trials,
                    static_cast<int>(have[i]), throughput[i], fairness[i],
                    mean_slots[i]);
      s += line;
    }
    *digest = std::move(s);
  }
  return report;
}

}  // namespace freerider::sim
