// city_islands: one city-scale mesh run by the island-parallel scheduler.
//
// A pdes::IslandWorld of kIslandsX x kIslandsY patches of kSide^2 nodes
// (2058 nodes, 42 islands), run at kLanes lanes (never more than the
// machine has). Every node sends a reading toward the city-centre root
// every kPeriod once it has joined; the period is paced so the root's
// funnel carries the load. The backend is not involved: the root's own
// delivery upcall is the sink.
//
// A round builds the world, forms the DODAG (kWarmup, part of set-up)
// and measures kMeasure of simulated operation.
#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "counters.hpp"
#include "pdes/world.hpp"

namespace perfbench {
namespace {

using namespace iiot;
using sim::operator""_s;

constexpr std::size_t kIslandsX = 7;
constexpr std::size_t kIslandsY = 6;
constexpr std::size_t kSide = 7;
constexpr sim::Duration kPeriod = 60_s;
constexpr sim::Duration kWarmup = 300_s;
constexpr sim::Duration kMeasure = 240_s;  // a whole number of periods
constexpr sim::Duration kSlice = 1_s;
constexpr unsigned kLanes = 2;

/// Reading payload: origin node and sequence number, little-endian.
Buffer reading(std::uint32_t origin, std::uint32_t seq) {
  Buffer b;
  BufWriter w(b);
  w.u32(origin);
  w.u32(seq);
  return b;
}

/// Simulated send time of reading `seq` of node `i`.
sim::Time send_time(std::size_t i, std::uint32_t seq) {
  const sim::Time phase = (static_cast<sim::Time>(i) * 7'919'003) % kPeriod;
  return kWarmup + phase + static_cast<sim::Time>(seq) * kPeriod + 1;
}

unsigned lanes() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kLanes, hw);
}

struct CityRound {
  Round round;
  std::uint64_t digest = 0;
};

CityRound city_round(const Options& opt, unsigned lanes, Result& res) {
  pdes::IslandWorldConfig cfg;
  cfg.islands_x = kIslandsX;
  cfg.islands_y = kIslandsY;
  cfg.island_side = kSide;
  cfg.lanes = lanes;
  cfg.seed = opt.seed;
  cfg.radio_cfg.exponent = 3.0;
  cfg.radio_cfg.shadowing_sigma_db = 0.0;
  pdes::IslandWorld world(cfg);
  const std::size_t n = world.size();
  const std::size_t root = world.root_index();
  const auto per_node = static_cast<std::uint32_t>(kMeasure / kPeriod);

  // Root-side record, written only by events of the root's island.
  std::vector<std::uint8_t> seen(n * per_node, 0);
  std::vector<double> latency_ms;
  std::uint64_t bad_payloads = 0;
  world.root().routing->set_delivery_handler(
      [&](NodeId origin, BytesView payload, std::uint8_t) {
        Span span("sink", Layer::kApp);
        BufReader r(payload);
        const auto o = r.u32();
        const auto seq = r.u32();
        if (!o || !seq || *o != origin || *o >= n || *seq >= per_node ||
            seen[*o * per_node + *seq] != 0) {
          ++bad_payloads;
          return;
        }
        seen[*o * per_node + *seq] = 1;
        const sim::Time now = world.scheduler(world.island_of(root)).now();
        latency_ms.push_back(sim::to_millis(now - send_time(*o, *seq)));
      });

  // Readings are scheduled on each node's own island before the clock
  // starts, so lanes cannot reorder them.
  for (std::size_t i = 0; i < n; ++i) {
    if (i == root) continue;
    core::MeshNode* node = &world.node(i);
    sim::Scheduler& sched = world.scheduler(world.island_of(i));
    for (std::uint32_t seq = 0; seq < per_node; ++seq) {
      sched.schedule_at(send_time(i, seq), [node, i, seq] {
        Span span("sensor", Layer::kApp);
        if (node->routing->joined()) {
          node->routing->send_up(reading(static_cast<std::uint32_t>(i), seq));
        }
      });
    }
  }

  auto mesh_counters = [&] {
    MeshCounters c;
    c.add(world.medium_stats());
    for (std::size_t i = 0; i < n; ++i) c.add(world.node(i));
    return c;
  };
  std::vector<std::string> names = MeshCounters::names();
  names.push_back("sim.events");
  for (std::size_t k = 0; k < world.islands(); ++k) {
    names.push_back("sim.island" + std::to_string(k) + ".events");
  }
  auto counters = [&] {
    std::vector<std::uint64_t> v = mesh_counters().values();
    v.push_back(world.executed_events());
    for (std::size_t k = 0; k < world.islands(); ++k) {
      v.push_back(world.scheduler(k).executed_events());
    }
    return v;
  };
  if (opt.trace) tracer().enable(names);

  world.start();
  world.run_until(kWarmup);

  CityRound out;
  Round& round = out.round;
  std::vector<std::uint64_t> island_events0(world.islands());
  for (std::size_t k = 0; k < world.islands(); ++k) {
    island_events0[k] = world.scheduler(k).executed_events();
  }
  const std::vector<std::uint64_t> at0 = counters();
  const std::uint64_t root_delivered0 =
      world.root().routing->stats().data_delivered;
  round.measure_begin = Clock::now();
  for (sim::Time t = kWarmup + kSlice; t <= kWarmup + kMeasure; t += kSlice) {
    const auto slice0 = Clock::now();
    {
      Span span("run_until", Layer::kSim);
      world.run_until(t);
      if (span.id() != 0) tracer().sample(span.id(), counters());
    }
    round.slice_s.push_back(seconds_since(slice0));
  }
  round.host_s = seconds_since(round.measure_begin);
  round.sim_s = sim::to_seconds(kMeasure);
  const std::vector<std::uint64_t> at_end = counters();
  std::map<std::string, double> delta;
  for (std::size_t i = 0; i < names.size(); ++i) {
    delta[names[i]] = static_cast<double>(at_end[i] - at0[i]);
  }

  // ---- checks -------------------------------------------------------------
  const std::string consistency = world.check_consistency();
  res.check(consistency.empty(), "city: " + consistency);
  res.check(bad_payloads == 0,
            "city: " + std::to_string(bad_payloads) +
                " readings at the root were duplicated or malformed");
  const std::uint64_t root_delivered =
      world.root().routing->stats().data_delivered - root_delivered0;
  res.check(root_delivered == latency_ms.size(),
            "city: root counted " + std::to_string(root_delivered) +
                " deliveries, sink saw " + std::to_string(latency_ms.size()));
  out.digest = world.digest();

  // ---- metrics --------------------------------------------------------------
  round.attempted = static_cast<std::uint64_t>(n - 1) * per_node;
  const auto delivered = static_cast<double>(latency_ms.size());
  round.readings = delivered;
  double max_events = 0.0;
  double sum_events = 0.0;
  for (std::size_t k = 0; k < world.islands(); ++k) {
    const auto e = static_cast<double>(world.scheduler(k).executed_events() -
                                       island_events0[k]);
    max_events = std::max(max_events, e);
    sum_events += e;
  }
  auto& d = round.det;
  d["readings_delivered"] = delivered;
  d["reading_latency_p50_ms"] = percentile(latency_ms, 0.50);
  d["reading_latency_p99_ms"] = percentile(latency_ms, 0.99);
  d["frames_per_reading"] = delta["radio.transmissions"] / delivered;
  if (opt.trace) {
    for (const auto& [name, v] : delta) {
      if (name.rfind("sim.island", 0) != 0) d[name] = v;
    }
    d["radio.frames_per_reading"] = d["frames_per_reading"];
    d["pdes.island_event_skew"] =
        max_events / (sum_events / static_cast<double>(world.islands()));
    round.timing["sim.host_ns_per_event"] =
        round.host_s * 1e9 / delta["sim.events"];
  }
  world.stop();
  return out;
}

Round city_timed_round(const Options& opt, bool /*first*/, Result& res) {
  return city_round(opt, lanes(), res).round;
}

}  // namespace

Result run_city_islands(const Options& opt) {
  if (!opt.check_lanes) return run_rounds(opt, city_timed_round);
  // Lane invariance: the world digest and every deterministic figure of
  // a multi-lane run equal those of the serial (lanes = 1) oracle.
  Result res;
  const CityRound serial = city_round(opt, 1, res);
  const CityRound parallel = city_round(opt, lanes(), res);
  res.check(serial.digest == parallel.digest,
            "city: digest differs between lanes=1 and lanes=" +
                std::to_string(lanes()));
  res.check(serial.round.det == parallel.round.det,
            "city: deterministic metrics differ between lane counts");
  res.attempted = serial.round.attempted + parallel.round.attempted;
  res.metrics = serial.round.det;
  return res;
}

}  // namespace perfbench
