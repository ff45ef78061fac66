// plant_mesh: the whole sensing-and-actuation path of Fig. 1.
//
// One core::System with kSites plants. Each plant is a CSMA/RPL mesh of
// kSide x kSide nodes on its own radio medium, bridged into the backend
// at its border router. Every non-root node samples a temperature every
// kPeriod; one window rule per plant averages each node's trailing
// kWindow and, above kRuleThreshold, actuates that node's fan through
// System::actuate. Each border router also samples a precision probe
// (full-precision doubles that must reach the store bit for bit).
//
// Load is open-loop in simulated time. A round builds the plants, forms
// the meshes (kWarmup, part of set-up) and then measures kMeasure of
// simulated operation; run_rounds() repeats identical rounds until the
// host budget is spent.
#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "core/system.hpp"
#include "counters.hpp"

namespace perfbench {
namespace {

using namespace iiot;
using sim::operator""_s;

constexpr std::size_t kSites = 4;
constexpr std::size_t kSide = 13;  // 169 nodes per plant
constexpr double kPitch = 20.0;    // metres between grid points
constexpr double kJitter = 4.0;    // seeded placement jitter, metres
constexpr sim::Duration kPeriod = 15_s;
constexpr sim::Duration kWarmup = 600_s;    // mesh formation, in set-up
constexpr sim::Duration kMeasure = 1200_s;  // a whole number of periods
constexpr sim::Duration kSlice = 10_s;      // one run_until call
constexpr std::uint16_t kTempObject = 3303;
constexpr std::uint16_t kFanObject = 3306;
constexpr std::uint16_t kProbeObject = 9001;
constexpr sim::Duration kWindow = 60_s;
constexpr std::size_t kHotEvery = 16;
// The plants themselves (placement, radio shadowing, protocol randomness)
// are the same in every run; the seed drives what they sense and when.
constexpr std::uint64_t kLayoutSeed = 0x1107;
constexpr std::uint32_t kMinSamples = 2;
constexpr int kCentiLo = -2000;   // -20.00
constexpr int kCentiHi = 14000;   // 140.00

struct Sample {
  sim::Time at = 0;
  double value = 0.0;
};

/// One node's temperature sensor: a seeded centi-unit signal whose values
/// never repeat for a node, so every stored point names its sample.
struct Sensor {
  std::size_t site = 0;
  NodeId node = 0;
  std::string topic;
  Rng rng{0};
  int base = 0;
  int amp = 0;
  int cycle = 1;
  int phase = 0;
  std::vector<bool> used = std::vector<bool>(kCentiHi - kCentiLo, false);
  std::vector<Sample> samples;
  std::unordered_map<std::uint64_t, std::uint32_t> by_bits;

  double next(sim::Time now) {
    const double k = static_cast<double>(samples.size() + phase);
    int c = base + static_cast<int>(std::lround(
                       amp * std::sin(2.0 * 3.141592653589793 * k / cycle))) +
            static_cast<int>(rng.range(-80, 80));
    c = std::clamp(c, kCentiLo, kCentiHi - 1);
    // Step to the nearest unused value (wrapping within the range).
    while (used[c - kCentiLo]) c = c + 1 < kCentiHi ? c + 1 : kCentiLo;
    used[c - kCentiLo] = true;
    const double v = c / 100.0;
    by_bits.emplace(std::bit_cast<std::uint64_t>(v),
                    static_cast<std::uint32_t>(samples.size()));
    samples.push_back({now, v});
    return v;
  }
};

struct Firing {
  std::size_t sensor = 0;  // index into sensors
  sim::Time at = 0;
  double aggregate = 0.0;
};

struct Applied {
  std::size_t sensor = 0;  // actuator's node, as a sensor index
  double command = 0.0;    // the firing index the command carries
  sim::Time at = 0;
};

struct Site {
  std::string name;
  std::unique_ptr<radio::Medium> medium;
  std::unique_ptr<core::MeshNetwork> mesh;
  std::size_t root_index = 0;
  std::vector<Sample> probes;
};

Round plant_round(const Options& opt, bool /*first*/, Result& res) {
  Rng world_rng(kLayoutSeed, 0x9A17);
  sim::Scheduler sched;
  core::SystemConfig scfg;
  core::System system(sched, opt.seed, scfg);

  core::NodeConfig ncfg;
  ncfg.rpl.downward_routes = opt.downward_routes;

  std::vector<Site> sites(kSites);
  std::vector<Sensor> sensors;
  std::unordered_map<NodeId, std::size_t> sensor_of;  // node id -> index
  std::vector<Firing> firings;
  std::vector<Applied> applied;
  std::uint64_t refused = 0;

  // Meshes are built here rather than through System::add_mesh so that
  // every plant gets its own node-id range (see CHANGES.md).
  const std::size_t per_site = kSide * kSide;
  for (std::size_t s = 0; s < kSites; ++s) {
    Site& site = sites[s];
    site.name = "plant" + std::to_string(s);
    site.medium = std::make_unique<radio::Medium>(sched, scfg.propagation,
                                                  world_rng.next_u64());
    site.mesh = std::make_unique<core::MeshNetwork>(
        sched, *site.medium, Rng(kLayoutSeed, 0x5100 + s), ncfg,
        static_cast<NodeId>(s * per_site));
    for (std::size_t y = 0; y < kSide; ++y) {
      for (std::size_t x = 0; x < kSide; ++x) {
        site.mesh->add_node(
            {static_cast<double>(x) * kPitch + world_rng.uniform(-kJitter, kJitter),
             static_cast<double>(y) * kPitch +
                 world_rng.uniform(-kJitter, kJitter)});
      }
    }
    site.root_index = (kSide / 2) * kSide + kSide / 2;
  }

  // Sensors and actuators go on before bridge(): the bridge owns the
  // border router's delivery upcall from then on.
  for (std::size_t s = 0; s < kSites; ++s) {
    Site& site = sites[s];
    core::MeshNetwork& mesh = *site.mesh;
    for (std::size_t i = 0; i < mesh.size(); ++i) {
      core::MeshNode& node = mesh.node(i);
      if (i == site.root_index) {
        system.add_periodic_sensor(node, kProbeObject, kPeriod,
                                   [&sched, &site] {
                                     Span span("probe_sensor", Layer::kApp);
                                     const double v =
                                         kProbeValues[site.probes.size() %
                                                 kProbeCount];
                                     site.probes.push_back({sched.now(), v});
                                     return v;
                                   });
        continue;
      }
      const std::size_t idx = sensors.size();
      sensor_of[node.id] = idx;
      Sensor& sn = sensors.emplace_back();
      sn.site = s;
      sn.node = node.id;
      sn.topic = site.name + "/" + std::to_string(node.id) + "/" +
                 std::to_string(kTempObject);
      sn.rng = Rng(opt.seed, 0x7E3000 + node.id);
      // One sensor in kHotEvery runs hot: its cycle peaks above the rule's
      // threshold, so every plant sends commands back down.
      const bool hot = idx % kHotEvery == kHotEvery / 2;
      sn.base = static_cast<int>(hot ? sn.rng.range(6400, 6800)
                                     : sn.rng.range(2500, 5500));
      sn.amp = static_cast<int>(hot ? sn.rng.range(800, 1500)
                                    : sn.rng.range(200, 1200));
      sn.cycle = static_cast<int>(sn.rng.range(12, 40));
      sn.phase = static_cast<int>(sn.rng.range(0, 40));
    }
  }
  sensors.shrink_to_fit();  // addresses are stable from here on
  for (std::size_t idx = 0; idx < sensors.size(); ++idx) {
    Sensor& sn = sensors[idx];
    core::MeshNode& node =
        sites[sn.site].mesh->node(sn.node - sn.site * per_site);
    system.add_periodic_sensor(node, kTempObject, kPeriod, [&sched, &sn] {
      Span span("sensor", Layer::kApp);
      return sn.next(sched.now());
    });
    system.add_actuator(node, kFanObject, [&sched, &applied, idx](double v) {
      Span span("actuator", Layer::kApp);
      applied.push_back({idx, v, sched.now()});
    });
  }

  for (std::size_t s = 0; s < kSites; ++s) {
    Site& site = sites[s];
    site.mesh->start(site.root_index);
    system.bridge(site.name, *site.mesh);
    backend::WindowCondition cond;
    cond.topic_filter = site.name + "/+/" + std::to_string(kTempObject);
    cond.window = kWindow;
    cond.fn = agg::AggFn::kAvg;
    cond.op = backend::CmpOp::kGreater;
    cond.threshold = kRuleThreshold;
    cond.min_samples = kMinSamples;
    backend::Action action;
    action.callback = [&, s](const backend::RuleFiring& f) {
      Span span("rule", Layer::kApp);
      // Topic is "<site>/<node>/<object>".
      const auto a = f.topic.find('/');
      const auto b = f.topic.find('/', a + 1);
      const auto node = static_cast<NodeId>(
          std::stoul(f.topic.substr(a + 1, b - a - 1)));
      const auto it = sensor_of.find(node);
      if (it == sensor_of.end()) {
        res.fail("rule fired for unknown topic " + f.topic);
        return;
      }
      const double id = static_cast<double>(firings.size());
      firings.push_back({it->second, sched.now(), f.value});
      bool sent = false;
      {
        Span call("actuate", Layer::kCore);
        sent = system.actuate(*sites[s].mesh, node, kFanObject, id);
      }
      if (!sent) ++refused;
    };
    system.rules().add_window_rule(site.name + "-overheat", cond, action);
  }

  auto mesh_counters = [&] {
    MeshCounters c;
    for (Site& site : sites) {
      c.add(site.medium->stats());
      for (std::size_t i = 0; i < site.mesh->size(); ++i) {
        c.add(site.mesh->node(i));
      }
    }
    return c;
  };
  // Layer counters read at span boundaries, named as per-layer metrics.
  std::vector<std::string> counter_names = MeshCounters::names();
  counter_names.insert(
      counter_names.end(),
      {"sim.events", "backend.bus.delivered", "backend.bus.trie_nodes_visited",
       "backend.store.appends", "backend.store.chunk_scans",
       "backend.store.rollup_hits", "backend.rules.firings",
       "backend.rules.window_skips", "core.actuate_refused"});
  auto counters = [&] {
    std::vector<std::uint64_t> v = mesh_counters().values();
    const backend::BusStats& bs = system.bus().stats();
    const backend::TimeSeriesStats& ts = system.store().stats();
    v.insert(v.end(), {sched.executed_events(), bs.delivered,
                       bs.trie_nodes_visited, ts.appends, ts.chunk_scans,
                       ts.rollup_hits, system.rules().firings(),
                       system.rules().window_skips(), refused});
    return v;
  };
  if (opt.trace) tracer().enable(counter_names);

  // ---- set-up: formation ------------------------------------------------
  sched.run_until(kWarmup);

  // ---- measured phase ---------------------------------------------------
  Round round;
  const sim::Time t0 = sched.now();
  const sim::Time t_end = t0 + kMeasure;
  const std::vector<std::uint64_t> at0 = counters();
  round.measure_begin = Clock::now();
  for (sim::Time t = t0 + kSlice; t <= t_end; t += kSlice) {
    const auto slice0 = Clock::now();
    {
      Span span("run_until", Layer::kSim);
      sched.run_until(t);
      if (span.id() != 0) tracer().sample(span.id(), counters());
    }
    round.slice_s.push_back(seconds_since(slice0));
  }
  round.host_s = seconds_since(round.measure_begin);
  round.sim_s = sim::to_seconds(kMeasure);
  const std::vector<std::uint64_t> at_end = counters();
  std::map<std::string, double> delta;
  for (std::size_t i = 0; i < counter_names.size(); ++i) {
    delta[counter_names[i]] = static_cast<double>(at_end[i] - at0[i]);
  }

  // ---- checks against the benchmark's own record -----------------------
  std::vector<double> latency_ms;  // readings stored in the measured phase
  std::size_t stored_series = 0;
  for (Sensor& sn : sensors) {
    const auto pts = system.store().query(sn.topic, 0, sim::kTimeNever);
    if (!pts.empty()) ++stored_series;
    std::vector<bool> consumed(sn.samples.size(), false);
    for (const backend::Point& p : pts) {
      const auto it = sn.by_bits.find(std::bit_cast<std::uint64_t>(p.value));
      if (it == sn.by_bits.end()) {
        res.fail(sn.topic + ": stored value " + std::to_string(p.value) +
                 " was never sampled");
        continue;
      }
      const Sample& smp = sn.samples[it->second];
      if (consumed[it->second]) {
        res.fail(sn.topic + ": sample stored twice");
      } else if (smp.at > p.at) {
        res.fail(sn.topic + ": stored before it was sampled");
      }
      consumed[it->second] = true;
      if (p.at > t0) latency_ms.push_back(sim::to_millis(p.at - smp.at));
    }
  }
  std::uint64_t probes_measured = 0;
  for (Site& site : sites) {
    core::MeshNode& root = site.mesh->node(site.root_index);
    const std::string topic = site.name + "/" + std::to_string(root.id) +
                              "/" + std::to_string(kProbeObject);
    const auto pts = system.store().query(topic, 0, sim::kTimeNever);
    if (!pts.empty()) ++stored_series;
    res.check(pts.size() == site.probes.size(),
              topic + ": probes sampled and stored differ in number");
    for (std::size_t k = 0; k < std::min(pts.size(), site.probes.size());
         ++k) {
      const Sample& smp = site.probes[k];
      res.check(pts[k].at == smp.at, topic + ": probe stored late");
      if (smp.at <= t0) continue;
      ++probes_measured;
      latency_ms.push_back(0.0);
      // A probe stored with other bits is the round trip's fault: it
      // counts as a failed operation, not as a broken run.
      if (std::bit_cast<std::uint64_t>(pts[k].value) !=
          std::bit_cast<std::uint64_t>(smp.value)) {
        ++round.failed;
      }
    }
  }
  res.check(stored_series == system.store().series_count(),
            "store holds series the benchmark never fed");

  // Readings counted at the roots against readings in the store.
  {
    std::uint64_t at_roots = 0;
    for (Site& site : sites) {
      at_roots +=
          site.mesh->node(site.root_index).routing->stats().data_delivered;
    }
    res.check(at_roots == system.store().stats().appends,
              "root deliveries (" + std::to_string(at_roots) +
                  ") != stored points (" +
                  std::to_string(system.store().stats().appends) + ")");
  }
  // Firings recomputed from the stored sequence of each series: the
  // trailing-window average of the benchmark's own sample values.
  {
    std::vector<std::vector<std::size_t>> fired_by(sensors.size());
    for (std::size_t f = 0; f < firings.size(); ++f) {
      fired_by[firings[f].sensor].push_back(f);
    }
    for (std::size_t idx = 0; idx < sensors.size(); ++idx) {
      const Sensor& sn = sensors[idx];
      const auto pts = system.store().query(sn.topic, 0, sim::kTimeNever);
      std::vector<std::size_t> expect;
      std::vector<double> expect_avg;
      std::size_t lo = 0;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        const sim::Time from = pts[j].at >= kWindow ? pts[j].at - kWindow : 0;
        while (pts[lo].at < from) ++lo;
        double sum = 0.0;
        for (std::size_t i = lo; i <= j; ++i) {
          const auto it =
              sn.by_bits.find(std::bit_cast<std::uint64_t>(pts[i].value));
          sum += it == sn.by_bits.end() ? pts[i].value
                                        : sn.samples[it->second].value;
        }
        const std::size_t n = j - lo + 1;
        const double avg = sum / static_cast<double>(n);
        if (n >= kMinSamples && avg > kRuleThreshold) {
          expect.push_back(j);
          expect_avg.push_back(avg);
        }
      }
      const auto& got = fired_by[idx];
      if (got.size() != expect.size()) {
        res.fail(sn.topic + ": " + std::to_string(got.size()) +
                 " firings, expected " + std::to_string(expect.size()));
        continue;
      }
      for (std::size_t k = 0; k < got.size(); ++k) {
        const Firing& f = firings[got[k]];
        res.check(f.at == pts[expect[k]].at &&
                      std::fabs(f.aggregate - expect_avg[k]) <=
                          1e-9 * std::fabs(expect_avg[k]),
                  sn.topic + ": firing differs from the recomputed one");
      }
    }
  }

  // Every applied command matches one firing, at that firing's node.
  std::vector<double> command_ms;
  {
    std::vector<bool> seen(firings.size(), false);
    for (const Applied& a : applied) {
      const auto id = static_cast<std::size_t>(a.command);
      if (a.command != static_cast<double>(id) || id >= firings.size()) {
        res.fail("command " + std::to_string(a.command) +
                 " matches no firing");
        continue;
      }
      res.check(!seen[id], "command applied twice");
      seen[id] = true;
      res.check(firings[id].sensor == a.sensor,
                "command applied at the wrong actuator");
      res.check(a.at >= firings[id].at, "command applied before firing");
      if (a.at > t0) {
        command_ms.push_back(sim::to_millis(a.at - firings[id].at));
      }
    }
  }

  // ---- metrics ----------------------------------------------------------
  // The measured phase samples each sensor kMeasure / kPeriod times.
  const std::uint64_t per_sensor = kMeasure / kPeriod;
  round.attempted = per_sensor * (sensors.size() + kSites);
  res.check(probes_measured == per_sensor * kSites,
            "probe count differs from the sampling schedule");

  const auto delivered = static_cast<double>(latency_ms.size());
  round.readings = delta["backend.store.appends"];
  res.check(round.readings == delivered,
            "appends in the measured phase != readings checked");
  auto& d = round.det;
  d["readings_delivered"] = delivered;
  d["reading_latency_p50_ms"] = percentile(latency_ms, 0.50);
  d["reading_latency_p99_ms"] = percentile(latency_ms, 0.99);
  d["frames_per_reading"] = delta["radio.transmissions"] / delivered;
  d["commands_applied"] = static_cast<double>(command_ms.size());
  d["command_latency_p50_ms"] = percentile(command_ms, 0.50);
  if (opt.trace) {
    d.insert(delta.begin(), delta.end());
    d["radio.frames_per_reading"] = d["frames_per_reading"];
    d["core.commands_applied"] = d["commands_applied"];
    d["core.command_latency_p50_ms"] = d["command_latency_p50_ms"];
    round.timing["sim.host_ns_per_event"] =
        round.host_s * 1e9 / delta["sim.events"];
  }
  return round;
}

}  // namespace

Result run_plant_mesh(const Options& opt) {
  return run_rounds(opt, plant_round);
}

}  // namespace perfbench
