// backend_ingest: the backend tier alone, behind core::System's ingest.
//
// No mesh. Every device series is sampled every kSamplePeriod and its
// readings are forwarded once a cycle (kPerBatch of them) in one
// System::ingest call, as an edge gateway that buffers its polls would.
// Every kSamplePeriod, after the clock advances (and the cycle's
// forwarding pass, at its end), a dashboard refreshes: one
// trailing-window aggregate tile per series and one downsampled trend per
// temperature series, through System::store().
// One window rule per line watches its temperature series. A few probe
// series carry full-precision doubles that must be stored bit for bit.
//
// Readings are a pure function of (seed, series, sample index), so the
// benchmark keeps no copy of what it sent: it regenerates the values to
// check each dashboard answer of the first round as it comes back (later
// rounds must repeat those answers bit for bit) and, at the end of every
// round, every stored point and every rule firing. The process's memory
// is then mostly the store's.
//
// A round builds the System, loads kHistoryCycles of readings (set-up)
// and measures kCycles cycles.
#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "core/system.hpp"

namespace perfbench {
namespace {

using namespace iiot;
using sim::operator""_s;

constexpr std::size_t kLines = 8;
// Per line, two series each. The points the dashboard reads each step
// (about 1 MiB) stay within a core's own cache; with 125 devices per line
// they spilled into the cache shared with other tenants of the machine,
// and the workload ran at 55-100 % of its speed for whole runs at a time.
constexpr std::size_t kDevices = 16;
constexpr std::size_t kProbeSeries = 1;  // per line
// The gateway's default polling interval (interop::GatewayConfig).
constexpr sim::Duration kSamplePeriod = 10_s;
constexpr std::size_t kPerBatch = 6;  // readings per series per ingest call
constexpr sim::Duration kCycle = kPerBatch * kSamplePeriod;
constexpr std::size_t kHistoryCycles = 60;  // 1 h, loaded during set-up
constexpr std::size_t kCycles = 15;         // 15 min, measured per round
// The dashboard refreshes as often as the devices are polled.
constexpr std::size_t kRefreshes = kPerBatch;  // per cycle
constexpr sim::Duration kTileWindow = 900_s;    // aggregate, every series
constexpr sim::Duration kTrendWindow = 3600_s;  // downsample, temperatures
constexpr sim::Duration kBucket = 60_s;
// Trailing average of four sampling periods over at least three samples,
// as the factory-line interlock scenario sets its window rule.
constexpr sim::Duration kRuleWindow = 4 * kSamplePeriod;
constexpr std::uint32_t kMinSamples = 3;

struct Series {
  std::string topic;
  backend::SeriesId id = backend::kInvalidSeries;
  std::uint64_t key = 0;  // seeds this series' noise
  bool probe = false;
  bool temperature = false;
  // Centi-unit signal: base + a triangle wave of amplitude amp and
  // period wave samples, offset by shift samples, plus noise.
  int base = 0;
  int amp = 0;
  int wave = 1;
  int shift = 0;
  int lo = 0;
  int hi = 0;
  sim::Duration phase = 0;  // sampling instant within the period

  /// Sample `i` of the series (0 = the first sample of the round).
  [[nodiscard]] double value(std::size_t i) const {
    if (probe) return kProbeValues[i % kProbeCount];
    const auto noise = static_cast<int>(
        SplitMix64(key ^ (0x9E3779B97F4A7C15ULL * (i + 1))).next() % 301);
    const int p = static_cast<int>((i + static_cast<std::size_t>(shift)) %
                                   static_cast<std::size_t>(wave));
    const int tri = p < wave / 2 ? p : wave - p;  // 0 .. wave/2
    const int c = base + 2 * amp * tri / wave + noise - 150;
    return std::clamp(c, lo, hi) / 100.0;
  }
  /// Simulated time at which sample `i` was taken. The batch holding it
  /// is ingested at the end of its cycle.
  [[nodiscard]] sim::Time sampled_at(std::size_t i) const {
    const std::size_t cycle = i / kPerBatch + 1;
    const std::size_t k = i % kPerBatch;
    return cycle * kCycle - (kPerBatch - 1 - k) * kSamplePeriod - phase;
  }
};

Series make_series(std::uint64_t seed, std::size_t index, bool temperature,
                   bool probe) {
  Series s;
  s.probe = probe;
  s.temperature = temperature;
  Rng rng(seed, 0x5E0000 + index);
  s.key = rng.next_u64();
  if (temperature) {
    s.base = static_cast<int>(rng.range(2000, 5500));
    s.amp = static_cast<int>(rng.range(0, 2500));
    s.lo = 1500;
    s.hi = 8000;
  } else {
    s.base = static_cast<int>(rng.range(95000, 105000));
    s.amp = static_cast<int>(rng.range(0, 2000));
    s.lo = 90000;
    s.hi = 110000;
  }
  s.wave = static_cast<int>(rng.range(60, 720));
  s.shift = static_cast<int>(rng.below(static_cast<std::uint32_t>(s.wave)));
  s.phase = rng.below(static_cast<std::uint32_t>(kSamplePeriod));
  return s;
}

struct Firing {
  std::uint32_t series = 0;
  sim::Time at = 0;
  double value = 0.0;
};

/// Sums of n centi-unit values may round differently in another order;
/// the bound is n ulps of the magnitude sum.
bool close(double a, double b, double magnitude, std::size_t n) {
  return std::fabs(a - b) <=
         static_cast<double>(n + 1) * 2.3e-16 * magnitude;
}

/// Visits (ingest time, value) of every reading of `s` stored in
/// [from, to], in ingest order, for a store holding `cycles` cycles.
template <typename F>
void for_each_sent(const Series& s, std::size_t cycles, sim::Time from,
                   sim::Time to, F&& f) {
  const std::size_t first = std::max<std::size_t>(1, (from + kCycle - 1) / kCycle);
  const std::size_t last = std::min<std::size_t>(cycles, to / kCycle);
  for (std::size_t c = first; c <= last; ++c) {
    for (std::size_t k = 0; k < kPerBatch; ++k) {
      f(c * kCycle, s.value((c - 1) * kPerBatch + k));
    }
  }
}

Round ingest_round(const Options& opt, bool first, Result& res) {
  sim::Scheduler sched;
  core::System system(sched, opt.seed);

  // ---- inputs ---------------------------------------------------------
  std::vector<Series> series;
  for (std::size_t l = 0; l < kLines; ++l) {
    const std::string line = "line" + std::to_string(l);
    for (std::size_t d = 0; d < kDevices + kProbeSeries; ++d) {
      const bool probe = d >= kDevices;
      for (const char* obj : {"temp", "pressure"}) {
        if (probe && obj[0] == 'p') continue;
        const bool temperature = !probe && obj[0] == 't';
        Series s = make_series(opt.seed, series.size(), temperature, probe);
        s.topic = line + "/" + (probe ? "probe" : "dev") + std::to_string(d) +
                  "/" + (probe ? "raw" : obj);
        series.push_back(std::move(s));
      }
    }
  }
  std::unordered_map<std::string, std::uint32_t> index_of;
  for (std::size_t i = 0; i < series.size(); ++i) {
    index_of.emplace(series[i].topic, static_cast<std::uint32_t>(i));
  }

  std::vector<Firing> firings;
  for (std::size_t l = 0; l < kLines; ++l) {
    backend::WindowCondition cond;
    cond.topic_filter = "line" + std::to_string(l) + "/+/temp";
    cond.window = kRuleWindow;
    cond.fn = agg::AggFn::kAvg;
    cond.op = backend::CmpOp::kGreater;
    cond.threshold = kRuleThreshold;
    cond.min_samples = kMinSamples;
    backend::Action action;
    action.callback = [&](const backend::RuleFiring& f) {
      Span span("rule", Layer::kApp);
      const auto it = index_of.find(f.topic);
      if (it == index_of.end()) {
        res.fail("rule fired for unknown topic " + f.topic);
        return;
      }
      firings.push_back({it->second, sched.now(), f.value});
    };
    system.rules().add_window_rule("line" + std::to_string(l) + "-hot", cond,
                                   action);
  }

  // Layer counters, read at the clock-advance span of every cycle.
  const std::vector<std::string> counter_names = {
      "backend.bus.published",     "backend.bus.delivered",
      "backend.bus.trie_nodes_visited", "backend.store.appends",
      "backend.store.queries",     "backend.store.downsamples",
      "backend.store.chunk_scans", "backend.store.rollup_hits",
      "backend.rules.firings",     "backend.rules.window_skips"};
  auto counters = [&] {
    const backend::BusStats& bs = system.bus().stats();
    const backend::TimeSeriesStats& ts = system.store().stats();
    return std::vector<std::uint64_t>{
        bs.published,   bs.delivered,      bs.trie_nodes_visited,
        ts.appends,     ts.queries,        ts.downsamples,
        ts.chunk_scans, ts.rollup_hits,    system.rules().firings(),
        system.rules().window_skips()};
  };
  if (opt.trace) tracer().enable(counter_names);

  double ingest_s = 0.0;
  std::size_t cycles_done = 0;
  auto advance = [&](sim::Duration by) {
    Span span("run_until", Layer::kSim);
    sched.run_until(sched.now() + by);
    if (span.id() != 0) tracer().sample(span.id(), counters());
  };
  // Forwards each series' batch: the kPerBatch readings of this cycle.
  auto forward = [&] {
    const std::size_t first = cycles_done++ * kPerBatch;
    for (const Series& s : series) {
      double values[kPerBatch];
      for (std::size_t k = 0; k < kPerBatch; ++k) values[k] = s.value(first + k);
      Span span("ingest", Layer::kCore);
      const auto t0 = Clock::now();
      system.ingest(s.topic, values);
      ingest_s += seconds_since(t0);
    }
  };

  // ---- set-up: history --------------------------------------------------
  for (std::size_t c = 0; c < kHistoryCycles; ++c) {
    advance(kCycle);
    forward();
  }
  for (Series& s : series) s.id = system.store().find(s.topic);

  // ---- measured phase ---------------------------------------------------
  Round round;
  const backend::BusStats bus0 = system.bus().stats();
  const backend::TimeSeriesStats store0 = system.store().stats();
  const std::uint64_t firings0 = system.rules().firings();
  const std::uint64_t skips0 = system.rules().window_skips();
  const sim::Time t0 = sched.now();
  ingest_s = 0.0;
  double check_s = 0.0;  // checking dashboard answers; not measured
  std::vector<double> query_us;  // host time of each dashboard query
  query_us.reserve(kCycles * kRefreshes * kLines * kDevices * 3);
  std::uint64_t aggregates = 0;
  std::uint64_t downsamples = 0;
  double agg_us = 0.0;   // summed over aggregate calls
  double down_us = 0.0;  // summed over downsample calls
  std::vector<backend::Point> want;
  std::vector<std::size_t> counts;
  std::vector<double> mags;
  // Every answer is folded into `answers`. The first round checks each
  // answer against the benchmark's own computation over what it
  // ingested; later rounds must repeat the first bit for bit (the digest
  // is a deterministic figure), so they skip the naive computation, and
  // their dashboard steps run without it in between.
  std::uint64_t answers = 0;
  auto fold = [&answers](std::uint64_t x) {
    answers = (answers ^ x) * 0x9E3779B97F4A7C15ULL + 1;
  };
  auto refresh = [&] {
    const sim::Time now = sched.now();
    for (const Series& s : series) {
      if (s.probe) continue;
      // Tile: the series' trailing-window aggregate.
      agg::PartialAggregate got;
      {
        Span span("aggregate", Layer::kBackend);
        const auto t = Clock::now();
        got = system.store().aggregate(s.id, now - kTileWindow, now);
        query_us.push_back(seconds_since(t) * 1e6);
        agg_us += query_us.back();
      }
      ++aggregates;
      fold(got.count);
      fold(std::bit_cast<std::uint64_t>(got.sum));
      fold(std::bit_cast<std::uint64_t>(got.min));
      fold(std::bit_cast<std::uint64_t>(got.max));
      if (first) {
        const auto c0 = Clock::now();
        agg::PartialAggregate pa;
        for_each_sent(s, cycles_done, now - kTileWindow, now,
                      [&pa](sim::Time, double v) { pa.add_sample(v); });
        res.check(got.count == pa.count && got.min == pa.min &&
                      got.max == pa.max &&
                      close(got.sum, pa.sum, std::fabs(pa.sum), pa.count),
                  s.topic + ": aggregate differs from the naive one");
        check_s += seconds_since(c0);
      }
      if (!s.temperature) continue;

      // Trend: the temperature's bucket averages over a longer window.
      const sim::Time from = now - kTrendWindow;
      std::vector<backend::Point> buckets;
      {
        Span span("downsample", Layer::kBackend);
        const auto t = Clock::now();
        buckets = system.store().downsample(s.id, from, now, kBucket);
        query_us.push_back(seconds_since(t) * 1e6);
        down_us += query_us.back();
      }
      ++downsamples;
      std::uint64_t trend = buckets.size();
      for (const backend::Point& b : buckets) {
        trend += static_cast<std::uint64_t>(b.at) +
                 3 * std::bit_cast<std::uint64_t>(b.value);
      }
      fold(trend);
      if (!first) continue;
      const auto c1 = Clock::now();
      // Naive buckets aligned to `from`, in time order.
      want.clear();
      counts.clear();
      mags.clear();
      for_each_sent(s, cycles_done, from, now, [&](sim::Time at, double v) {
        const sim::Time start = from + (at - from) / kBucket * kBucket;
        if (want.empty() || want.back().at != start) {
          want.push_back({start, 0.0});
          counts.push_back(0);
          mags.push_back(0.0);
        }
        want.back().value += v;
        ++counts.back();
        mags.back() += std::fabs(v);
      });
      bool same = buckets.size() == want.size();
      for (std::size_t b = 0; same && b < want.size(); ++b) {
        const auto n = static_cast<double>(counts[b]);
        same = buckets[b].at == want[b].at &&
               close(buckets[b].value, want[b].value / n, mags[b] / n,
                     counts[b]);
      }
      res.check(same, s.topic + ": downsample differs from the naive one");
      check_s += seconds_since(c1);
    }
  };
  round.measure_begin = Clock::now();
  for (std::size_t c = 0; c < kCycles; ++c) {
    for (std::size_t r = 1; r <= kRefreshes; ++r) {
      const auto slice0 = Clock::now();
      const double check0 = check_s;
      advance(kCycle / kRefreshes);
      if (r == kRefreshes) {
        const double ingest0 = ingest_s;
        forward();
        round.readings_slice_s.push_back(ingest_s - ingest0);
      }
      refresh();
      round.slice_s.push_back(seconds_since(slice0) - (check_s - check0));
    }
  }
  round.host_s = seconds_since(round.measure_begin) - check_s;
  round.sim_s = sim::to_seconds(sched.now() - t0);

  // ---- checks -----------------------------------------------------------
  // Every ingested reading is stored once, in order, at its ingest time;
  // probes that lose bits are failed operations. Reading latency is the
  // stored time less the sample's own.
  std::uint64_t points = 0;
  std::map<sim::Duration, std::uint64_t> latency;  // measured phase only
  for (const Series& s : series) {
    const std::vector<backend::Point> got =
        system.store().query(s.id, 0, sim::kTimeNever);
    const std::size_t sent = cycles_done * kPerBatch;
    if (got.size() != sent) {
      res.fail(s.topic + ": " + std::to_string(got.size()) +
               " points stored, " + std::to_string(sent) + " sent");
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const sim::Time ingested = (i / kPerBatch + 1) * kCycle;
      const double v = s.value(i);
      const bool exact = got[i].at == ingested &&
                         std::bit_cast<std::uint64_t>(got[i].value) ==
                             std::bit_cast<std::uint64_t>(v);
      if (ingested <= t0) continue;
      ++points;
      ++latency[got[i].at - s.sampled_at(i)];
      if (exact) continue;
      if (s.probe && got[i].at == ingested) {
        ++round.failed;
      } else {
        res.fail(s.topic + ": stored point differs from the ingested one");
        break;
      }
    }
  }
  // Firings recomputed from the ingested sequence (ingest order within a
  // cycle; a window covers the points stored so far).
  {
    std::vector<std::vector<const Firing*>> got(series.size());
    for (const Firing& f : firings) got[f.series].push_back(&f);
    std::size_t expected = 0;
    std::vector<double> v(cycles_done * kPerBatch);
    for (std::size_t si = 0; si < series.size(); ++si) {
      const Series& s = series[si];
      if (!s.temperature) continue;
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = s.value(i);
      auto at = [](std::size_t i) { return (i / kPerBatch + 1) * kCycle; };
      const auto& mine = got[si];
      std::size_t k = 0;
      std::size_t lo = 0;
      for (std::size_t j = 0; j < v.size(); ++j) {
        const sim::Time from = at(j) >= kRuleWindow ? at(j) - kRuleWindow : 0;
        while (at(lo) < from) ++lo;
        double sum = 0.0;
        for (std::size_t i = lo; i <= j; ++i) sum += v[i];
        const std::size_t n = j - lo + 1;
        const double avg = sum / static_cast<double>(n);
        if (n < kMinSamples || !(avg > kRuleThreshold)) continue;
        ++expected;
        const bool ok = k < mine.size() && mine[k]->at == at(j) &&
                        close(mine[k]->value, avg, avg, n);
        if (!ok) {
          res.fail(s.topic + ": firing differs from the recomputed one");
          break;
        }
        ++k;
      }
      res.check(k == mine.size(), s.topic + ": unexpected firings");
    }
    res.check(expected == firings.size(), "firing count differs");
  }

  // ---- metrics ----------------------------------------------------------
  round.attempted = points + aggregates + downsamples;
  round.readings = static_cast<double>(points);
  const backend::BusStats& bs = system.bus().stats();
  const backend::TimeSeriesStats& ts = system.store().stats();
  res.check(ts.appends - store0.appends == points,
            "store appends differ from readings ingested");
  auto latency_pct = [&latency, points](double q) {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(points))));
    std::uint64_t seen = 0;
    for (const auto& [d, n] : latency) {
      seen += n;
      if (seen >= rank) return sim::to_millis(d);
    }
    return 0.0;
  };
  auto& d = round.det;
  d["readings_delivered"] = static_cast<double>(points);
  d["reading_latency_p50_ms"] = latency_pct(0.50);
  d["reading_latency_p99_ms"] = latency_pct(0.99);
  d["dashboard_digest"] = static_cast<double>(answers >> 11);  // exact
  round.timing["query_p50_us"] = percentile(query_us, 0.50);
  round.timing["query_p99_us"] = percentile(query_us, 0.99);
  if (opt.trace) {
    d["backend.bus.delivered"] =
        static_cast<double>(bs.delivered - bus0.delivered);
    d["backend.bus.trie_nodes_visited"] =
        static_cast<double>(bs.trie_nodes_visited - bus0.trie_nodes_visited);
    d["backend.store.appends"] = static_cast<double>(ts.appends - store0.appends);
    d["backend.store.chunk_scans"] =
        static_cast<double>(ts.chunk_scans - store0.chunk_scans);
    d["backend.store.rollup_hits"] =
        static_cast<double>(ts.rollup_hits - store0.rollup_hits);
    d["backend.rules.firings"] =
        static_cast<double>(system.rules().firings() - firings0);
    d["backend.rules.window_skips"] =
        static_cast<double>(system.rules().window_skips() - skips0);
    round.timing["core.ingest_ns_per_point"] =
        ingest_s * 1e9 / static_cast<double>(points);
    round.timing["backend.store.aggregate_us"] =
        agg_us / static_cast<double>(aggregates);
    round.timing["backend.store.downsample_us"] =
        down_us / static_cast<double>(downsamples);
    round.timing["backend.query_p50_us"] = round.timing["query_p50_us"];
    round.timing["backend.query_p99_us"] = round.timing["query_p99_us"];
  }
  return round;
}

}  // namespace

Result run_backend_ingest(const Options& opt) {
  return run_rounds(opt, ingest_round);
}

}  // namespace perfbench
