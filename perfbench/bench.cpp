#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

Clock::time_point g_process_start = Clock::now();

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"readings_per_s", "1/s"},
    {"sim_speed", "s/s"},
    {"readings_delivered", "count"},
    {"reading_latency_p50_ms", "ms"},
    {"reading_latency_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kDetail = {
    {"frames_per_reading", "ratio"},
    {"commands_applied", "count"},
    {"command_latency_p50_ms", "ms"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"rounds", "count"},
};

const std::vector<MetricSpec> kPerLayer = {
    // sim / radio / mac / net: plant_mesh and city_islands
    {"net.dao_tx", "count"},
    {"net.dio_tx", "count"},
    {"net.parent_changes", "count"},
    {"net.drops", "count"},
    {"net.data_delivered", "count"},
    {"mac.retries", "count"},
    {"mac.failed", "count"},
    {"mac.queue_drops", "count"},
    {"radio.collisions", "count"},
    {"radio.transmissions", "count"},
    {"radio.frames_per_reading", "ratio"},
    {"radio.cross_island_tx", "count"},
    {"radio.cross_island_rx", "count"},
    {"pdes.island_event_skew", "ratio"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    // core / backend: backend_ingest and plant_mesh
    {"core.ingest_ns_per_point", "ns"},
    {"backend.bus.delivered", "count"},
    {"backend.bus.trie_nodes_visited", "count"},
    {"backend.store.appends", "count"},
    {"backend.rules.firings", "count"},
    {"backend.rules.window_skips", "count"},
    {"backend.store.aggregate_us", "us"},
    {"backend.store.downsample_us", "us"},
    {"backend.store.chunk_scans", "count"},
    {"backend.store.rollup_hits", "count"},
    {"backend.query_p50_us", "us"},
    {"backend.query_p99_us", "us"},
    {"core.actuate_refused", "count"},
    {"core.commands_applied", "count"},
    {"core.command_latency_p50_ms", "ms"},
    // the benchmark itself
    {"app.callback_s", "s"},
    {"trace.spans", "count"},
    {"trace.sim_speed", "s/s"},
    {"trace.readings_per_s", "1/s"},
};

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  // VmHWM is this program's own peak. ru_maxrss also keeps the peak of
  // the process image before exec, i.e. of whatever forked it.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Result run_rounds(const Options& opt,
                  Round (*one)(const Options& opt, bool first, Result& res)) {
  Result res;
  std::vector<Round> rounds;
  while (rounds.empty() ||
         seconds_since(rounds.front().measure_begin) < opt.seconds) {
    rounds.push_back(one(opt, rounds.empty(), res));
    const Round& r = rounds.back();
    // Later rounds repeat the first; the heap they leave behind would
    // only make the peak depend on how many fit in the budget.
    if (rounds.size() == 1) res.metrics["peak_rss_mb"] = peak_rss_mb();
    res.attempted += r.attempted;
    res.failed += r.failed;
    for (const auto& [name, v] : r.det) {
      const double first = rounds.front().det.at(name);
      if (std::bit_cast<std::uint64_t>(v) !=
          std::bit_cast<std::uint64_t>(first)) {
        res.fail("round " + std::to_string(rounds.size()) + " " + name +
                 " = " + std::to_string(v) + ", round 1 had " +
                 std::to_string(first));
      }
    }
  }
  auto median = [&rounds](auto&& get) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(get(r));
    return percentile(v, 0.5);
  };
  res.metrics.insert(rounds.front().det.begin(), rounds.front().det.end());
  for (const auto& [name, v] : rounds.front().timing) {
    res.metrics[name] =
        median([&name](const Round& r) { return r.timing.at(name); });
  }
  // One cold set-up, from the process's start; later rounds' set-ups are
  // warm and measure another thing.
  res.metrics["setup_s"] = std::chrono::duration<double>(
                               rounds.front().measure_begin - g_process_start)
                               .count();
  // Rates come from slices. Slice k does the same work in every round,
  // and its fastest time over the rounds is the program's own speed on
  // it: other tenants of a shared machine (its caches and cores) slow the
  // program by up to half, in bursts that come and go within a second, so
  // a whole round is seldom free of them, but a slice of 15 ms or less
  // is, in some round. The sum of fastest slices does not depend on how many
  // bursts a run happens to meet.
  auto best_sum = [&rounds, &res](std::vector<double> Round::*slices) {
    auto of = [slices](const Round& r) -> const std::vector<double>& {
      return (r.*slices).empty() ? r.slice_s : r.*slices;
    };
    std::vector<double> best = of(rounds.front());
    for (const Round& r : rounds) {
      const std::vector<double>& s = of(r);
      if (s.size() != best.size()) {
        res.fail("rounds differ in their number of slices");
        return 0.0;
      }
      for (std::size_t k = 0; k < s.size(); ++k) {
        best[k] = std::min(best[k], s[k]);
      }
    }
    double sum = 0.0;
    for (const double b : best) sum += b;
    return sum;
  };
  res.metrics["readings_per_s"] =
      rounds.front().readings / best_sum(&Round::readings_slice_s);
  res.metrics["sim_speed"] = rounds.front().sim_s / best_sum(&Round::slice_s);
  res.metrics["rounds"] = static_cast<double>(rounds.size());
  if (tracer().on()) {
    res.metrics["app.callback_s"] =
        tracer().self_seconds()["app"] / static_cast<double>(rounds.size());
    res.metrics["trace.spans"] = static_cast<double>(tracer().span_count());
    // The traced run's own speed; against an untraced run of the same
    // seed it gives the tracing overhead.
    res.metrics["trace.sim_speed"] = res.metrics["sim_speed"];
    res.metrics["trace.readings_per_s"] = res.metrics["readings_per_s"];
  }
  return res;
}

namespace {

constexpr unsigned kLocalBits = 24;
constexpr std::uint32_t kLocalMask = (1u << kLocalBits) - 1;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSim: return "sim";
    case Layer::kCore: return "core";
    case Layer::kBackend: return "backend";
    case Layer::kApp: return "app";
  }
  return "?";
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::enable(std::vector<std::string> counter_names) {
  counter_names_ = std::move(counter_names);
  on_ = true;
}

Tracer::ThreadLog& Tracer::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->next_id = static_cast<std::uint32_t>(logs_.size() - 1) << kLocalBits;
  }
  return *log;
}

std::uint32_t Tracer::open(const char* name, Layer layer) {
  ThreadLog& log = local();
  SpanRecord r;
  r.name = name;
  r.layer = layer;
  // Ids wrap within the thread's range; they only link a stored span to
  // its parent.
  std::uint32_t local = (log.next_id + 1) & kLocalMask;
  if (local == 0) local = 1;  // 0 means "no span"
  r.id = (log.next_id & ~kLocalMask) | local;
  log.next_id = r.id;
  r.parent = log.open.empty() ? 0 : log.open.back().id;
  r.start_ns = now_ns();
  log.open.push_back(r);
  return r.id;
}

void Tracer::close(std::uint32_t id) {
  const std::int64_t end = now_ns();
  ThreadLog& log = local();
  SpanRecord r = log.open.back();
  log.open.pop_back();
  (void)id;  // spans close innermost first (RAII)
  r.end_ns = end;
  const std::int64_t dur = end - r.start_ns;
  log.self_ns[static_cast<std::size_t>(r.layer)] += dur - r.child_ns;
  if (!log.open.empty()) log.open.back().child_ns += dur;
  ++log.closed;
  if (log.done.size() < kMaxStoredSpans) log.done.push_back(r);
}

void Tracer::sample(std::uint32_t span, std::vector<std::uint64_t> values) {
  const std::int64_t at = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back({span, at, std::move(values)});
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      out[layer_name(static_cast<Layer>(l))] +=
          static_cast<double>(log->self_ns[l]) * 1e-9;
    }
  }
  return out;
}

std::uint64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& log : logs_) n += log->closed;
  return n;
}

bool Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Times are nanoseconds since the process started.
  const std::int64_t base = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                g_process_start.time_since_epoch())
                                .count();
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t stored = 0;
  std::uint64_t closed = 0;
  for (const auto& log : logs_) {
    stored += log->done.size();
    closed += log->closed;
  }
  std::fprintf(f,
               "{\"workload\":\"%s\",\"seed\":%llu,\"spans_closed\":%llu,"
               "\"spans_stored\":%llu,\"spans\":[",
               workload.c_str(), static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(closed),
               static_cast<unsigned long long>(stored));
  bool first = true;
  for (const auto& log : logs_) {
    for (const SpanRecord& r : log->done) {
      std::fprintf(f,
                   "%s\n{\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                   "\"layer\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}",
                   first ? "" : ",", r.id, r.parent, r.name,
                   layer_name(r.layer),
                   static_cast<long long>(r.start_ns - base),
                   static_cast<long long>(r.end_ns - base));
      first = false;
    }
  }
  std::fprintf(f, "],\n\"counter_names\":[");
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? "," : "", counter_names_[i].c_str());
  }
  std::fprintf(f, "],\n\"counters\":[");
  for (std::size_t s = 0; s < samples_.size(); ++s) {
    const CounterSample& c = samples_[s];
    std::fprintf(f, "%s\n{\"span\":%u,\"at_ns\":%lld,\"values\":[",
                 s ? "," : "", c.span, static_cast<long long>(c.at_ns - base));
    for (std::size_t i = 0; i < c.values.size(); ++i) {
      std::fprintf(f, "%s%llu", i ? "," : "",
                   static_cast<unsigned long long>(c.values[i]));
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
