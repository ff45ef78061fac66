// Shared plumbing for the end-to-end benchmark: host clocks, the run
// result every workload fills in, percentiles, and the in-memory span
// recorder used by traced runs.
//
// Spans are recorded only from the benchmark's own files, around each
// call it makes into a layer of the program (run_until slices, ingest,
// queries, actuate) and around its own callbacks. With tracing off every
// Span is one branch on a flag.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host time of process start (set first thing in main()).
extern Clock::time_point g_process_start;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// RPL downward routes in plant_mesh; off only for reference figures.
  bool downward_routes = true;
  /// Runs the city lane-invariance self-check instead of a timed run.
  bool check_lanes = false;
};

/// Window-rule threshold shared by the workloads. It lies off the centi
/// grid: no average of a few centi-unit readings ties it, so the
/// benchmark's own left-to-right average decides every firing the same
/// way as the store's rollup order.
inline constexpr double kRuleThreshold = 70.0031415926;

/// Full-precision probe values: doubles that a fixed-point text round
/// trip cannot carry exactly.
inline constexpr double kProbeValues[] = {
    20.123456789, 1e-6, -17.777777777777779, 4.9406564584124654e-324,
    1.0 / 3.0,    -1e-7, 123456.789012345,   2.5e-5};
inline constexpr std::size_t kProbeCount =
    sizeof(kProbeValues) / sizeof(kProbeValues[0]);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics every workload prints. kEndToEnd: untraced runs (the gated
/// set, each nonzero on every workload). kDetail: workload-specific
/// end-to-end figures, printed on an informational line by untraced runs
/// and 0 where a workload has no such path. kPerLayer: traced runs.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kDetail;
extern const std::vector<MetricSpec> kPerLayer;

/// What one workload run reports; `metrics` is keyed by the names above.
struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void fail(const std::string& why) {
    if (errors.size() < 20) errors.push_back(why);
    correct = false;
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; sorts it.
double percentile(std::vector<double>& v, double q);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

// ---- tracing -------------------------------------------------------------

enum class Layer : std::uint8_t { kSim, kCore, kBackend, kApp };

struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::kSim;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = top level
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  // time covered by direct children
};

/// Named counter values read from the layers at a span boundary.
struct CounterSample {
  std::uint32_t span = 0;  // span whose end the sample was taken at
  std::int64_t at_ns = 0;
  std::vector<std::uint64_t> values;
};

class Tracer {
 public:
  /// Spans each thread keeps for the trace file; past it spans still
  /// count towards the per-layer self times but are not stored.
  static constexpr std::size_t kMaxStoredSpans = 50'000;

  [[nodiscard]] bool on() const { return on_; }
  void enable(std::vector<std::string> counter_names);

  /// Per-thread span bookkeeping: spans nest per thread; ids are unique
  /// across threads.
  std::uint32_t open(const char* name, Layer layer);
  void close(std::uint32_t id);
  void sample(std::uint32_t span, std::vector<std::uint64_t> values);

  /// Self time (duration minus direct children) summed per layer, seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  [[nodiscard]] std::uint64_t span_count() const;
  /// Writes spans and counter samples as JSON to `path`.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  static constexpr std::size_t kLayers = 4;
  struct ThreadLog {
    std::vector<SpanRecord> open;  // innermost last
    std::vector<SpanRecord> done;  // the first kMaxStoredSpans closed
    std::array<std::int64_t, kLayers> self_ns{};
    std::uint64_t closed = 0;
    std::uint32_t next_id = 0;
  };
  ThreadLog& local();

  bool on_ = false;
  std::vector<std::string> counter_names_;
  mutable std::mutex mu_;  // guards logs_ (the list), samples_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<CounterSample> samples_;
};

Tracer& tracer();

/// RAII span; does nothing when tracing is off.
class Span {
 public:
  Span(const char* name, Layer layer) {
    if (tracer().on()) id_ = tracer().open(name, layer);
  }
  ~Span() {
    if (id_ != 0) tracer().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_ = 0;
};

// ---- rounds --------------------------------------------------------------

/// One round of a workload: a fresh world built from the seed, a fixed
/// amount of simulated work, and the checks of its outputs. Rounds of one
/// run are identical, so each round's `det` values must repeat exactly.
struct Round {
  Clock::time_point measure_begin{};  // the world is built and formed
  double host_s = 0.0;   // host time of the measured phase
  double sim_s = 0.0;    // simulated time the measured phase covers
  double readings = 0.0;     // readings that reached their sink
  /// Host time of each slice of the measured phase, in order (a
  /// run_until slice, or a dashboard step). Slice k does the same work in
  /// every round, so run_rounds can take its fastest time over rounds.
  std::vector<double> slice_s;
  /// The same for the divisor of readings_per_s; empty means slice_s.
  std::vector<double> readings_slice_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> det;     // deterministic metrics
  std::map<std::string, double> timing;  // host-time metrics
};

/// Runs rounds until `opt.seconds` of host time have passed since the
/// first round's measured phase began (at least one round), and folds
/// them into a Result: set-up time from the first, cold round; rates from
/// the sum over slices of each slice's fastest time; other host-time
/// metrics as medians over rounds; deterministic metrics from the first
/// round, checked equal in every other. `first` tells `one` whether it
/// runs the first round.
Result run_rounds(const Options& opt,
                  Round (*one)(const Options& opt, bool first, Result& res));

// ---- workloads -----------------------------------------------------------

Result run_plant_mesh(const Options& opt);
Result run_backend_ingest(const Options& opt);
Result run_city_islands(const Options& opt);

}  // namespace perfbench
