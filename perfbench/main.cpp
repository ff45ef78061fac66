// perfbench — end-to-end benchmark of the path of a reading.
//
//   perfbench --workload plant_mesh|backend_ingest|city_islands
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//             [--downward 0|1] [--check-lanes]
//
// Prints, as its last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics when
// untraced, the per-layer metrics when traced. An untraced run first
// prints a {"detail": ...} line with the workload-specific end-to-end
// figures. Exit code 0 means the run completed; `correct` says whether
// every output check held.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::g_process_start = perfbench::Clock::now();
  perfbench::Options opt;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--trace-out") {
      trace_out = value();
    } else if (a == "--downward") {
      opt.downward_routes = value() != "0";
    } else if (a == "--check-lanes") {
      opt.check_lanes = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::Result r;
  if (opt.workload == "plant_mesh") {
    r = perfbench::run_plant_mesh(opt);
  } else if (opt.workload == "backend_ingest") {
    r = perfbench::run_backend_ingest(opt);
  } else if (opt.workload == "city_islands") {
    r = perfbench::run_city_islands(opt);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  if (opt.trace && !trace_out.empty() &&
      !perfbench::tracer().write(trace_out, opt.workload, opt.seed)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  // Render metrics before the verdict so a missing or non-finite value
  // still turns `correct` false.
  auto render = [&r](const std::vector<perfbench::MetricSpec>& specs,
                     const std::map<std::string, double>& values,
                     bool required) {
    std::string out;
    char buf[256];
    for (const perfbench::MetricSpec& s : specs) {
      const auto it = values.find(s.name);
      double v = it == values.end() ? 0.0 : it->second;
      if (required && it == values.end()) {
        r.fail(std::string("metric ") + s.name + " missing");
      }
      if (!std::isfinite(v)) {
        r.fail(std::string("metric ") + s.name + " is not finite");
        v = 0.0;
      }
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", out.empty() ? "" : ", ", s.name, v,
                    s.unit);
      out += buf;
    }
    return out;
  };
  if (!opt.trace) {
    std::printf("{\"detail\": {%s}}\n",
                render(perfbench::kDetail, r.metrics, false).c_str());
  }
  const std::string body =
      opt.trace ? render(perfbench::kPerLayer, r.metrics, false)
                : render(perfbench::kEndToEnd, r.metrics, !opt.check_lanes);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), body.c_str());
  std::fflush(stdout);
  return 0;
}
