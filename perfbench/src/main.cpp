// End-to-end benchmark program. Usage:
//
//   aeris_perfbench --workload <serve_open|serve_cluster|ensemble_offline>
//                   --seed <n> --seconds <s> --trace <0|1> [--trace-dir <d>]
//
// Prints progress lines, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). Exits 0 when the bitwise
// correctness gate passed, 1 when it did not or the run failed.

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::stoull(val);
    } else if (key == "--seconds") {
      args.seconds = std::stod(val);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

void report_trace(const Args& args) {
  perfbench::Tracer& tracer = perfbench::Tracer::get();
  const std::string path = args.trace_dir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
  if (!tracer.write_chrome(path)) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::printf("trace: %zu spans -> %s\n", tracer.size(), path.c_str());
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const perfbench::SelfTime& st : tracer.self_times()) {
    std::printf("%-28s %8lld %12.3f %12.3f\n", st.name.c_str(),
                static_cast<long long>(st.count), st.total_ms, st.self_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: %s --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1> [--trace-dir <dir>]\n",
                   argv[0]);
      return 2;
    }
    Outcome out;
    if (args.workload == "serve_open") {
      out = perfbench::run_serve_open(args);
    } else if (args.workload == "serve_cluster") {
      out = perfbench::run_serve_cluster(args);
    } else if (args.workload == "ensemble_offline") {
      out = perfbench::run_ensemble_offline(args);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    perfbench::Tracer::get().arm(false);
    for (const perfbench::Metric& m : out.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        out.correct = false;
      }
    }
    if (args.trace) report_trace(args);
    print_result(out);
    std::fflush(stdout);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
