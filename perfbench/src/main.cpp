// distbc benchmark worker: runs one part of one workload for a fixed time
// and prints what it measured, raw, as one JSON object on the last line of
// standard output. run.py starts several parts per run and turns their
// pooled samples into the metrics (README.md documents both).
//
//   perfbench --workload <name> --seed <n> --part <k> --seconds <s>
//             --trace <0|1> [--trace-out <file.json>] [--ref-cache <dir>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;

/// Peak resident set of this process (VmHWM). getrusage's ru_maxrss is not
/// used: Linux carries the parent's peak across exec into it.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

void print_number(double value) {
  std::printf("%.12g", std::isfinite(value) ? value : 0.0);
}

void print_list(const std::vector<double>& values) {
  std::printf("[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) std::printf(", ");
    print_number(values[i]);
  }
  std::printf("]");
}

void print_record(const Outcome& out, const perfbench::Tracer& tracer) {
  std::printf("{\"well_formed\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              out.well_formed ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::printf("\"worst_err_over_eps\": ");
  print_number(out.worst_err_over_eps);
  std::printf(", \"busy_s\": ");
  print_number(out.busy_s);
  std::printf(", \"peak_rss_mb\": ");
  print_number(peak_rss_mb());
  std::printf(", \"setup_s\": ");
  print_list(out.setup_s);
  std::printf(", \"first_query_s\": ");
  print_list(out.first_query_s);
  std::printf(", \"ops\": [");
  for (std::size_t i = 0; i < out.ops.size(); ++i) {
    std::printf("%s[", i > 0 ? ", " : "");
    print_number(out.ops[i].seconds);
    std::printf(", %d, %zu]", out.ops[i].traced ? 1 : 0, out.ops[i].kind);
  }
  std::printf("], \"spans\": %zu, \"values\": {", tracer.size());
  bool first = true;
  for (const auto& [name, values] : tracer.values()) {
    std::printf("%s\"%s\": ", first ? "" : ", ", name.c_str());
    print_list(values);
    first = false;
  }
  std::printf("}}\n");
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--part <k> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--ref-cache <dir>]\nworkloads:",
               message);
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc % 2 == 0) return usage("every flag takes one value");
  std::string workload;
  std::string trace_out;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--part") {
      options.part = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--ref-cache") {
      options.ref_cache = value;
    } else {
      return usage("unknown flag");
    }
  }
  const perfbench::WorkloadFn run = perfbench::find_workload(workload);
  if (!run) return usage("unknown workload");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Tracer tracer;
  const Outcome out = run(options, tracer);
  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  if (options.trace && !trace_out.empty() &&
      !tracer.write_chrome_json(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  print_record(out, tracer);
  return 0;
}
