// perfbench — the repository's benchmark driver binary.
//
//   perfbench --workload table1-kiss|serve-mixed|portfolio-table1
//             --seed N --seconds S [--out-dir DIR]
//
// Runs one workload for about S seconds on inputs made from the seed,
// checks every output, and prints each metric as "name value unit"
// followed by one JSON line {"correct","attempted","failed","metrics"}.
// perfbench_traced (the same sources plus the counting allocator) also
// computes the per-layer metrics and writes its spans to
// DIR/trace-<workload>-<seed>.json; run.py keeps the metrics that
// BENCHMARK.json names.  Exit code 1 when a check failed, 2 on bad
// arguments.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"

namespace {

using namespace perfbench;

/// The spans plus each layer's and each call's self time.
void write_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
  SelfTimes st = self_times(spans);
  std::ofstream f(path);
  f << "{\"self_ms_by_layer\":{";
  const char* sep = "";
  for (auto& [layer, ms] : st.by_layer) {
    f << sep << '"' << layer << "\":" << ms;
    sep = ",";
  }
  f << "},\"self_ms_by_call\":{";
  sep = "";
  for (auto& [name, ms] : st.by_name) {
    f << sep << '"' << name << "\":{\"self_ms\":" << ms
      << ",\"calls\":" << st.calls[name] << '}';
    sep = ",";
  }
  f << "},\"spans\":[";
  sep = "";
  for (const SpanRecord& s : spans) {
    f << sep << "{\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << '}';
    sep = ",";
  }
  f << "]}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table1-kiss|serve-mixed|"
               "portfolio-table1 --seed N --seconds S [--out-dir DIR]\n");
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();

  // The probe runs before any set-up, with nothing else of ours running.
  double cores = effective_cores();
  std::printf("# effective_cores %.2f of %u\n", cores,
              std::thread::hardware_concurrency());

  RunResult r;
  if (args.workload == "table1-kiss") {
    r = run_table1_kiss(args);
  } else if (args.workload == "serve-mixed") {
    r = run_serve_mixed(args);
  } else if (args.workload == "portfolio-table1") {
    r = run_portfolio_table1(args);
  } else {
    return usage();
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  if (kTraced) {
    std::vector<SpanRecord> spans = SpanLog::instance().take();
    r.set("probe.effective_cores", cores, "cores");
    r.set("trace.spans", static_cast<double>(spans.size()), "count");
    std::filesystem::create_directories(args.out_dir);
    std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                       std::to_string(args.seed) + ".json";
    write_trace(path, spans);
    std::printf("# spans written to %s\n", path.c_str());
  }

  for (const std::string& p : r.problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  const char* sep = "";
  for (auto& [name, m] : r.metrics) {
    std::printf("%-34s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    json += sep;
    json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
