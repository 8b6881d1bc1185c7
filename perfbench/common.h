#pragma once
// Shared pieces of the benchmark: the run result and its JSON line,
// order statistics, peak RSS, the effective-parallelism probe, and
// aggregation of the program's own obs histograms.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string out_dir = ".bench_out";
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports.  A failed check clears `correct` and keeps the
/// first few messages for stderr.
struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

/// Nearest-rank percentile, p in (0, 1].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

inline double ms_since(uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Effective parallelism: the same xorshift loop on 1 and on nproc
/// threads; nproc * t1 / tN is about nproc on an idle machine and about 1
/// when neighbours hold the other cores.
inline double effective_cores() {
  auto spin = [](uint64_t n) {
    uint64_t x = 88172645463325252ull;
    for (uint64_t i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  constexpr uint64_t kIters = 40'000'000;
  int n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<uint64_t> sink(static_cast<size_t>(n));
  uint64_t t0 = now_ns();
  sink[0] = spin(kIters);
  double t1 = static_cast<double>(now_ns() - t0);
  t0 = now_ns();
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i)
    threads.emplace_back([&, i] { sink[static_cast<size_t>(i)] = spin(kIters); });
  for (std::thread& t : threads) t.join();
  double tn = static_cast<double>(now_ns() - t0);
  static volatile uint64_t keep = 0;  // keeps the loops from being elided
  for (uint64_t s : sink) keep = keep ^ s;
  return static_cast<double>(n) * t1 / tn;
}

/// Sum of several obs histograms (the offline workloads build one service
/// per job, so their histograms are merged across services).
inline void merge_into(picola::obs::Histogram::Snapshot* acc,
                       const picola::obs::Histogram::Snapshot& s) {
  acc->count += s.count;
  acc->sum += s.sum;
  acc->max = std::max(acc->max, s.max);
  for (size_t i = 0; i < acc->buckets.size(); ++i) acc->buckets[i] += s.buckets[i];
}

inline picola::obs::Histogram::Snapshot histogram(
    const picola::obs::MetricsRegistry& reg, const std::string& name) {
  for (auto& [n, snap] : reg.histogram_snapshots())
    if (n == name) return snap;
  return {};
}

inline double mean_ms(const picola::obs::Histogram::Snapshot& s) {
  return s.mean() / 1e6;
}

/// One problem as the program receives it.
struct Input {
  std::string name;
  std::string text;  ///< .con or KISS2 text
  bool kiss = false;
  int restarts = 1;  ///< picola restarts of the job
};

/// Re-time the layer calls once per distinct input, in-process and on one
/// thread, so times, allocation counts and work counts belong to one layer
/// each and repeat from run to run (traced run only).
void layer_pass(const std::vector<Input>& inputs, RunResult* out);

/// Workload entry points (offline.cpp, serve.cpp).
RunResult run_table1_kiss(const Args& args);
RunResult run_portfolio_table1(const Args& args);
RunResult run_serve_mixed(const Args& args);

}  // namespace perfbench
