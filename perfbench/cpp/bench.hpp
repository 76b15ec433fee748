// Shared types of the bf_perfbench workloads (analysis.cpp, serve.cpp)
// and main.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace bf::perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for repositories, bundles and the server socket
  /// (relative to the working directory, which keeps the socket path
  /// short).
  std::string work_dir = ".bench_build/perfbench-work";
  std::string serve_binary;  ///< bf_serve built from the same sources
};

/// One measured value and how it was sampled (e.g. "n=8000, p99.9 has
/// 8 beyond"); units live in main.cpp's metric tables.
struct Metric {
  double value = 0.0;
  std::string note;
};

/// What one workload run produced.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Human-readable correctness failures (each also counted in failed).
  std::vector<std::string> errors;
  /// Output digests of every pass of the workload's fixed work, untraced
  /// passes first. They must all equal the golden set for the seed, or
  /// (for a seed without one) each other.
  std::vector<Digests> pass_digests;
  /// The traced run's spans and counts (empty with --trace 0).
  std::string spans_json;

  void set(const std::string& name, double value,
           const std::string& note = "") {
    metrics[name] = Metric{value, note};
  }
  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

/// Deterministic sub-seed of the workload seed for one input stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Median of `repeats` timed calls of `setup` (seconds).
template <typename Fn>
double timed_median(int repeats, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t t0 = now_ns();
    setup(i);
    times.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }
  return median(times);
}

void run_analyze_matmul(const Args& args, Outcome& out);
void run_reanalyze_cached(const Args& args, Outcome& out);
void run_serve_mixed(const Args& args, Outcome& out);

}  // namespace bf::perfbench
