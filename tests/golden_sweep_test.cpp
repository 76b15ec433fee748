// Golden sweeps: the CSV and SweepReport text of three sweeps, pinned to
// the digests the serial sweep produced. Sizes simulate concurrently on
// the shared pool while retries, replicates, noise and fault draws are
// replayed in size order, so every digest and every fault count must stay
// bit-identical, also when two threads sweep at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/io.hpp"
#include "gpusim/arch.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace bf {
namespace {

struct PointGolden {
  const char* point;
  std::uint64_t evaluated;
  std::uint64_t fired;
};

struct SweepGolden {
  const char* workload;
  const char* arch;
  double lo;
  double hi;
  int count;
  std::int64_t multiple;
  bool faulted;  ///< replicates = 3 under kFaultSpec at kFaultSeed
  std::size_t rows;
  const char* csv;     ///< fnv1a64 of Dataset::to_csv()
  const char* report;  ///< fnv1a64 of SweepReport::to_text()
  std::vector<PointGolden> points;
};

constexpr const char* kFaultSpec =
    "profiler.run_crash:0.15,profiler.run_timeout:0.15,"
    "profiler.counter_dropout:0.01,profiler.noise_spike:0.2";
constexpr std::uint64_t kFaultSeed = 2024;

// Recorded with the serial sweep (one size after another, one simulation
// per attempt).
const std::vector<SweepGolden>& golden() {
  static const std::vector<SweepGolden> table = {
      {"reduce1", "gtx580", 16384, 1 << 20, 10, 256, false, 10,
       "b0663776420a8c69", "9a5fc9721f97b35c", {}},
      {"needle", "k20m", 64, 1024, 10, 16, false, 10, "9ce82bdf1792c160",
       "9a5fc9721f97b35c", {}},
      {"reduce1", "gtx580", 16384, 1 << 20, 8, 256, true, 8,
       "42b317f0a3971add", "15c121d8bde56f72",
       {{"profiler.counter_dropout", 748, 5},
        {"profiler.noise_spike", 22, 4},
        {"profiler.run_crash", 39, 10},
        {"profiler.run_timeout", 29, 7}}},
  };
  return table;
}

struct Observed {
  std::size_t rows = 0;
  std::string csv;
  std::string report;
  std::vector<std::pair<std::string, fault::PointStats>> points;
};

std::vector<double> sizes_of(const SweepGolden& g) {
  return profiling::log2_sizes(g.lo, g.hi, g.count, g.multiple);
}

profiling::SweepOptions options_of(const SweepGolden& g) {
  profiling::SweepOptions opts;
  if (g.faulted) {
    opts.replicates = 3;
    opts.min_success_fraction = 0.5;
  }
  return opts;
}

/// Sweep `workload` as `g` describes; the caller arms faults.
Observed observe(const SweepGolden& g, const profiling::Workload& workload) {
  const gpusim::Device dev(gpusim::arch_by_name(g.arch));
  profiling::SweepReport report;
  const ml::Dataset ds =
      profiling::sweep(workload, dev, sizes_of(g), options_of(g), &report);
  std::ostringstream csv;
  ds.to_csv().write(csv);
  Observed out;
  out.rows = ds.num_rows();
  out.csv = to_hex64(fnv1a64(csv.str()));
  out.report = to_hex64(fnv1a64(report.to_text()));
  if (g.faulted) out.points = fault::all_stats();
  return out;
}

Observed observe(const SweepGolden& g) {
  return observe(g, profiling::workload_by_name(g.workload));
}

void expect_matches(const SweepGolden& g, const Observed& o) {
  SCOPED_TRACE(std::string(g.workload) + " on " + g.arch +
               (g.faulted ? " (faulted)" : ""));
  EXPECT_EQ(o.rows, g.rows);
  EXPECT_EQ(o.csv, g.csv);
  EXPECT_EQ(o.report, g.report);
  ASSERT_EQ(o.points.size(), g.points.size());
  for (std::size_t i = 0; i < g.points.size(); ++i) {
    EXPECT_EQ(o.points[i].first, g.points[i].point);
    EXPECT_EQ(o.points[i].second.evaluated, g.points[i].evaluated)
        << g.points[i].point;
    EXPECT_EQ(o.points[i].second.fired, g.points[i].fired)
        << g.points[i].point;
  }
}

class GoldenSweep : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_F(GoldenSweep, EverySweepMatchesTheSerialSweep) {
  for (const SweepGolden& g : golden()) {
    if (g.faulted) {
      const fault::ScopedFaults faults(kFaultSpec, kFaultSeed);
      expect_matches(g, observe(g));
    } else {
      expect_matches(g, observe(g));
    }
  }
}

TEST_F(GoldenSweep, WorkloadRunsOncePerSizeAcrossRetriesAndReplicates) {
  // The faulted case retries crashed and timed-out attempts and collects
  // three replicates per size, yet the deterministic simulation behind
  // them runs once per size; the replayed draws still match the table.
  const SweepGolden& g = golden().back();
  ASSERT_TRUE(g.faulted);
  std::mutex mu;
  std::map<double, int> calls;
  profiling::Workload counting = profiling::workload_by_name(g.workload);
  counting.run = [inner = counting.run, &mu, &calls](
                     const gpusim::Device& device, double size) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++calls[size];
    }
    return inner(device, size);
  };
  const fault::ScopedFaults faults(kFaultSpec, kFaultSeed);
  expect_matches(g, observe(g, counting));
  const std::vector<double> sizes = sizes_of(g);
  ASSERT_EQ(calls.size(), sizes.size());
  for (const double size : sizes) EXPECT_EQ(calls[size], 1) << size;
}

TEST_F(GoldenSweep, ConcurrentSweepsFromTwoThreadsMatch) {
  // Two callers share the global pool and the simulator's page cache;
  // each nests its sizes' SMs into the pool and must still match.
  const SweepGolden& a = golden()[0];
  const SweepGolden& b = golden()[1];
  ASSERT_FALSE(a.faulted || b.faulted);
  Observed oa;
  Observed ob;
  const auto sweep = [](const SweepGolden& g, Observed& out) {
    out = observe(g);
  };
  std::thread ta(sweep, std::cref(a), std::ref(oa));
  std::thread tb(sweep, std::cref(b), std::ref(ob));
  ta.join();
  tb.join();
  expect_matches(a, oa);
  expect_matches(b, ob);
}

}  // namespace
}  // namespace bf
