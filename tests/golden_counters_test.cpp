// Golden counters: every event of Device::run for a fixed set of small
// launches, pinned to the values the serial engine produced. The engine
// resolves memory ops at emit time and runs SMs in parallel; both must
// leave every counter and the elapsed time bit-identical, also when
// several threads launch at once.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/arch.hpp"
#include "gpusim/engine.hpp"
#include "kernels/matmul.hpp"
#include "kernels/misc.hpp"
#include "kernels/nw.hpp"
#include "kernels/reduce.hpp"
#include "kernels/spmv.hpp"

namespace bf::gpusim {
namespace {

struct Golden {
  const char* kernel;
  const char* arch;
  double time_ms;
  std::array<double, kNumEvents> events;  // in Event order
};

// Recorded with the serial engine (one running CounterSet across SMs,
// memory ops resolved at issue time). Printed with %.17g, so every
// literal parses back to the exact double.
const std::vector<Golden>& golden() {
  static const std::vector<Golden> table = {
    {"matmul", "gtx580", 0.090039378238341988,
     {1812480, 1884160, 57999360, 65536, 2048, 0, 131072, 131072, 8192, 524288, 8192, 0, 131072, 1048576, 65536, 0, 0, 0, 0, 0, 2223820.8000000003, 88152883.200000003, 4447641.6000000006, 139020.80000000002, 524288, 16384, 8388608, 262144, 16777216}},
    {"reduce1", "gtx580", 0.0051761658031088086,
     {88832, 115712, 2694656, 2048, 256, 0, 2048, 2048, 256, 8192, 256, 0, 2048, 6400, 5120, 26880, 17920, 8960, 16640, 1536, 127509.33333333333, 5949845.333333333, 255018.66666666666, 7992, 8192, 682.66666666666663, 262144, 1024, 65280}},
    {"reduce6", "gtx580", 0.0058575129533678756,
     {33088, 33088, 1054848, 8192, 64, 0, 8192, 8192, 64, 32768, 64, 0, 8192, 1216, 1280, 0, 0, 0, 6208, 64, 144432, 4392576, 288864, 9044, 32768, 128, 1048576, 256, 286720}},
    {"needle", "gtx580", 0.011088082901554403,
     {6736, 14416, 81440, 304, 256, 0, 784, 784, 736, 3136, 736, 16, 768, 2240, 800, 6720, 5040, 1680, 512, 496, 273616, 273600, 547232, 17120, 3072, 1920, 18496, 16384, 0}},
    {"spmv", "gtx580", 0.057409326424870462,
     {112498, 211310, 952011, 56185, 128, 92744, 61869, 154613, 512, 247476, 512, 52839, 9030, 0, 0, 0, 0, 0, 18643, 18117, 1011192, 5721817, 2022384, 88640, 36120, 512, 836660, 16384, 66991}},
    {"histogram", "gtx580", 0.0024391191709844558,
     {15872, 48491, 507904, 2048, 256, 0, 2048, 2048, 1024, 8192, 1024, 0, 2048, 256, 3072, 31851, 0, 31851, 2048, 0, 59198, 2053676, 118396, 3766, 8192, 128, 262144, 32768, 0}},
    {"matmul", "k20m", 0.10385879276530836,
     {1812480, 2015232, 57999360, 65536, 2048, 0, 0, 262144, 8192, 262144, 8192, 114688, 147456, 1048576, 65536, 0, 0, 0, 0, 0, 953024, 60875776, 7624192, 73324.307692307702, 147456, 8192, 8388608, 262144, 16777216}},
    {"reduce1", "k20m", 0.0073096535192852478,
     {88832, 121856, 2694656, 2048, 256, 0, 0, 8192, 256, 8192, 256, 0, 8192, 6400, 5120, 26880, 17920, 8960, 16640, 1536, 66944, 4096304, 535552, 5160.6153846153848, 8192, 256, 262144, 1024, 65280}},
    {"reduce6", "k20m", 0.012403682719546743,
     {33088, 57664, 1054848, 8192, 64, 0, 0, 32768, 64, 32768, 64, 0, 32768, 1216, 1280, 0, 0, 0, 6208, 64, 113686, 4245996, 909488, 8757, 32768, 64, 1048576, 256, 286720}},
    {"needle", "k20m", 0.023601983002832859,
     {6736, 14688, 81440, 304, 256, 0, 0, 1056, 736, 1056, 736, 16, 1040, 2240, 800, 6720, 5040, 1680, 512, 496, 216476, 266416, 1731808, 16663, 1040, 736, 18496, 16384, 0}},
    {"spmv", "k20m", 0.18003682719546743,
     {112498, 248145, 952011, 56185, 128, 0, 0, 191448, 512, 191448, 512, 170526, 20922, 0, 0, 0, 0, 0, 18643, 18117, 1611748, 12985795, 12893984, 127106, 20922, 512, 836660, 16384, 66991}},
    {"histogram", "k20m", 0.0042691218130311613,
     {15872, 54635, 507904, 2048, 256, 0, 0, 8192, 1024, 8192, 1024, 0, 8192, 256, 3072, 31851, 0, 31851, 2048, 0, 38617, 1622165, 308936, 3014, 8192, 104, 262144, 32768, 0}},
  };
  return table;
}

std::unique_ptr<TraceKernel> make_kernel(const std::string& name) {
  if (name == "matmul") return std::make_unique<kernels::MatMulKernel>(256, 16);
  if (name == "reduce1") {
    return std::make_unique<kernels::ReduceKernel>(1, 1 << 16, 256);
  }
  if (name == "reduce6") {
    return std::make_unique<kernels::ReduceKernel>(6, 1 << 18, 256, 64);
  }
  if (name == "needle") {
    return std::make_unique<kernels::NwDiagonalKernel>(512, 15, 16, 1);
  }
  if (name == "spmv") {
    return std::make_unique<kernels::SpmvCsrKernel>(
        4096, kernels::SpmvPattern{16, 0.5, 0.5});
  }
  if (name == "histogram") {
    return std::make_unique<kernels::HistogramKernel>(1 << 16, 64, 0.5);
  }
  ADD_FAILURE() << "unknown kernel " << name;
  return nullptr;
}

RunResult run_case(const Golden& g) {
  const Device device(arch_by_name(g.arch));
  return device.run(*make_kernel(g.kernel));
}

void expect_matches(const Golden& g, const RunResult& r) {
  SCOPED_TRACE(std::string(g.kernel) + " on " + g.arch);
  EXPECT_EQ(r.time_ms, g.time_ms);
  for (std::size_t i = 0; i < kNumEvents; ++i) {
    EXPECT_EQ(r.counters.get(static_cast<Event>(i)), g.events[i])
        << event_name(static_cast<Event>(i));
  }
}

TEST(GoldenCounters, TableCoversEveryKernelOnBothArchs) {
  EXPECT_EQ(golden().size(), 12u);
}

TEST(GoldenCounters, EveryEventMatchesSerialEngine) {
  for (const Golden& g : golden()) expect_matches(g, run_case(g));
}

TEST(GoldenCounters, ConcurrentLaunchesFromTwoThreadsMatch) {
  // Two callers share the global pool; each must still get exactly the
  // golden counters for every launch.
  std::vector<RunResult> a(golden().size());
  std::vector<RunResult> b(golden().size());
  const auto run_all = [](std::vector<RunResult>& out) {
    for (std::size_t i = 0; i < golden().size(); ++i) {
      out[i] = run_case(golden()[i]);
    }
  };
  std::thread ta(run_all, std::ref(a));
  std::thread tb(run_all, std::ref(b));
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < golden().size(); ++i) {
    expect_matches(golden()[i], a[i]);
    expect_matches(golden()[i], b[i]);
  }
}

}  // namespace
}  // namespace bf::gpusim
