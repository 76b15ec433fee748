// Tests for shared-memory atomics (the histogram contention signature)
// and engine barrier semantics.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sharedmem.hpp"
#include "kernels/kernel_base.hpp"
#include "kernels/misc.hpp"
#include "profiling/workloads.hpp"

namespace bf {
namespace {

using gpusim::Event;
using kernels::lane_addrs;

// ---- atomic conflict model ----

gpusim::WarpInstr atomic_to(const std::vector<std::uint32_t>& lane_addr) {
  gpusim::WarpInstr in;
  in.op = gpusim::Op::kAtomicShared;
  in.mask = gpusim::mask_first_lanes(static_cast<int>(lane_addr.size()));
  for (std::size_t i = 0; i < lane_addr.size(); ++i) {
    in.addr[i] = lane_addr[i];
  }
  return in;
}

TEST(SharedAtomics, SameAddressFullySerialises) {
  // All 32 lanes atomicAdd the same word: 32 passes (a broadcast load
  // would be 1).
  std::vector<std::uint32_t> addrs(32, 64);
  EXPECT_EQ(gpusim::shared_atomic_passes(atomic_to(addrs), gpusim::gtx580()),
            32);
}

TEST(SharedAtomics, DistinctBanksConflictFree) {
  std::vector<std::uint32_t> addrs;
  for (int lane = 0; lane < 32; ++lane) {
    addrs.push_back(4u * static_cast<std::uint32_t>(lane));
  }
  EXPECT_EQ(gpusim::shared_atomic_passes(atomic_to(addrs), gpusim::gtx580()),
            1);
}

TEST(SharedAtomics, HalfCollisions) {
  // Lanes pair up on 16 distinct words in distinct banks: 2 passes.
  std::vector<std::uint32_t> addrs;
  for (int lane = 0; lane < 32; ++lane) {
    addrs.push_back(4u * static_cast<std::uint32_t>(lane / 2));
  }
  EXPECT_EQ(gpusim::shared_atomic_passes(atomic_to(addrs), gpusim::gtx580()),
            2);
}

TEST(SharedAtomics, PlainOpRejected) {
  auto in = atomic_to(std::vector<std::uint32_t>(32, 0));
  in.op = gpusim::Op::kLdShared;
  EXPECT_THROW(gpusim::shared_atomic_passes(in, gpusim::gtx580()), Error);
}

// ---- histogram kernel ----

TEST(Histogram, SkewDrivesContentionAndTime) {
  const gpusim::Device device(gpusim::gtx580());
  const auto uniform =
      device.run(kernels::HistogramKernel(1 << 20, 256, 0.0));
  const auto skewed =
      device.run(kernels::HistogramKernel(1 << 20, 256, 0.95));
  EXPECT_GT(skewed.counters.get(Event::kSharedBankConflict),
            3.0 * uniform.counters.get(Event::kSharedBankConflict));
  EXPECT_GT(skewed.time_ms, 1.5 * uniform.time_ms);
  // Same memory traffic either way: the contention is the only change.
  EXPECT_NEAR(skewed.counters.get(Event::kGldRequest),
              uniform.counters.get(Event::kGldRequest),
              0.01 * uniform.counters.get(Event::kGldRequest));
}

TEST(Histogram, BinDistributionMatchesSkew) {
  const kernels::HistogramKernel uniform(1 << 16, 256, 0.0);
  const kernels::HistogramKernel skewed(1 << 16, 256, 0.9);
  int uniform_zero = 0;
  int skewed_zero = 0;
  for (std::int64_t e = 0; e < (1 << 14); ++e) {
    uniform_zero += uniform.bin_of(e) == 0;
    skewed_zero += skewed.bin_of(e) == 0;
  }
  EXPECT_LT(uniform_zero, (1 << 14) / 64);       // ~1/256 expected
  EXPECT_GT(skewed_zero, (1 << 14) * 85 / 100);  // ~90% expected
}

TEST(Histogram, WorkloadRegistered) {
  EXPECT_NO_THROW(profiling::workload_by_name("histogram_s00"));
  EXPECT_NO_THROW(profiling::workload_by_name("histogram_s90"));
}

TEST(Histogram, InputValidation) {
  EXPECT_THROW(kernels::HistogramKernel(0, 256, 0.0), Error);
  EXPECT_THROW(kernels::HistogramKernel(1024, 1, 0.0), Error);
  EXPECT_THROW(kernels::HistogramKernel(1024, 256, 1.5), Error);
}

// ---- engine barrier semantics under mismatched sync counts ----

TEST(EngineBarrier, ExitedWarpsReleaseBarriers) {
  // Warps emit different numbers of __syncthreads(). Like real hardware
  // (where exited threads no longer participate in barriers), the engine
  // counts only live warps, so this shape completes instead of hanging.
  class MismatchedKernel final : public gpusim::TraceKernel {
   public:
    std::string name() const override { return "barrier_mismatch"; }
    gpusim::LaunchGeometry geometry() const override {
      gpusim::LaunchGeometry g;
      g.grid_x = 1;
      g.block_x = 64;
      g.registers_per_thread = 16;
      return g;
    }
    void emit_warp(int /*block*/, int warp,
                   gpusim::TraceSink& sink) const override {
      sink.alu(gpusim::kFullMask, 1);
      sink.sync();
      if (warp == 1) {
        sink.sync();  // warp 0 has already exited by now
        sink.alu(gpusim::kFullMask, 1);
      }
    }
  };
  const gpusim::Device device(gpusim::gtx580());
  gpusim::RunResult r;
  ASSERT_NO_THROW(r = device.run(MismatchedKernel{}));
  // alu+sync per warp, plus warp 1's extra sync+alu.
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kInstExecuted), 6.0);
}

}  // namespace
}  // namespace bf
