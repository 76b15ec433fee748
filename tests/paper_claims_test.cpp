// Integration locks on the paper's headline claims, so a regression in
// any substrate that would silently change the reproduction story fails
// CI (EXPERIMENTS.md documents the full-size versions).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "kernels/matmul.hpp"
#include "kernels/nw.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace bf {
namespace {

/// Small MM sweeps (to n=512) on both paper GPUs, cached per process.
const ml::Dataset& mm_sweep(const std::string& arch) {
  static std::map<std::string, ml::Dataset> cache;
  const auto it = cache.find(arch);
  if (it != cache.end()) return it->second;
  const gpusim::Device device(gpusim::arch_by_name(arch));
  profiling::SweepOptions opt;
  opt.machine_characteristics = true;
  opt.profiler.seed = arch == "gtx580" ? 501 : 502;
  return cache
      .emplace(arch, profiling::sweep(profiling::matmul_workload(), device,
                                      profiling::log2_sizes(32, 512, 16, 16),
                                      opt))
      .first->second;
}

/// One reduce variant's Fig 3/4 analysis on the GTX580, configured as
/// bench/reduce_figure.hpp runs it for EXPERIMENTS.md.
core::AnalysisOutcome reduce_analysis(int variant) {
  core::PipelineConfig cfg;
  cfg.workload = profiling::reduce_workload(variant);
  cfg.arch = gpusim::gtx580();
  cfg.sizes = profiling::log2_sizes(1 << 14, 1 << 24, 60, 256);
  cfg.model.exclude = {"power_avg_w", "flop_sp_efficiency"};
  cfg.model.forest.n_trees = 500;
  cfg.pca.exclude = cfg.model.exclude;
  return core::run_analysis(cfg);
}

TEST(PaperClaims, Fig3Reduce2BankConflictMetricVanishes) {
  // §5.3: the most important counter for reduce1 is the least important
  // for reduce2 — sequential addressing has no bank conflicts, so the
  // counter is identically zero and drops out of the analysis.
  const auto out = reduce_analysis(2);
  const auto& conflicts = out.data.column("l1_shared_bank_conflict");
  ASSERT_FALSE(conflicts.empty());
  for (const double v : conflicts) EXPECT_EQ(v, 0.0);
  const auto& preds = out.model.predictors();
  EXPECT_EQ(std::find(preds.begin(), preds.end(), "l1_shared_bank_conflict"),
            preds.end());
}

TEST(PaperClaims, Fig4Reduce6TopCountersAreMemoryThroughput) {
  // §5.3: memory counters remain the most influential for reduce6 — its
  // top four are all global-store, L2 or DRAM throughput counters (ipc
  // follows in fifth place).
  const auto out = reduce_analysis(6);
  const auto top = out.model.top_variables(4);
  ASSERT_EQ(top.size(), 4u);
  const auto starts = [](const std::string& s, const std::string& p) {
    return s.rfind(p, 0) == 0;
  };
  for (const auto& name : top) {
    const bool throughput =
        name.size() > 11 && name.substr(name.size() - 11) == "_throughput";
    const bool memory =
        starts(name, "gst_") || starts(name, "l2_") || starts(name, "dram_");
    EXPECT_TRUE(throughput && memory) << name << " in the reduce6 top four";
  }
}

TEST(PaperClaims, Fig7MatMulHardwareScalingIsStraightforward) {
  // §6.2: "The approach works straightforwardly on MM … the most
  // important variables are almost the same on both architectures."
  core::HardwareScalingOptions opt;
  opt.model.forest.n_trees = 200;
  const auto result = core::HardwareScalingPredictor::predict(
      mm_sweep("gtx580"), mm_sweep("k20m"), opt);
  EXPECT_GE(result.similarity, opt.similarity_threshold)
      << "MM importance rankings diverged across generations";
  EXPECT_FALSE(result.used_mixed_variables);
  EXPECT_GT(result.series.explained_variance, 0.6);
}

TEST(PaperClaims, MatMulTile32AlsoSupported) {
  // The SDK sample supports 16 and 32 tiles; both must run and the
  // bigger tile moves fewer global words per FLOP.
  const gpusim::Device device(gpusim::gtx580());
  const auto t16 = kernels::simulate_matmul(device, 256, 16);
  const auto t32 = kernels::simulate_matmul(device, 256, 32);
  EXPECT_LT(t32.counters.get(gpusim::Event::kGldRequest) * 0.9,
            t16.counters.get(gpusim::Event::kGldRequest));
  EXPECT_NEAR(t32.counters.get(gpusim::Event::kFlopCount),
              t16.counters.get(gpusim::Event::kFlopCount),
              0.02 * t16.counters.get(gpusim::Event::kFlopCount));
}

TEST(PaperClaims, NwTraversalsHaveMatchingCost) {
  // The paper averages NW's two kernels; their per-strip behaviour must
  // be statistically identical in our model too.
  const gpusim::Device device(gpusim::gtx580());
  const kernels::NwDiagonalKernel k1(512, 7, 8, 1);
  const kernels::NwDiagonalKernel k2(512, 7, 8, 2);
  const auto r1 = device.run(k1);
  const auto r2 = device.run(k2);
  EXPECT_DOUBLE_EQ(r1.counters.get(gpusim::Event::kInstExecuted),
                   r2.counters.get(gpusim::Event::kInstExecuted));
  EXPECT_NEAR(r1.time_ms, r2.time_ms, 0.15 * r1.time_ms);
}

}  // namespace
}  // namespace bf
