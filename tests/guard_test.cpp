// Guard-layer suite: domain hulls, confidence grading, physical caps,
// counter-model fallback chains, and the guarded problem-scaling path.
//
// The bit-identity contract is regression-tested against a stored
// pre-guard baseline: with no guard tripped (and with the guard off),
// the reduce1 predictions must reproduce the legacy numbers exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/counter_models.hpp"
#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/engine.hpp"
#include "guard/guard.hpp"
#include "guard/physical.hpp"
#include "ml/dataset.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace bf {
namespace {

using profiling::kSizeColumn;
using profiling::kTimeColumn;

// ---- DomainGuard ----

TEST(DomainGuard, HullBoundaryDetection) {
  ml::Dataset ds;
  ds.add_column("size", {100, 200, 300, 400});
  ds.add_column("flat", {5, 5, 5, 5});
  const auto hull = guard::DomainGuard::build(ds, {"size", "flat"}, 0.1);
  ASSERT_EQ(hull.ranges().size(), 2u);
  ASSERT_NE(hull.range("size"), nullptr);
  EXPECT_EQ(hull.range("size")->lo, 100.0);
  EXPECT_EQ(hull.range("size")->hi, 400.0);

  // Span 300, margin 10% -> hull [70, 430]; the edges are still inside.
  EXPECT_TRUE(hull.check_value("size", 430.0).empty());
  EXPECT_TRUE(hull.check_value("size", 70.0).empty());
  EXPECT_TRUE(hull.check_value("size", 250.0).empty());

  const auto above = hull.check_value("size", 500.0);
  ASSERT_EQ(above.size(), 1u);
  EXPECT_EQ(above[0].feature, "size");
  EXPECT_NEAR(above[0].distance, 70.0 / 300.0, 1e-12);

  const auto below = hull.check_value("size", 10.0);
  ASSERT_EQ(below.size(), 1u);
  EXPECT_NEAR(below[0].distance, 60.0 / 300.0, 1e-12);

  // A constant feature has zero span: distances are absolute.
  const auto flat = hull.check_value("flat", 6.5);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_NEAR(flat[0].distance, 1.5, 1e-12);

  // Untracked features and non-finite queries never flag.
  EXPECT_TRUE(hull.check_value("unknown", 1e18).empty());
  EXPECT_TRUE(hull.check_value("size", std::nan("")).empty());
}

TEST(DomainGuard, CheckRowCoversEveryTrackedColumn) {
  ml::Dataset train;
  train.add_column("a", {0, 1, 2});
  train.add_column("b", {10, 20, 30});
  const auto hull = guard::DomainGuard::build(train, {"a", "b"}, 0.0);

  ml::Dataset query;
  query.add_column("a", {5});   // out of hull
  query.add_column("b", {25});  // in hull
  const auto flags = hull.check_row(query, 0);
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_EQ(flags[0].feature, "a");
}

// ---- grading ----

TEST(GradePrediction, EvidenceMapsToGrades) {
  const guard::GuardOptions opts;  // interval_b=1.0, interval_c=2.5, far=0.5
  guard::PredictionGuardRecord rec;
  EXPECT_EQ(guard::grade_prediction(rec, opts), guard::Grade::kA);

  rec.interval_width = 0.6;
  EXPECT_EQ(guard::grade_prediction(rec, opts), guard::Grade::kA);
  rec.interval_width = 1.2;
  EXPECT_EQ(guard::grade_prediction(rec, opts), guard::Grade::kB);
  rec.interval_width = 3.0;
  EXPECT_EQ(guard::grade_prediction(rec, opts), guard::Grade::kC);

  rec = {};
  rec.demotions.push_back("c: mars -> glm (non-finite)");
  EXPECT_EQ(guard::grade_prediction(rec, opts), guard::Grade::kB);

  rec = {};
  rec.extrapolated = true;
  rec.flags.push_back({"size", 1e7, 0.3});
  EXPECT_EQ(guard::grade_prediction(rec, opts), guard::Grade::kB);
  rec.flags[0].distance = 0.7;  // beyond `far`
  EXPECT_EQ(guard::grade_prediction(rec, opts), guard::Grade::kC);

  rec = {};
  rec.clamps.push_back("ipc: 9 -> 2 (IPC <= issue width)");
  EXPECT_EQ(guard::grade_prediction(rec, opts), guard::Grade::kC);

  EXPECT_EQ(guard::worse(guard::Grade::kA, guard::Grade::kC),
            guard::Grade::kC);
  EXPECT_EQ(guard::grade_letter(guard::Grade::kB), 'B');
}

// ---- physical caps ----

const guard::PhysicalCap* find_cap(const std::vector<guard::PhysicalCap>& caps,
                                   const std::string& name) {
  for (const auto& c : caps) {
    if (c.counter == name) return &c;
  }
  return nullptr;
}

TEST(PhysicalCaps, StaticCapsFromBothArchSpecs) {
  // GTX580 (Fermi): 2 schedulers x 1 dispatch unit -> IPC <= 2.
  const auto fermi = guard::static_caps(gpusim::gtx580());
  const auto* fermi_ipc = find_cap(fermi, "ipc");
  ASSERT_NE(fermi_ipc, nullptr);
  EXPECT_EQ(fermi_ipc->max_value, 2.0);
  const auto* fermi_bw = find_cap(fermi, "dram_read_throughput");
  ASSERT_NE(fermi_bw, nullptr);
  EXPECT_EQ(fermi_bw->max_value, 192.4);

  // K20m (Kepler): 4 schedulers x 2 dispatch units -> IPC <= 8.
  const auto kepler = guard::static_caps(gpusim::kepler_k20m());
  const auto* kepler_ipc = find_cap(kepler, "ipc");
  ASSERT_NE(kepler_ipc, nullptr);
  EXPECT_EQ(kepler_ipc->max_value, 8.0);
  const auto* kepler_bw = find_cap(kepler, "dram_write_throughput");
  ASSERT_NE(kepler_bw, nullptr);
  EXPECT_EQ(kepler_bw->max_value, 208.0);

  // Ratio metrics ride along in both.
  EXPECT_NE(find_cap(fermi, "achieved_occupancy"), nullptr);
  const auto* kepler_occ = find_cap(kepler, "achieved_occupancy");
  ASSERT_NE(kepler_occ, nullptr);
  EXPECT_EQ(kepler_occ->max_value, 1.0);
}

TEST(PhysicalCaps, TimeCapsBoundTransactionsAndInstructions) {
  const auto arch = gpusim::gtx580();
  const double time_ms = 1.0;
  const auto caps = guard::time_caps(arch, time_ms);

  const auto* tx = find_cap(caps, "dram_read_transactions");
  ASSERT_NE(tx, nullptr);
  // bandwidth x time / 32-byte segments.
  EXPECT_NEAR(tx->max_value, 192.4e9 * 1e-3 / 32.0, 1e-3);

  const auto* inst = find_cap(caps, "inst_executed");
  ASSERT_NE(inst, nullptr);
  // SMs x schedulers x dispatch x clock x time.
  EXPECT_NEAR(inst->max_value, 16.0 * 2.0 * 1.0 * 1.544e9 * 1e-3, 1e-3);

  // No predicted time, no time caps.
  EXPECT_TRUE(guard::time_caps(arch, 0.0).empty());
  EXPECT_TRUE(guard::time_caps(arch, -1.0).empty());
}

TEST(PhysicalCaps, ClampRowHonoursTolerance) {
  ml::Dataset features;
  features.add_column("achieved_occupancy", {1.01});
  features.add_column("ipc", {9.0});
  features.add_column("untouched", {123.0});
  const auto caps = guard::static_caps(gpusim::gtx580());

  const auto events = guard::clamp_row_to_caps(features, 0, caps, 0.02);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].counter, "ipc");
  EXPECT_EQ(events[0].from, 9.0);
  EXPECT_EQ(events[0].to, 2.0);
  // Within-tolerance occupancy is left alone; the violating value was
  // clamped in place; unrelated columns are untouched.
  EXPECT_EQ(features.column("achieved_occupancy")[0], 1.01);
  EXPECT_EQ(features.column("ipc")[0], 2.0);
  EXPECT_EQ(features.column("untouched")[0], 123.0);
}

// ---- counter-model fallback chains ----

TEST(CounterModelChain, ChainIsFitAndRankedByCv) {
  // A clean power law: every candidate can model it, so the chain holds
  // all four kinds with the legacy-selected primary first.
  ml::Dataset ds;
  std::vector<double> sizes;
  std::vector<double> y;
  for (double s = 64; s <= 65536; s *= 2) {
    sizes.push_back(s);
    y.push_back(2.0 * std::pow(s, 1.5));
  }
  ds.add_column("size", sizes);
  ds.add_column("flops", y);

  const auto models = core::CounterModels::fit(ds, {"flops"});
  ASSERT_EQ(models.num_entries(), 1u);
  EXPECT_EQ(models.entry_counter(0), "flops");

  const auto& chain = models.entry_chain(0);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain.front(), models.info()[0].chosen);
  for (const auto kind :
       {core::CounterModelKind::kGlm, core::CounterModelKind::kMars,
        core::CounterModelKind::kLogLinear,
        core::CounterModelKind::kPowerLaw}) {
    EXPECT_NE(std::find(chain.begin(), chain.end(), kind), chain.end())
        << counter_model_name(kind);
  }
  EXPECT_EQ(models.info()[0].chain, chain);
  EXPECT_TRUE(std::isfinite(models.info()[0].cv_rmse));

  // The power-law fallback extrapolates the law through the two largest
  // training points, far beyond the training range.
  const double far = 4.0 * 65536;
  const double expected = 2.0 * std::pow(far, 1.5);
  const std::vector<double> far_in = {far};
  std::vector<double> scratch;
  const double pl = models.predict_kind(0, core::CounterModelKind::kPowerLaw,
                                        far_in, scratch);
  EXPECT_NEAR(pl, expected, 0.01 * expected);
}

TEST(CounterModelChain, EveryPredictionExitsNonNegative) {
  // A decreasing line goes negative under extrapolation; the single exit
  // point must clamp it to zero and report the clamp.
  ml::Dataset ds;
  ds.add_column("size", {10, 20, 30, 40});
  ds.add_column("stalls", {90, 80, 70, 60});  // 100 - size

  core::CounterModelOptions opts;
  opts.kind = core::CounterModelKind::kGlm;
  opts.log_inputs = false;
  opts.auto_log_response = false;
  opts.glm.degree = 1;
  opts.glm.log_terms = false;
  const auto models = core::CounterModels::fit(ds, {"stalls"}, opts);
  ASSERT_EQ(models.num_entries(), 1u);

  bool negative_clamped = false;
  const std::vector<double> far_in = {500.0};
  std::vector<double> scratch;
  const double v = models.predict_kind(0, core::CounterModelKind::kGlm,
                                       far_in, scratch, &negative_clamped);
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(negative_clamped);

  // The bulk predict path shares the same exit.
  const auto pairs = models.predict({500.0});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_GE(pairs[0].second, 0.0);

  // In-range predictions are untouched (and report no clamp).
  negative_clamped = true;
  const std::vector<double> mid_in = {25.0};
  const double mid = models.predict_kind(0, core::CounterModelKind::kGlm,
                                         mid_in, scratch, &negative_clamped);
  EXPECT_NEAR(mid, 75.0, 1e-6);
  EXPECT_FALSE(negative_clamped);
}

TEST(CounterModelChain, FallbackChainRecordsPrimaryCvError) {
  // Noisy but monotone data: whatever the exact CV ranking, the chain is
  // a permutation of all four kinds with the primary first, and the
  // primary's CV RMSE is recorded for the guard report.
  ml::Dataset ds;
  std::vector<double> sizes;
  std::vector<double> y;
  double jitter = 0.02;
  for (double s = 128; s <= 131072; s *= 2) {
    sizes.push_back(s);
    y.push_back(3.0 * s * (1.0 + jitter));
    jitter = -jitter;
  }
  ds.add_column("size", sizes);
  ds.add_column("bytes", y);

  const auto models = core::CounterModels::fit(ds, {"bytes"});
  const auto& info = models.info()[0];
  ASSERT_EQ(info.chain.size(), 4u);
  EXPECT_EQ(info.chain.front(), info.chosen);
  EXPECT_GT(info.cv_rmse, 0.0);
  EXPECT_TRUE(std::isfinite(info.cv_rmse));
}

// ---- the guarded problem-scaling path ----

const ml::Dataset& reduce1_sweep() {
  static const ml::Dataset ds = [] {
    const gpusim::Device dev(gpusim::gtx580());
    return profiling::sweep(profiling::workload_by_name("reduce1"), dev,
                            profiling::log2_sizes(1 << 14, 1 << 22, 16, 256));
  }();
  return ds;
}

core::ProblemScalingOptions guarded_options() {
  core::ProblemScalingOptions pso;
  pso.model.forest.n_trees = 120;
  pso.arch = gpusim::gtx580();
  return pso;
}

const core::ProblemScalingPredictor& guarded_predictor() {
  static const core::ProblemScalingPredictor p =
      core::ProblemScalingPredictor::build(reduce1_sweep(),
                                           guarded_options());
  return p;
}

// Pre-guard baseline: reduce1 on gtx580, sizes log2_sizes(2^14, 2^22, 16,
// 256), 120 trees — captured at the commit before the guard layer landed.
// The untripped guarded path must reproduce these numbers exactly.
const std::vector<std::pair<double, double>> kReduce1Baseline = {
    {32768, 0.0051066325251370431},  {65536, 0.0083086092245588036},
    {131072, 0.014143468900777414},  {524288, 0.051980062173440054},
    {1048576, 0.076073059993285869}, {2097152, 0.1957913344543703},
};

TEST(GuardedPredictor, UntrippedGuardedPathIsBitIdenticalToLegacy) {
  const auto& predictor = guarded_predictor();
  for (const auto& [size, expected] : kReduce1Baseline) {
    const auto rec = predictor.predict_guarded(size);
    EXPECT_TRUE(rec.demotions.empty()) << "size " << size;
    EXPECT_TRUE(rec.clamps.empty()) << "size " << size;
    EXPECT_FALSE(rec.extrapolated) << "size " << size;
    // Bit-identical to the stored pre-guard baseline.
    EXPECT_DOUBLE_EQ(rec.value, expected) << "size " << size;
    EXPECT_LE(rec.lo, rec.value);
    EXPECT_GE(rec.hi, rec.value);
  }
}

TEST(GuardedPredictor, InHullPredictionsKeepAccuracyAndGradeAB) {
  const auto& predictor = guarded_predictor();
  std::vector<double> sizes;
  for (const auto& pair : kReduce1Baseline) sizes.push_back(pair.first);
  const gpusim::Device dev(gpusim::gtx580());
  const ml::Dataset truth =
      profiling::sweep(profiling::workload_by_name("reduce1"), dev, sizes);
  const std::vector<double> measured = truth.column(kTimeColumn);

  const auto series = predictor.validate(sizes, measured);
  EXPECT_GT(series.explained_variance, 0.9);

  ASSERT_TRUE(series.guard.enabled);
  ASSERT_EQ(series.guard.predictions.size(), sizes.size());
  for (const auto& rec : series.guard.predictions) {
    EXPECT_NE(rec.grade, guard::Grade::kC) << "size " << rec.size;
    EXPECT_FALSE(rec.extrapolated) << "size " << rec.size;
  }
}

TEST(GuardedPredictor, HeadlineFourTimesLargestSizeIsFlaggedAndGradedC) {
  const auto& predictor = guarded_predictor();
  const double largest = 1 << 22;
  const auto rec = predictor.predict_guarded(4.0 * largest);

  EXPECT_TRUE(rec.extrapolated);
  bool size_flagged = false;
  for (const auto& f : rec.flags) {
    if (f.feature == kSizeColumn) {
      size_flagged = true;
      EXPECT_GT(f.distance, 0.5);  // far beyond the margined hull
    }
  }
  EXPECT_TRUE(size_flagged);
  EXPECT_EQ(rec.grade, guard::Grade::kC);
  // Physically impossible counter values were clamped to the caps.
  EXPECT_FALSE(rec.clamps.empty());
  // The guarded value is still finite and positive.
  EXPECT_TRUE(std::isfinite(rec.value));
  EXPECT_GT(rec.value, 0.0);
}

TEST(GuardedPredictor, GuardReportDescribesTheModel) {
  const auto& predictor = guarded_predictor();
  const auto report = predictor.guard_report();
  EXPECT_TRUE(report.enabled);
  ASSERT_FALSE(report.hull.empty());
  bool has_size = false;
  for (const auto& r : report.hull) {
    if (r.name == kSizeColumn) {
      has_size = true;
      EXPECT_EQ(r.lo, 1 << 14);
      EXPECT_EQ(r.hi, 1 << 22);
    }
  }
  EXPECT_TRUE(has_size);
  ASSERT_FALSE(report.counters.empty());
  for (const auto& c : report.counters) {
    EXPECT_EQ(c.chain.size(), 4u) << c.counter;
    EXPECT_EQ(c.chain.front(), c.chosen) << c.counter;
  }
  // No predictions yet: the fit-time skeleton is grade A and not degraded.
  EXPECT_EQ(report.worst(), guard::Grade::kA);
  EXPECT_FALSE(report.degraded());
}

// ---- hardware scaling: the guard only annotates ----

TEST(HardwareScalingGuard, AnnotatesWithoutChangingPredictions) {
  profiling::SweepOptions sweep_opts;
  sweep_opts.machine_characteristics = true;
  const auto sizes = profiling::log2_sizes(1 << 14, 1 << 20, 12, 256);
  const gpusim::Device src_dev(gpusim::gtx580());
  const gpusim::Device tgt_dev(gpusim::kepler_k20m());
  const auto workload = profiling::workload_by_name("reduce1");
  const ml::Dataset source =
      profiling::sweep(workload, src_dev, sizes, sweep_opts);
  const ml::Dataset target =
      profiling::sweep(workload, tgt_dev, sizes, sweep_opts);

  core::HardwareScalingOptions options;
  options.model.forest.n_trees = 80;
  const auto annotated =
      core::HardwareScalingPredictor::predict(source, target, options);

  // Each annotation carries the series' own prediction bit for bit; the
  // guard only adds hull flags and grades.
  const auto& series = annotated.series;
  ASSERT_TRUE(series.guard.enabled);
  ASSERT_FALSE(series.predicted_ms.empty());
  ASSERT_EQ(series.guard.predictions.size(), series.predicted_ms.size());
  for (std::size_t i = 0; i < series.predicted_ms.size(); ++i) {
    EXPECT_EQ(series.guard.predictions[i].value, series.predicted_ms[i])
        << "row " << i;
  }
}

}  // namespace
}  // namespace bf
