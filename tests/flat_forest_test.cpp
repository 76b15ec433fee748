// Reference suite for the flat inference engine: every prediction a
// FlatForest makes — single row, batched, interval, partial dependence,
// NaN-repaired, fault-corrupted, reloaded from disk — must equal the
// reference walk EXACTLY (EXPECT_EQ on doubles, not a tolerance): the
// tree-order sum of RegressionTree::predict_row over the fitted trees,
// with non-finite features replaced by the training medians by hand.
// The freeze is a pure re-layout; any drift means the stepping kernel or
// the tree-order accumulation diverged from the trees it was frozen from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"

namespace bf::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Synthetic {
  linalg::Matrix x;
  std::vector<double> y;
};

/// Interacting nonlinear response over four features so trees actually
/// split on everything and leaves carry distinct values.
Synthetic make_synthetic(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Synthetic s{linalg::Matrix(n, 4), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) s.x(i, j) = rng.uniform(-5, 5);
    s.y[i] = 3.0 * s.x(i, 0) - 2.0 * s.x(i, 1) * s.x(i, 2) +
             std::sin(s.x(i, 3)) + rng.normal(0.0, 0.3);
  }
  return s;
}

const std::vector<std::string> kNames = {"a", "b", "c", "d"};

RandomForest fit_forest(std::uint64_t seed, std::size_t n_trees = 60) {
  const auto data = make_synthetic(200, seed);
  ForestParams p;
  p.n_trees = n_trees;
  p.seed = seed * 31 + 7;
  p.importance = false;
  RandomForest rf;
  rf.fit(data.x, data.y, kNames, p);
  return rf;
}

/// Probe rows spanning in-range and far-out-of-range cells; with
/// `with_nan` some rows also carry a NaN cell (a dropped counter).
linalg::Matrix make_probes(std::uint64_t seed, std::size_t n = 64,
                           bool with_nan = false) {
  Rng rng(seed);
  linalg::Matrix x(n, 4);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.uniform(-8, 8);
    if (with_nan && i % 7 == 3) x(i, i % 4) = kNaN;
    if (i % 11 == 5) x(i, 1) = rng.uniform(1e6, 1e7);  // extrapolation
  }
  return x;
}

/// The reference walk: each tree's leaf value for `row`, in tree order.
std::vector<double> reference_values(const RandomForest& rf,
                                     const double* row) {
  std::vector<double> out;
  for (std::size_t t = 0; t < rf.n_trees(); ++t) {
    out.push_back(rf.tree(t).predict_row(row));
  }
  return out;
}

double reference_mean(const RandomForest& rf, const double* row) {
  double acc = 0.0;
  for (const double v : reference_values(rf, row)) acc += v;
  return acc / static_cast<double>(rf.n_trees());
}

/// The reference interval: tree-order mean, quantiles of the sorted
/// per-tree values through the shared helper.
PredictionInterval reference_interval(const RandomForest& rf,
                                      const double* row, double alpha) {
  std::vector<double> values = reference_values(rf, row);
  std::sort(values.begin(), values.end());
  return {reference_mean(rf, row), sorted_quantile(values, alpha / 2.0),
          sorted_quantile(values, 1.0 - alpha / 2.0)};
}

/// `row` with every non-finite cell replaced by the training median.
std::vector<double> repaired_by_hand(const RandomForest& rf,
                                     std::vector<double> row) {
  for (std::size_t f = 0; f < row.size(); ++f) {
    if (!std::isfinite(row[f])) row[f] = rf.feature_medians()[f];
  }
  return row;
}

TEST(FlatForest, FreezePreservesShape) {
  const auto rf = fit_forest(1);
  const auto flat = FlatForest::freeze(rf);
  EXPECT_TRUE(flat.fitted());
  EXPECT_EQ(flat.n_trees(), 60u);
  EXPECT_EQ(flat.feature_names(), kNames);
  EXPECT_EQ(flat.feature_medians(), rf.feature_medians());
  std::size_t pointer_nodes = 0;
  for (std::size_t t = 0; t < rf.n_trees(); ++t) {
    pointer_nodes += rf.tree(t).node_count();
  }
  EXPECT_EQ(flat.node_count(), pointer_nodes);
}

TEST(FlatForest, PredictRowEqualsReferenceWalk) {
  const auto rf = fit_forest(2);
  const auto flat = FlatForest::freeze(rf);
  const auto probes = make_probes(12);
  ForestScratch scratch;
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    const double want = reference_mean(rf, probes.row_ptr(i));
    EXPECT_EQ(flat.predict_row(probes.row_ptr(i), scratch), want);
    EXPECT_EQ(flat.predict_row(probes.row_ptr(i)), want);
  }
}

TEST(FlatForest, BatchedPredictMatchesRowPath) {
  const auto rf = fit_forest(3);
  const auto flat = FlatForest::freeze(rf);
  // Odd count: exercises the partial trailing block. NaN rows go through
  // the same repair in both paths.
  const auto probes = make_probes(13, 37, /*with_nan=*/true);
  const auto got = flat.predict(probes);
  ASSERT_EQ(got.size(), probes.rows());
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    EXPECT_EQ(got[i], flat.predict_row(probes.row_ptr(i))) << "row " << i;
  }
  const auto finite = make_probes(23, 37);
  const auto got_finite = flat.predict(finite);
  for (std::size_t i = 0; i < finite.rows(); ++i) {
    EXPECT_EQ(got_finite[i], reference_mean(rf, finite.row_ptr(i)))
        << "row " << i;
  }
}

TEST(FlatForest, IntervalsEqualReferenceQuantiles) {
  const auto rf = fit_forest(4);
  const auto flat = FlatForest::freeze(rf);
  const auto probes = make_probes(14, 16);
  ForestScratch scratch;
  for (const double alpha : {0.02, 0.1, 0.5}) {
    for (std::size_t i = 0; i < probes.rows(); ++i) {
      const auto want = reference_interval(rf, probes.row_ptr(i), alpha);
      const auto got = flat.predict_interval(probes.row_ptr(i), alpha,
                                             scratch);
      EXPECT_EQ(got.mean, want.mean);
      EXPECT_EQ(got.lo, want.lo);
      EXPECT_EQ(got.hi, want.hi);
    }
    const auto got_batch = flat.predict_intervals(probes, alpha);
    ASSERT_EQ(got_batch.size(), probes.rows());
    for (std::size_t i = 0; i < probes.rows(); ++i) {
      const auto want = reference_interval(rf, probes.row_ptr(i), alpha);
      EXPECT_EQ(got_batch[i].mean, want.mean);
      EXPECT_EQ(got_batch[i].lo, want.lo);
      EXPECT_EQ(got_batch[i].hi, want.hi);
    }
  }
  EXPECT_THROW(flat.predict_interval(probes.row_ptr(0), 0.0), Error);
  EXPECT_THROW(flat.predict_interval(probes.row_ptr(0), 1.0), Error);
}

TEST(FlatForest, SortedQuantileInterpolates) {
  const std::vector<double> v = {1.0, 2.0, 4.0, 8.0, 16.0};
  EXPECT_EQ(sorted_quantile(v, 0.0), 1.0);
  EXPECT_EQ(sorted_quantile(v, 0.5), 4.0);
  EXPECT_EQ(sorted_quantile(v, 0.625), 6.0);  // halfway from 4 to 8
  EXPECT_EQ(sorted_quantile(v, 1.0), 16.0);
  EXPECT_EQ(sorted_quantile({3.0}, 0.9), 3.0);
}

TEST(FlatForest, NonFiniteCellsRepairedWithTrainingMedians) {
  const auto rf = fit_forest(5);
  const auto flat = FlatForest::freeze(rf);
  for (const std::vector<double>& dirty :
       {std::vector<double>{kNaN, kNaN, kNaN, kNaN},
        std::vector<double>{1.0, kInf, -2.0, -kInf},
        std::vector<double>{0.5, kNaN, 2.5, -3.5}}) {
    const std::vector<double> clean = repaired_by_hand(rf, dirty);
    const double want = flat.predict_row(clean.data());
    EXPECT_EQ(flat.predict_row(dirty.data()), want);
    EXPECT_EQ(want, reference_mean(rf, clean.data()));
    const auto iv = flat.predict_interval(dirty.data());
    const auto want_iv = reference_interval(rf, clean.data(), 0.1);
    EXPECT_EQ(iv.mean, want_iv.mean);
    EXPECT_EQ(iv.lo, want_iv.lo);
    EXPECT_EQ(iv.hi, want_iv.hi);
  }
}

TEST(FlatForest, NanFaultEqualsHandRepairOfFeatureZero) {
  const auto rf = fit_forest(6);
  const auto flat = FlatForest::freeze(rf);
  const std::vector<double> row = {0.5, -1.5, 2.5, -3.5};
  std::vector<double> by_hand = row;
  by_hand[0] = rf.feature_medians()[0];
  const double want = reference_mean(rf, by_hand.data());
  const linalg::Matrix rows = {{0.5, -1.5, 2.5, -3.5},
                               {1.0, 2.0, -3.0, 4.0},
                               {-4.0, 0.0, 1.0, -1.0}};
  // The fault fires once per sanitized row on its own deterministic RNG
  // stream; at rate 1.0 it replaces feature 0 with NaN every time, and
  // the repair puts the training median back.
  fault::arm(fault::points::kForestNanFeature, 1.0);
  const double got = flat.predict_row(row.data());
  const auto got_batch = flat.predict(rows);
  fault::reset();
  EXPECT_EQ(got, want);
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    std::vector<double> fixed(rows.row_ptr(i), rows.row_ptr(i) + 4);
    fixed[0] = rf.feature_medians()[0];
    EXPECT_EQ(got_batch[i], reference_mean(rf, fixed.data())) << "row " << i;
  }
  // The corrupted prediction differs from the clean one (the fault
  // really replaced feature 0).
  EXPECT_NE(flat.predict_row(row.data()), got);
  EXPECT_EQ(flat.predict_row(row.data()), reference_mean(rf, row.data()));
}

TEST(FlatForest, PartialDependenceIsMeanOfReferenceWalks) {
  const auto data = make_synthetic(200, 9);
  ForestParams params;
  params.n_trees = 40;
  params.importance = false;
  RandomForest rf;
  rf.fit(data.x, data.y, kNames, params);
  const auto flat = FlatForest::freeze(rf);
  const std::size_t n = data.x.rows();
  const std::size_t f = 2;  // "c"

  const auto curve = flat.partial_dependence(data.x, "c", 7);
  const auto band = flat.partial_dependence_interval(data.x, "c", 7, 0.2);
  ASSERT_EQ(curve.size(), 7u);
  ASSERT_EQ(band.size(), 7u);
  double lo = kInf;
  double hi = -kInf;
  for (std::size_t r = 0; r < n; ++r) {
    lo = std::min(lo, data.x(r, f));
    hi = std::max(hi, data.x(r, f));
  }
  std::vector<double> row(4);
  for (std::size_t g = 0; g < curve.size(); ++g) {
    const double v = lo + (hi - lo) * static_cast<double>(g) / 6.0;
    double acc = 0.0;
    std::vector<double> per_tree(rf.n_trees(), 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      std::copy(data.x.row_ptr(r), data.x.row_ptr(r) + 4, row.begin());
      row[f] = v;
      acc += reference_mean(rf, row.data());
      const auto values = reference_values(rf, row.data());
      for (std::size_t t = 0; t < values.size(); ++t) {
        per_tree[t] += values[t];
      }
    }
    EXPECT_EQ(curve[g].x, v);
    EXPECT_EQ(curve[g].y, acc / static_cast<double>(n)) << "grid " << g;

    for (auto& s : per_tree) s /= static_cast<double>(n);
    std::sort(per_tree.begin(), per_tree.end());
    double mean = 0.0;
    for (const double s : per_tree) mean += s;
    EXPECT_EQ(band[g].x, v);
    EXPECT_EQ(band[g].y.mean, mean / static_cast<double>(rf.n_trees()));
    EXPECT_EQ(band[g].y.lo, sorted_quantile(per_tree, 0.1));
    EXPECT_EQ(band[g].y.hi, sorted_quantile(per_tree, 0.9));
  }

  EXPECT_THROW(flat.partial_dependence(data.x, "zzz"), Error);
  EXPECT_THROW(flat.partial_dependence(data.x, "c", 1), Error);
  EXPECT_THROW(flat.partial_dependence(linalg::Matrix(0, 4), "c"), Error);
  EXPECT_THROW(flat.partial_dependence(linalg::Matrix(5, 3), "c"), Error);
}

TEST(FlatForest, SaveLoadRoundTripExact) {
  const auto rf = fit_forest(7);
  const auto probes = make_probes(17, 24, /*with_nan=*/true);
  const auto flat = FlatForest::freeze(rf);
  std::stringstream ss;
  flat.save(ss);
  EXPECT_NE(ss.str().find("\nlayout df\n"), std::string::npos);
  const auto loaded = FlatForest::load(ss);
  EXPECT_EQ(loaded.n_trees(), flat.n_trees());
  EXPECT_EQ(loaded.node_count(), flat.node_count());
  EXPECT_EQ(loaded.feature_names(), flat.feature_names());
  EXPECT_EQ(loaded.feature_medians(), flat.feature_medians());
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    EXPECT_EQ(loaded.predict_row(probes.row_ptr(i)),
              flat.predict_row(probes.row_ptr(i)));
  }
}

TEST(FlatForest, LoadRejectsGarbage) {
  std::stringstream bad_magic("not_a_forest 1\n");
  EXPECT_THROW(FlatForest::load(bad_magic), Error);
  const auto flat = FlatForest::freeze(fit_forest(8, 4));
  std::stringstream ss;
  flat.save(ss);
  std::string text = ss.str();
  // Only the depth-first layout tag is read.
  std::string other_layout = text;
  other_layout.replace(other_layout.find("layout df"), 9, "layout bf");
  std::stringstream bf_tag(other_layout);
  EXPECT_THROW(FlatForest::load(bf_tag), Error);
  text.resize(text.size() / 2);  // truncation
  std::stringstream cut(text);
  EXPECT_THROW(FlatForest::load(cut), Error);
}

TEST(FlatForest, PropertyRandomForestsEqualReferenceWalk) {
  Rng rng(99);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const auto data = make_synthetic(40 + 10 * (trial % 5), 100 + trial);
    ForestParams p;
    p.n_trees = 1 + static_cast<std::size_t>(rng.uniform(0, 24));
    p.max_depth = static_cast<std::size_t>(rng.uniform(0, 6));  // 0 = deep
    p.min_node_size = 1 + static_cast<std::size_t>(rng.uniform(0, 7));
    p.mtry = static_cast<std::size_t>(rng.uniform(0, 4));
    p.importance = false;
    p.seed = 1000 + trial;
    RandomForest rf;
    rf.fit(data.x, data.y, kNames, p);
    const auto probes = make_probes(200 + trial, 16);
    const auto flat = FlatForest::freeze(rf);
    ForestScratch scratch;
    const auto batch = flat.predict(probes);
    for (std::size_t i = 0; i < probes.rows(); ++i) {
      const double want = reference_mean(rf, probes.row_ptr(i));
      EXPECT_EQ(flat.predict_row(probes.row_ptr(i), scratch), want)
          << "trial " << trial << " row " << i;
      EXPECT_EQ(batch[i], want) << "trial " << trial << " row " << i;
      const auto want_iv = reference_interval(rf, probes.row_ptr(i), 0.1);
      const auto got_iv = flat.predict_interval(probes.row_ptr(i), 0.1,
                                                scratch);
      EXPECT_EQ(got_iv.lo, want_iv.lo);
      EXPECT_EQ(got_iv.hi, want_iv.hi);
    }
  }
}

// ---- model-level round trips (the .bfmodel payload) ----

ml::Dataset model_sweep() {
  const auto data = make_synthetic(120, 55);
  ml::Dataset ds;
  std::vector<std::vector<double>> cols(4);
  std::vector<double> time(data.y);
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    for (std::size_t j = 0; j < 4; ++j) cols[j].push_back(data.x(i, j));
    time[i] = std::abs(time[i]) + 0.5;  // times are positive
  }
  for (std::size_t j = 0; j < 4; ++j) ds.add_column(kNames[j], cols[j]);
  ds.add_column("time_ms", time);
  return ds;
}

core::ModelOptions fast_model() {
  core::ModelOptions opt;
  opt.forest.n_trees = 50;
  opt.forest.importance = false;
  return opt;
}

TEST(FlatForestModel, V2SaveLoadPredictsIdentically) {
  const auto model = core::BlackForestModel::fit(model_sweep(), fast_model());
  std::stringstream ss;
  model.save(ss);
  EXPECT_EQ(ss.str().substr(0, 10), "bf_model 2");
  const auto loaded = core::BlackForestModel::load(ss);
  EXPECT_FALSE(loaded.forest().fitted());  // v2 carries the flat form only
  EXPECT_TRUE(loaded.flat().fitted());
  const auto probe = model_sweep().drop_columns({"time_ms"});
  const auto want = model.predict(probe);
  const auto got = loaded.predict(probe);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  EXPECT_EQ(loaded.test_mse(), model.test_mse());
  EXPECT_EQ(loaded.test_explained_variance(),
            model.test_explained_variance());
  // Partial dependence needs the training rows, which bundles omit.
  EXPECT_THROW(loaded.partial_dependence("a"), Error);
}

TEST(FlatForestModel, GuardedIntervalPathEqualsReferenceWalk) {
  const auto model = core::BlackForestModel::fit(model_sweep(), fast_model());
  const auto probes = make_probes(300, 12);
  ForestScratch scratch;
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    // The exact call the guarded predictor hot path makes...
    const auto got = model.predict_interval(probes.row_ptr(i), 0.1, scratch);
    // ...against the trees it froze from.
    const auto want = reference_interval(model.forest(), probes.row_ptr(i),
                                         0.1);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.lo, want.lo);
    EXPECT_EQ(got.hi, want.hi);
  }
}

TEST(FlatForestModel, PartialDependenceRunsOverTrainingRows) {
  const auto model = core::BlackForestModel::fit(model_sweep(), fast_model());
  const linalg::Matrix background =
      model.train_data().to_matrix(model.predictors());
  const auto want = model.flat().partial_dependence(background, "b", 9);
  const auto got = model.partial_dependence("b", 9);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t g = 0; g < want.size(); ++g) {
    EXPECT_EQ(got[g].x, want[g].x);
    EXPECT_EQ(got[g].y, want[g].y);
  }
}

// Hand-written version-1 records (the retired pointer-forest dump). Both
// are hostile: the first tree's root lists itself as both children, the
// second splits on feature 1000000 of a two-feature row. They must fail
// the load with bf::Error, not loop or walk out of bounds.
const char* const kV1SelfChild =
    "bf_model 1\n2 a b\n0.5 0.9\n"
    "bf_forest 1\nfeatures 2 a b\nstats 0.1 90 0\nimportance 0 0 0 0 0 0\n"
    "train 2 2\n1 2 3\n4 5 6\noob 0\ntrees 1\n"
    "tree 1\n0 0 0 0.5 1 0\n";
const char* const kV1HugeFeature =
    "bf_model 1\n2 a b\n0.5 0.9\n"
    "bf_forest 1\nfeatures 2 a b\nstats 0.1 90 0\nimportance 0 0 0 0 0 0\n"
    "train 2 2\n1 2 3\n4 5 6\noob 0\ntrees 1\n"
    "tree 3\n1 2 1000000 0.5 0 1\n-1 -1 -1 0 1 0\n-1 -1 -1 0 2 0\n";

TEST(FlatForestModel, V1RecordsAreRejected) {
  for (const char* record : {kV1SelfChild, kV1HugeFeature}) {
    std::stringstream is(record);
    try {
      (void)core::BlackForestModel::load(is);
      ADD_FAILURE() << "v1 record loaded";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("format_version 1"), std::string::npos) << what;
      EXPECT_NE(what.find("re-export"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace bf::ml
