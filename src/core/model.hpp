// Stage 2 + 3 of the BlackForest methodology (§4.2): random-forest
// construction over a profiled sweep, validation on a held-out split, and
// variable-importance analysis.
//
// The dataset convention follows bf::profiling::sweep: every column except
// the response is a predictor (counters, the problem characteristic
// "size", and — for hardware scaling — the Table 2 machine
// characteristics). The response defaults to "time_ms"; bf::power refits
// the same machinery with "power_avg_w" as the response.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"

namespace bf::core {

struct ModelOptions {
  /// Fraction of rows held out for validation (the paper's 80:20 split).
  double test_fraction = 0.2;
  ml::ForestParams forest;
  /// Predictor columns to exclude (besides the response).
  std::vector<std::string> exclude;
  /// Response column (profiling::kTimeColumn unless a second response
  /// variable — e.g. profiling::kPowerColumn — is being modelled).
  std::string response = "time_ms";
  std::uint64_t seed = 7;
};

/// A fitted BlackForest response model with its validation statistics.
class BlackForestModel {
 public:
  /// Split `ds` into train/test, fit the forest on the training part and
  /// evaluate on the held-out part.
  static BlackForestModel fit(const ml::Dataset& ds,
                              const ModelOptions& options = {});

  /// Refit using only the named predictors (stage 3's check that the top
  /// few variables "retain most of the predictive power").
  BlackForestModel refit_with(const std::vector<std::string>& predictors)
      const;

  /// Training-side forest (OOB statistics, importance, the trees).
  /// Fitted models always carry it; models loaded from a "bf_model"
  /// record carry only the frozen flat form (forest().fitted() is false
  /// there). Every prediction goes through flat().
  const ml::RandomForest& forest() const { return forest_; }
  /// The frozen flat inference engine (always fitted on a usable model).
  const ml::FlatForest& flat() const { return flat_; }
  const std::vector<std::string>& predictors() const { return predictors_; }
  /// Name of the response column this model was fitted against
  /// ("time_ms" on models loaded from a bundle record, which carry no
  /// training data).
  const std::string& response() const { return options_.response; }
  const ml::Dataset& train_data() const { return train_; }
  const ml::Dataset& test_data() const { return test_; }

  /// OOB % variance explained (randomForest's headline statistic).
  double pct_var_explained() const { return forest_.pct_var_explained(); }
  double oob_mse() const { return forest_.oob_mse(); }
  /// Held-out MSE and explained variance.
  double test_mse() const { return test_mse_; }
  double test_explained_variance() const { return test_explained_var_; }

  std::vector<ml::VariableImportance> importance() const {
    return forest_.importance();
  }
  std::vector<std::string> top_variables(std::size_t k) const {
    return forest_.top_variables(k);
  }
  /// Partial dependence over the training rows (the background set).
  /// Models loaded from a bundle carry no training rows and throw.
  std::vector<ml::PartialDependencePoint> partial_dependence(
      const std::string& predictor, std::size_t grid = 25) const;

  /// Predict times for rows of a dataset that contains (at least) the
  /// model's predictor columns. Runs on the flat engine.
  std::vector<double> predict(const ml::Dataset& ds) const;

  /// Forest prediction with the per-tree quantile band. The scratch form
  /// is the allocation-free hot path.
  ml::PredictionInterval predict_interval(const double* row, double alpha,
                                          ml::ForestScratch& scratch) const {
    return flat_.predict_interval(row, alpha, scratch);
  }
  std::vector<ml::PredictionInterval> predict_intervals(
      const linalg::Matrix& x, double alpha = 0.1) const {
    return flat_.predict_intervals(x, alpha);
  }

  /// Serialise the fitted model for .bfmodel bundles: predictor names,
  /// held-out statistics and the *frozen flat forest* (format version 2).
  /// The train/test datasets and the pointer trees are NOT stored — a
  /// loaded model predicts (bit-identically) but cannot be refit;
  /// train_data()/test_data() on it are empty. Version-1 records (the
  /// retired pointer-forest dump) are rejected with a re-export hint.
  void save(std::ostream& os) const;
  static BlackForestModel load(std::istream& is);

 private:
  ml::RandomForest forest_;
  ml::FlatForest flat_;
  std::vector<std::string> predictors_;
  ml::Dataset train_;
  ml::Dataset test_;
  ModelOptions options_;
  double test_mse_ = 0.0;
  double test_explained_var_ = 0.0;
};

}  // namespace bf::core
