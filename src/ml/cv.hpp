// K-fold cross-validation over a Dataset, model-agnostic.
//
// The paper leaves "a less empirical way to determine the ideal size" of
// the training set as future work; cross-validated error over candidate
// collection sizes is the standard answer, and this helper powers it.
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace bf::ml {

struct CvResult {
  /// Per-fold MSE on the held-out fold.
  std::vector<double> fold_mse;
  double mean_mse = 0.0;
  double sd_mse = 0.0;
  /// Pooled out-of-fold predictions aligned with the dataset rows.
  std::vector<double> predictions;
};

/// `fit_predict(train, test)` must fit a model on `train` and return
/// predictions for the rows of `test`. Rows are shuffled once with `rng`
/// and dealt into `folds` groups. The folds run on ThreadPool::global(),
/// so `fit_predict` may be called concurrently and must not mutate shared
/// state; each fold writes only its own result slots, and the mean and
/// sd are taken in fold order, so the result is the same at any pool
/// size. The first exception a fold throws is rethrown here.
CvResult kfold_cv(
    const Dataset& ds, const std::string& response, std::size_t folds,
    Rng& rng,
    const std::function<std::vector<double>(const Dataset& train,
                                            const Dataset& test)>&
        fit_predict);

/// RMSE convenience over kfold_cv, clamping `folds` to the row count.
/// Returns +inf when the dataset is too small to cross-validate (< 2
/// rows) or when `fit_predict` throws on some fold — an infinite CV
/// error naturally ranks an unusable model last in a fallback chain.
double cv_rmse(const Dataset& ds, const std::string& response,
               std::size_t folds, std::uint64_t seed,
               const std::function<std::vector<double>(const Dataset& train,
                                                       const Dataset& test)>&
                   fit_predict);

}  // namespace bf::ml
