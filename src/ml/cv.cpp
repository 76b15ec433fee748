#include "ml/cv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ml/metrics.hpp"

namespace bf::ml {

CvResult kfold_cv(
    const Dataset& ds, const std::string& response, std::size_t folds,
    Rng& rng,
    const std::function<std::vector<double>(const Dataset&,
                                            const Dataset&)>& fit_predict) {
  const std::size_t n = ds.num_rows();
  BF_CHECK_MSG(folds >= 2, "need at least 2 folds");
  BF_CHECK_MSG(n >= folds, "need at least one row per fold");
  BF_CHECK_MSG(ds.has_column(response), "missing response column");
  BF_CHECK_MSG(static_cast<bool>(fit_predict), "missing fit_predict");

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  CvResult out;
  out.predictions.assign(n, std::numeric_limits<double>::quiet_NaN());
  out.fold_mse.assign(folds, 0.0);
  const auto& truth = ds.column(response);

  // Folds are independent: fold f writes fold_mse[f] and the prediction
  // slots of its own test rows, so the result is the same at any pool
  // size.
  ThreadPool::global().parallel_for(0, folds, [&](std::size_t f) {
    std::vector<std::size_t> train_rows;
    std::vector<std::size_t> test_rows;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % folds == f) {
        test_rows.push_back(order[i]);
      } else {
        train_rows.push_back(order[i]);
      }
    }
    const Dataset train = ds.select_rows(train_rows);
    const Dataset test = ds.select_rows(test_rows);
    const auto pred = fit_predict(train, test);
    BF_CHECK_MSG(pred.size() == test_rows.size(),
                 "fit_predict returned " << pred.size() << " predictions for "
                                         << test_rows.size() << " rows");
    std::vector<double> fold_truth;
    for (std::size_t i = 0; i < test_rows.size(); ++i) {
      out.predictions[test_rows[i]] = pred[i];
      fold_truth.push_back(truth[test_rows[i]]);
    }
    out.fold_mse[f] = mse(fold_truth, pred);
  });

  out.mean_mse = mean(out.fold_mse);
  out.sd_mse = sample_sd(out.fold_mse);
  return out;
}

double cv_rmse(const Dataset& ds, const std::string& response,
               std::size_t folds, std::uint64_t seed,
               const std::function<std::vector<double>(const Dataset&,
                                                       const Dataset&)>&
                   fit_predict) {
  const std::size_t n = ds.num_rows();
  if (n < 2) return std::numeric_limits<double>::infinity();
  folds = std::min(folds, n);
  if (folds < 2) folds = 2;
  try {
    Rng rng(seed);
    const CvResult result = kfold_cv(ds, response, folds, rng, fit_predict);
    if (!std::isfinite(result.mean_mse)) {
      return std::numeric_limits<double>::infinity();
    }
    return std::sqrt(std::max(0.0, result.mean_mse));
  } catch (const Error&) {
    // A model that cannot even fit its folds ranks last, not fatal.
    return std::numeric_limits<double>::infinity();
  }
}

}  // namespace bf::ml
