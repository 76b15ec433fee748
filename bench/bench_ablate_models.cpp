// Ablation A3: the response model itself — random forest vs GLM vs MARS
// predicting execution time from the counters.
//
// The paper selects random forest "because it usually outperforms the
// more traditional classification and regression algorithms …
// especially for scarce training data" (§1). This bench quantifies that
// choice on the MM and NW sweeps.
#include <cstdio>

#include "bench_util.hpp"
#include "core/model.hpp"
#include "ml/linear_model.hpp"
#include "ml/mars.hpp"
#include "ml/metrics.hpp"
#include "profiling/workloads.hpp"

namespace {

using namespace bf;

void compare_on(const std::string& label, const ml::Dataset& sweep) {
  Rng rng(42);
  const auto split = ml::train_test_split(sweep, 0.2, rng);

  std::vector<std::string> predictors;
  for (const auto& name : split.train.column_names()) {
    if (name == profiling::kTimeColumn) continue;
    bool excluded = false;
    for (const auto& e : bench::paper_excludes()) {
      if (e == name) excluded = true;
    }
    if (!excluded) predictors.push_back(name);
  }
  const auto x_train = split.train.to_matrix(predictors);
  const auto x_test = split.test.to_matrix(predictors);
  const auto& y_train = split.train.column(profiling::kTimeColumn);
  const auto& y_test = split.test.column(profiling::kTimeColumn);

  std::vector<std::vector<std::string>> rows;
  const auto score = [&](const std::string& name,
                         const std::vector<double>& pred) {
    rows.push_back({name, report::cell(ml::mse(y_test, pred), 4),
                    report::cell(
                        100.0 * ml::explained_variance(y_test, pred), 1),
                    report::cell(ml::median_abs_pct_error(y_test, pred),
                                 1)});
  };

  ml::RandomForest rf;
  ml::ForestParams fp;
  fp.n_trees = 500;
  fp.min_node_size = 2;
  fp.importance = false;
  rf.fit(x_train, y_train, predictors, fp);
  score("random forest", ml::FlatForest::freeze(rf).predict(x_test));

  ml::Glm glm;
  ml::GlmParams gp;
  gp.degree = 1;  // p is large; higher degrees explode the basis
  gp.log_terms = false;
  glm.fit(x_train, y_train, gp);
  score("GLM (linear)", glm.predict(x_test));

  ml::Mars mars;
  ml::MarsParams mp;
  mp.max_terms = 15;
  mars.fit(x_train, y_train, mp);
  score("MARS", mars.predict(x_test));

  std::printf("%s (train %zu rows, test %zu rows, %zu predictors):\n%s\n",
              label.c_str(), split.train.num_rows(), split.test.num_rows(),
              predictors.size(),
              report::table({"model", "test MSE", "expl var %",
                             "median |err| %"},
                            rows)
                  .c_str());
}

}  // namespace

int main() {
  bench::print_header("Ablation A3",
                      "response model: random forest vs GLM vs MARS");

  const gpusim::Device device(gpusim::gtx580());
  compare_on("matrixMul",
             profiling::sweep(profiling::matmul_workload(), device,
                              profiling::log2_sizes(32, 2048, 24, 16)));
  compare_on("needle",
             profiling::sweep(profiling::nw_workload(), device,
                              profiling::linear_sizes(64, 4096, 64)));
  return 0;
}
