// One bf_analyze run of a workload/architecture case, as the analysis
// workloads time it and as the serve workload uses it to export its
// bundles.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "power/predictor.hpp"
#include "queries.hpp"

namespace bf::perfbench {

constexpr std::size_t kTrees = 500;  // bf_analyze --trees default

/// One bf_analyze invocation: workload, architecture, sweep range.
struct CaseSpec {
  std::string workload;
  std::string arch;
  double lo = 0.0;
  double hi = 0.0;
  int runs = 40;
  std::int64_t multiple = 1;
  bool power = false;         ///< --power
  bool export_model = false;  ///< --export-model
};

std::string case_key(const CaseSpec& c);

/// What set-up prepares for one case.
struct CaseInputs {
  CaseSpec spec;
  core::PipelineConfig config;
  std::vector<double> heldout;   ///< sizes predicted and checked
  std::vector<double> truth_ms;  ///< simulated time at each held-out size
  std::vector<double> queries;   ///< sizes of the in-process query phase
};

struct CaseResult {
  ml::Dataset data;
  std::string importance;
  std::string report;
  core::ProblemScalingPredictor psp;
  std::optional<power::PowerPredictor> power;
  std::vector<QueryAnswer> predictions;  ///< one per held-out size
};

/// The configuration bf_analyze builds for `spec`, the held-out sizes
/// (`heldout_fixed` plus `heldout_fresh` in-hull sizes up to
/// `heldout_max` drawn from `seed`, none of them swept) with their
/// simulated times, and the query sizes.
CaseInputs prepare_case(const CaseSpec& spec, std::uint64_t seed,
                        const std::vector<double>& heldout_fixed,
                        std::size_t heldout_fresh, double heldout_max);

/// One bf_analyze run of a case: collection (a sweep, or a repository
/// load when `repo_root` is set), forest, importance, PCA, bottleneck
/// report, then --power, predictor builds, --export-model to
/// `bundle_path` and guarded predictions at the held-out sizes. With the
/// tracer off this calls core::run_analysis; with it on, the same stages
/// one by one, each in a span.
CaseResult analyze(const CaseInputs& in, const std::string& repo_root,
                   const std::string& bundle_path, Tracer& tr);

/// Digests of one case's outputs: sweep CSV, importance ranking,
/// bottleneck report, guarded predictions and bundle bytes. A case that
/// bf_analyze would not export is exported to `bundle_path` here, outside
/// any timed pass, so every case has its bundle bytes checked.
void digest_case(const CaseInputs& in, const CaseResult& r,
                 const std::string& bundle_path, Digests& d);

}  // namespace bf::perfbench
