// Guarded prediction queries, shared by every workload: the answer a
// serve reply carries for one (model, size), how it is rendered for
// digests and compared, the seeded query sizes, and the in-process query
// phase of the analysis workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/predictor.hpp"
#include "guard/guard.hpp"
#include "power/predictor.hpp"

namespace bf::perfbench {

/// The guarded time prediction, plus power and energy when the model
/// has a power record: exactly what a serve reply reports.
struct QueryAnswer {
  guard::PredictionGuardRecord rec;
  bool has_power = false;
  power::PowerPrediction power;
};

/// predict_guarded on the time predictor, then on the power predictor
/// (when non-null), each wrapped in a span under `parent`.
QueryAnswer answer_query(const core::ProblemScalingPredictor& psp,
                         const power::PowerPredictor* power, double size,
                         Tracer& tr, int parent);

/// One line with every reply field of the answer at full precision.
std::string render_answer(const QueryAnswer& a);
bool answer_finite(const QueryAnswer& a);
bool same_answer(const QueryAnswer& a, const QueryAnswer& b);

/// Query sizes for a model trained on [lo, hi]: a fixed log-spaced grid
/// of 922 sizes inside the hull and 102 from 1.2x to 4x beyond it, so
/// about 10% of the queries take the guard's extrapolation path, the
/// same share as serve-mixed's request list. The grid is the same for
/// every seed: per-call cost depends on where a size lands in the trees,
/// and a seeded mix moved the median call latency by 25% between seeds.
std::vector<double> query_sizes(double lo, double hi);

/// The bytes of a bundle file re-serialised with its provenance (the
/// exporter's build identity) blanked, so the digest depends only on
/// the model.
std::string normalized_bundle_bytes(const std::string& path);

/// Read the answer a predict reply carries into `a`; false when the
/// reply is not a successful predict of `size` on `model` for request
/// `id`, or a field is missing or malformed (a grade other than A, B or
/// C included). Only latency_us and generation go unchecked.
bool reply_answer(const std::string& reply, std::size_t id,
                  const std::string& model, double size, QueryAnswer& a);

struct ReplayResult {
  std::vector<std::string> replies;  ///< one per line, traced loop
  double overhead_pct = 0.0;  ///< traced against untraced handle_line loop
};

/// The serve layer split, in process. `lines` go through
/// Server::handle_line on the bundles in `model_dir`: once to warm, once
/// untraced, once with a span per line. Then they go through the stages
/// one by one: parse_json, ModelRegistry::get and the guarded
/// predictions. Sets serve.parse_us, serve.registry_get_us and
/// serve.predict_us (stage means), and serve.render_us, which is the
/// handle_line mean less the three (reply rendering and batching).
ReplayResult serve_replay(const std::string& model_dir,
                          const std::vector<std::string>& lines, Tracer& tr,
                          Outcome& out);

struct QueryTarget {
  const core::ProblemScalingPredictor* psp = nullptr;
  const power::PowerPredictor* power = nullptr;
  double size = 0.0;
  bool beyond_hull = false;  ///< above the largest training size
};

/// In-process query phase of the analysis workloads, with tracing off.
/// One caller answers every target in turn, back to back, each call
/// timed; one such sweep over the targets is a round. "light" latencies
/// are the calls inside the training hull, "heavy" the calls beyond it
/// (the guard's extrapolation path), and knee_qps is the median over
/// rounds of calls per busy second. Rounds run in blocks after each
/// pass of the fixed work, so the sample spans the whole run rather than
/// one stretch of host load.
class QueryPhase {
 public:
  /// First answers of `targets` (also the warm-up), which every later
  /// answer must equal. Sets guard.grade_c and guard.demotions.
  QueryPhase(const std::vector<QueryTarget>& targets, Outcome& out);

  /// Whole rounds over `targets` (the same sizes, on models a later pass
  /// may have rebuilt) for at least `budget_s` seconds and one round.
  void run(const std::vector<QueryTarget>& targets, double budget_s,
           Outcome& out);

  /// Sets the latency percentiles and knee_qps over every round run.
  void report(Outcome& out) const;

  const std::vector<QueryAnswer>& reference() const { return reference_; }

 private:
  std::vector<QueryAnswer> reference_;
  std::vector<double> inside_;
  std::vector<double> beyond_;
  std::vector<double> round_qps_;
};

}  // namespace bf::perfbench
