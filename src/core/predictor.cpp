#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>

#include "common/error.hpp"
#include "common/io.hpp"
#include "gpusim/arch.hpp"
#include "guard/physical.hpp"
#include "ml/metrics.hpp"
#include "profiling/counter_registry.hpp"
#include "profiling/sweep.hpp"

namespace bf::core {
namespace {

PredictionSeries score_series(std::vector<double> sizes,
                              std::vector<double> measured,
                              std::vector<double> predicted) {
  PredictionSeries s;
  s.sizes = std::move(sizes);
  s.measured_ms = std::move(measured);
  s.predicted_ms = std::move(predicted);
  s.mse = ml::mse(s.measured_ms, s.predicted_ms);
  s.explained_variance = ml::explained_variance(s.measured_ms, s.predicted_ms);
  s.median_abs_pct_error =
      ml::median_abs_pct_error(s.measured_ms, s.predicted_ms);
  return s;
}

std::vector<std::string> common_columns(const ml::Dataset& a,
                                        const ml::Dataset& b) {
  std::vector<std::string> out;
  for (const auto& name : a.column_names()) {
    if (b.has_column(name)) out.push_back(name);
  }
  return out;
}

std::string format_clamp(const guard::ClampEvent& e) {
  std::ostringstream os;
  os << e.counter << ": " << e.from << " -> " << e.to << " (" << e.reason
     << ")";
  return os.str();
}

/// Count predict-time events belonging to one counter ("name: ..." lines).
int count_events(const std::vector<guard::PredictionGuardRecord>& recs,
                 const std::string& counter, bool clamps) {
  int n = 0;
  const std::string prefix = counter + ":";
  for (const auto& rec : recs) {
    for (const auto& line : clamps ? rec.clamps : rec.demotions) {
      if (line.rfind(prefix, 0) == 0) ++n;
    }
  }
  return n;
}

guard::PredictionGuardRecord grade_forest_row(
    const guard::DomainGuard& hull, const ml::Dataset& rows, std::size_t row,
    double size, const ml::PredictionInterval& iv,
    const guard::GuardOptions& options) {
  guard::PredictionGuardRecord rec;
  rec.size = size;
  rec.value = iv.mean;
  rec.raw_value = iv.mean;
  rec.lo = iv.lo;
  rec.hi = iv.hi;
  rec.interval_width = std::abs(iv.mean) > 0.0
                           ? (iv.hi - iv.lo) / std::abs(iv.mean)
                           : iv.hi - iv.lo;
  rec.flags = hull.check_row(rows, row);
  rec.extrapolated = !rec.flags.empty();
  rec.grade = guard::grade_prediction(rec, options);
  return rec;
}

}  // namespace

// ---- Problem scaling ----

ProblemScalingPredictor ProblemScalingPredictor::build(
    const ml::Dataset& sweep, const ProblemScalingOptions& options) {
  ProblemScalingPredictor p;
  p.response_ = options.model.response;
  p.full_ = BlackForestModel::fit(sweep, options.model);

  // Retain the top-k variables; "size" rides along so the counter models
  // and the forest agree on the input space.
  p.retained_ = p.full_.top_variables(options.top_k);
  if (std::find(p.retained_.begin(), p.retained_.end(),
                profiling::kSizeColumn) == p.retained_.end() &&
      p.full_.train_data().has_column(profiling::kSizeColumn)) {
    p.retained_.push_back(profiling::kSizeColumn);
  }
  p.reduced_ = p.full_.refit_with(p.retained_);

  CounterModelOptions cm = options.counter_models;
  cm.inputs = {profiling::kSizeColumn};
  cm.cv_folds = options.guard.cv_folds;
  p.guard_ = options.guard;
  p.arch_ = options.arch;
  p.counters_ = CounterModels::fit(p.full_.train_data(), p.retained_, cm);

  // Guard fit-time state: the training hull over every retained feature
  // and the per-counter sanity envelope the fallback chain is judged by.
  const ml::Dataset& train = p.full_.train_data();
  p.hull_ = guard::DomainGuard::build(train, p.retained_, p.guard_.margin);
  const auto& size_col = train.column(profiling::kSizeColumn);
  std::size_t argmax = 0;
  for (std::size_t i = 0; i < size_col.size(); ++i) {
    if (size_col[i] > size_col[argmax]) argmax = i;
  }
  p.max_train_size_ = size_col.empty() ? 0.0 : size_col[argmax];
  p.train_max_.reserve(p.counters_.num_entries());
  for (std::size_t e = 0; e < p.counters_.num_entries(); ++e) {
    const auto& col = train.column(p.counters_.entry_counter(e));
    p.train_max_.push_back(*std::max_element(col.begin(), col.end()));
    p.train_at_max_size_.push_back(col[argmax]);
    p.monotone_.push_back(
        profiling::counter_monotonicity(p.counters_.entry_counter(e)) ==
        profiling::Monotonicity::kNonDecreasing);
  }
  return p;
}

guard::PredictionGuardRecord ProblemScalingPredictor::predict_guarded(
    double size) const {
  guard::PredictionGuardRecord rec;
  rec.size = size;

  // Reused buffers for the per-size hot path: counter-chain queries and
  // forest interval queries are allocation-free below this point.
  const double cm_in[1] = {size};
  const std::span<const double> cm_inputs(cm_in);
  std::vector<double> cm_scratch;
  ml::ForestScratch forest_scratch;

  // 1. Generate the retained counters, demoting down each fallback chain
  //    when a model's output violates its sanity envelope.
  ml::Dataset features;
  features.add_column(profiling::kSizeColumn, {size});
  for (std::size_t e = 0; e < counters_.num_entries(); ++e) {
    const std::string& name = counters_.entry_counter(e);
    const auto& chain = counters_.entry_chain(e);
    const bool has_chain = chain.size() > 1;
    double envelope = std::numeric_limits<double>::infinity();
    if (has_chain) {
      const double pl = counters_.predict_kind(
          e, CounterModelKind::kPowerLaw, cm_inputs, cm_scratch);
      envelope = std::max(train_max_[e], pl) * guard_.demote_slack;
    }
    const bool beyond_train = size > max_train_size_;
    double value = 0.0;
    bool accepted = false;
    std::string first_failure;
    for (const CounterModelKind kind : chain) {
      bool neg = false;
      const double v =
          counters_.predict_kind(e, kind, cm_inputs, cm_scratch, &neg);
      std::string why;
      if (!std::isfinite(v)) {
        why = "non-finite";
      } else if (neg) {
        why = "negative";
      } else if (v > envelope) {
        why = "exceeds sanity envelope";
      } else if (beyond_train && monotone_[e] &&
                 v < train_at_max_size_[e] * guard_.monotone_floor) {
        why = "breaks monotone growth";
      }
      if (!why.empty()) {
        if (first_failure.empty()) first_failure = why;
        continue;
      }
      value = v;
      accepted = true;
      if (kind != chain.front()) {
        rec.demotions.push_back(
            name + ": " + counter_model_name(chain.front()) + " -> " +
            counter_model_name(kind) + " (" + first_failure + ")");
      }
      break;
    }
    if (!accepted) {
      // Every model failed: fall back to the power law clamped into the
      // envelope — the least-wrong physically meaningful value.
      double v = has_chain
                     ? counters_.predict_kind(e, CounterModelKind::kPowerLaw,
                                              cm_inputs, cm_scratch)
                     : counters_.predict_kind(e, chain.front(), cm_inputs,
                                              cm_scratch);
      if (!std::isfinite(v)) v = train_at_max_size_[e];
      value = std::clamp(v, 0.0, std::isfinite(envelope)
                                     ? envelope
                                     : std::numeric_limits<double>::max());
      std::ostringstream os;
      os << name << ": " << v << " -> " << value
         << " (all chain models failed: " << first_failure << ")";
      rec.clamps.push_back(os.str());
    }
    features.add_column(name, {value});
  }

  // 2. Hull check over the query size and the generated counters.
  rec.flags = hull_.check_row(features, 0);
  rec.extrapolated = !rec.flags.empty();

  // 3. Static physical caps (ratio metrics, bandwidth, issue width).
  const std::vector<guard::PhysicalCap> caps =
      arch_ ? guard::static_caps(*arch_) : guard::ratio_caps();
  for (const auto& ev :
       guard::clamp_row_to_caps(features, 0, caps, guard_.cap_tolerance)) {
    rec.clamps.push_back(format_clamp(ev));
  }

  // 4. Forest query with per-tree spread, on the frozen flat engine.
  linalg::Matrix xm = features.to_matrix(reduced_.predictors());
  ml::PredictionInterval iv =
      reduced_.predict_interval(xm.row_ptr(0), 0.1, forest_scratch);
  rec.raw_value = iv.mean;

  // 5. Response-dependent caps. For the time response the predicted
  //    time bounds the counters (bandwidth x time, issue rate x time);
  //    when one fires, re-query the forest with the capped counters.
  //    For the power response the prediction itself is bounded by the
  //    board's physical envelope [idle_w, tdp_w].
  if (arch_ && response_ == profiling::kTimeColumn &&
      std::isfinite(iv.mean) && iv.mean > 0.0) {
    const auto tcaps = guard::time_caps(*arch_, iv.mean);
    const auto tev =
        guard::clamp_row_to_caps(features, 0, tcaps, guard_.cap_tolerance);
    if (!tev.empty()) {
      for (const auto& ev : tev) rec.clamps.push_back(format_clamp(ev));
      xm = features.to_matrix(reduced_.predictors());
      iv = reduced_.predict_interval(xm.row_ptr(0), 0.1, forest_scratch);
    }
  } else if (arch_ && response_ == profiling::kPowerColumn) {
    std::vector<guard::ClampEvent> pev;
    const double capped = guard::clamp_power_to_envelope(
        *arch_, iv.mean, guard_.cap_tolerance, pev);
    if (!pev.empty()) {
      for (const auto& ev : pev) rec.clamps.push_back(format_clamp(ev));
      iv.mean = capped;
      iv.lo = std::clamp(iv.lo, arch_->idle_w, arch_->tdp_w);
      iv.hi = std::clamp(iv.hi, arch_->idle_w, arch_->tdp_w);
    }
  }

  rec.value = iv.mean;
  rec.lo = iv.lo;
  rec.hi = iv.hi;
  rec.interval_width = std::abs(iv.mean) > 0.0
                           ? (iv.hi - iv.lo) / std::abs(iv.mean)
                           : iv.hi - iv.lo;
  rec.grade = guard::grade_prediction(rec, guard_);
  return rec;
}

guard::GuardReport ProblemScalingPredictor::guard_report() const {
  guard::GuardReport report;
  report.enabled = true;
  report.options = guard_;
  report.hull = hull_.ranges();
  for (const auto& info : counters_.info()) {
    guard::CounterGuardRecord rec;
    rec.counter = info.counter;
    rec.chosen = counter_model_name(info.chosen);
    rec.r2 = info.r2;
    rec.cv_rmse = info.cv_rmse;
    for (const CounterModelKind k : info.chain) {
      rec.chain.push_back(counter_model_name(k));
    }
    report.counters.push_back(std::move(rec));
  }
  return report;
}

PredictionSeries ProblemScalingPredictor::validate(
    const std::vector<double>& sizes,
    const std::vector<double>& measured_ms) const {
  BF_CHECK_MSG(sizes.size() == measured_ms.size(),
               "sizes/measured length mismatch");
  std::vector<double> predicted;
  predicted.reserve(sizes.size());
  std::vector<guard::PredictionGuardRecord> recs;
  recs.reserve(sizes.size());
  for (const double s : sizes) {
    recs.push_back(predict_guarded(s));
    predicted.push_back(recs.back().value);
  }
  PredictionSeries series =
      score_series(sizes, measured_ms, std::move(predicted));
  series.guard = guard_report();
  for (auto& counter : series.guard.counters) {
    counter.demotions = count_events(recs, counter.counter, false);
    counter.clamps = count_events(recs, counter.counter, true);
  }
  series.guard.predictions = std::move(recs);
  return series;
}

void ProblemScalingPredictor::save(std::ostream& os) const {
  os.precision(17);
  // Version 2 only adds the response record; predictors of the classic
  // time response keep writing version 1, so every byte of a no-power
  // export is identical to what the pre-power writer produced.
  if (response_ == profiling::kTimeColumn) {
    os << "bf_psp 1\n";
  } else {
    os << "bf_psp 2\n";
    os << "response " << response_ << "\n";
  }
  // The architecture is stored by name and re-resolved from the compiled
  // registry on load: physical caps derive from the spec, so name-based
  // lookup keeps capped predictions identical across export/reload.
  os << "arch " << (arch_ ? arch_->name : std::string("-")) << "\n";
  os << "retained " << retained_.size();
  for (const auto& name : retained_) os << ' ' << name;
  os << "\n";
  os << "envelope " << train_max_.size() << ' ' << max_train_size_ << "\n";
  for (std::size_t e = 0; e < train_max_.size(); ++e) {
    os << train_max_[e] << ' ' << train_at_max_size_[e] << ' '
       << (monotone_[e] ? 1 : 0) << "\n";
  }
  guard::save_options(os, guard_);
  hull_.save(os);
  counters_.save(os);
  reduced_.save(os);
}

ProblemScalingPredictor ProblemScalingPredictor::load(std::istream& is) {
  const int format_version = read_format_version(is, "bf_psp", 2);
  ProblemScalingPredictor p;
  std::string tag;
  if (format_version >= 2) {
    BF_CHECK_MSG(
        static_cast<bool>(is >> tag >> p.response_) && tag == "response",
        "bf_psp: malformed response record");
  }
  std::string arch_name;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> arch_name) && tag == "arch",
               "bf_psp: malformed arch record");
  if (arch_name != "-") {
    // Throws for unknown names: a bundle trained against an architecture
    // this binary does not know cannot reproduce its physical caps.
    p.arch_ = gpusim::arch_by_name(arch_name);
  }
  std::size_t n_retained = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> n_retained) &&
                   tag == "retained" && n_retained >= 1 &&
                   n_retained <= 100'000,
               "bf_psp: malformed retained header");
  p.retained_.resize(n_retained);
  for (auto& name : p.retained_) {
    BF_CHECK_MSG(static_cast<bool>(is >> name),
                 "bf_psp: truncated retained list");
  }
  std::size_t n_env = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> n_env >> p.max_train_size_) &&
                   tag == "envelope",
               "bf_psp: malformed envelope header");
  p.train_max_.resize(n_env);
  p.train_at_max_size_.resize(n_env);
  p.monotone_.resize(n_env);
  for (std::size_t e = 0; e < n_env; ++e) {
    int monotone = 0;
    BF_CHECK_MSG(static_cast<bool>(is >> p.train_max_[e] >>
                                   p.train_at_max_size_[e] >> monotone),
                 "bf_psp: truncated envelope");
    p.monotone_[e] = monotone != 0;
  }
  p.guard_ = guard::load_options(is);
  p.hull_ = guard::DomainGuard::load(is);
  p.counters_ = CounterModels::load(is);
  p.reduced_ = BlackForestModel::load(is);
  BF_CHECK_MSG(p.counters_.num_entries() == n_env,
               "bf_psp: envelope count disagrees with counter models");
  return p;
}

// ---- Hardware scaling ----

double HardwareScalingPredictor::importance_similarity(
    const BlackForestModel& a, const BlackForestModel& b, std::size_t k) {
  // Rank-tolerant overlap: a top-k variable of the source still counts as
  // shared if it appears anywhere in the target's top-2k. Collinear
  // counters shuffle arbitrarily within the leading pack (Strobl et al.,
  // which the paper cites), so exact-position comparison would be noise.
  const auto ta = a.top_variables(k);
  const auto tb = b.top_variables(2 * k);
  std::size_t overlap = 0;
  for (const auto& name : ta) {
    if (std::find(tb.begin(), tb.end(), name) != tb.end()) ++overlap;
  }
  return k == 0 ? 0.0
                : static_cast<double>(overlap) / static_cast<double>(k);
}

HardwareScalingResult HardwareScalingPredictor::predict(
    const ml::Dataset& source, const ml::Dataset& target,
    const HardwareScalingOptions& options) {
  HardwareScalingResult out;

  // Per-architecture models to compare importance rankings (Fig. 8a/8b).
  ModelOptions per_arch = options.model;
  const BlackForestModel src_model = BlackForestModel::fit(source, per_arch);
  const BlackForestModel tgt_model = BlackForestModel::fit(target, per_arch);
  out.source_top = src_model.top_variables(options.top_k);
  out.target_top = tgt_model.top_variables(options.top_k);
  out.similarity =
      importance_similarity(src_model, tgt_model, options.top_k);
  out.used_mixed_variables = out.similarity < options.similarity_threshold;

  // Columns usable across the two generations.
  const std::vector<std::string> common = common_columns(source, target);
  BF_CHECK_MSG(std::find(common.begin(), common.end(),
                         profiling::kTimeColumn) != common.end(),
               "datasets lack a common response column");

  // Machine characteristics + problem size always participate.
  std::vector<std::string> machine_cols;
  for (const auto& [name, _] :
       gpusim::machine_characteristics(gpusim::arch_registry().front())) {
    if (std::find(common.begin(), common.end(), name) != common.end()) {
      machine_cols.push_back(name);
    }
  }
  BF_CHECK_MSG(!machine_cols.empty(),
               "hardware scaling needs machine-characteristic columns; "
               "collect sweeps with machine_characteristics = true");

  std::vector<std::string> vars;
  if (out.used_mixed_variables) {
    // The paper's workaround: a mixture of important variables from both
    // architectures, restricted to counters both GPUs expose.
    for (const auto& list : {out.source_top, out.target_top}) {
      for (const auto& name : list) {
        const bool in_common =
            std::find(common.begin(), common.end(), name) != common.end();
        if (in_common &&
            std::find(vars.begin(), vars.end(), name) == vars.end()) {
          vars.push_back(name);
        }
      }
    }
  } else {
    for (const auto& name : common) {
      if (name == profiling::kTimeColumn) continue;
      const bool is_machine =
          std::find(machine_cols.begin(), machine_cols.end(), name) !=
          machine_cols.end();
      if (!is_machine) vars.push_back(name);
    }
  }
  if (std::find(vars.begin(), vars.end(), profiling::kSizeColumn) ==
          vars.end() &&
      std::find(common.begin(), common.end(), profiling::kSizeColumn) !=
          common.end()) {
    vars.push_back(profiling::kSizeColumn);
  }

  std::vector<std::string> train_cols = vars;
  for (const auto& m : machine_cols) train_cols.push_back(m);
  train_cols.push_back(profiling::kTimeColumn);

  // Calibration/test split of the target sweep; training set = all source
  // rows + the target calibration rows.
  Rng rng(options.seed);
  const ml::TrainTestSplit split = ml::train_test_split(
      target.select_columns(train_cols), 1.0 - options.calibration_fraction,
      rng);
  const ml::Dataset train = ml::Dataset::concat(
      source.select_columns(train_cols), split.train);

  ModelOptions fit_options = options.model;
  fit_options.test_fraction = 0.0;
  BlackForestModel model = BlackForestModel::fit(train, fit_options);
  out.variables = model.predictors();

  // One forest walk gives both the series (the interval means equal the
  // point predictions bit for bit) and the per-tree spread.
  const linalg::Matrix xm = split.test.to_matrix(model.predictors());
  const auto intervals = model.predict_intervals(xm);
  std::vector<double> predicted(intervals.size());
  for (std::size_t r = 0; r < intervals.size(); ++r) {
    predicted[r] = intervals[r].mean;
  }
  out.series = score_series(split.test.column(profiling::kSizeColumn),
                            split.test.column(profiling::kTimeColumn),
                            predicted);

  // Annotate (never alter) the test predictions: hull membership of each
  // test row w.r.t. the calibrated training set, plus per-tree spread
  // grading. Cross-architecture prediction is exactly where the model
  // silently leaves its domain (paper §6.2's NW divergence).
  const guard::DomainGuard hull = guard::DomainGuard::build(
      train, model.predictors(), options.guard.margin);
  out.series.guard.enabled = true;
  out.series.guard.options = options.guard;
  out.series.guard.hull = hull.ranges();
  const auto& test_sizes = out.series.sizes;
  for (std::size_t r = 0; r < intervals.size(); ++r) {
    out.series.guard.predictions.push_back(grade_forest_row(
        hull, split.test, r, test_sizes[r], intervals[r], options.guard));
  }
  return out;
}

}  // namespace bf::core
