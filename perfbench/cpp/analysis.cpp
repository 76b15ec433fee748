// The two analysis workloads.
//
//   analyze-matmul    the paper's Fig. 5 run done fresh: sweep, forest,
//                     importance, PCA, bottleneck report, predictor build
//                     and guarded predictions at 96 and 384.
//   reanalyze-cached  the same modelling calls, plus the --power and
//                     --export-model equivalents, for five cases whose
//                     sweeps set-up stored in a RunRepository.
//
// An untraced pass makes exactly the calls bf_analyze makes
// (core::run_analysis and what follows it in tools/bf_analyze.cpp). A
// traced pass makes the same calls with run_analysis split into its
// stages, each wrapped in a span, and Workload::run wrapped so every
// simulation is timed and its counters summed. Both must produce the
// same outputs, which the digests check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "analysis.hpp"
#include "client.hpp"
#include "host_speed.hpp"
#include "common/error.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "power/analysis.hpp"
#include "power/predictor.hpp"
#include "profiling/repository.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"
#include "queries.hpp"
#include "serve/artifact.hpp"
#include "serve/json.hpp"

namespace bf::perfbench {

namespace fs = std::filesystem;

std::string case_key(const CaseSpec& c) { return c.workload + "." + c.arch; }

CaseInputs prepare_case(const CaseSpec& spec, std::uint64_t seed,
                        const std::vector<double>& heldout_fixed,
                        std::size_t heldout_fresh, double heldout_max) {
  CaseInputs in;
  in.spec = spec;
  // The configuration bf_analyze builds from its defaults.
  core::PipelineConfig& config = in.config;
  config.workload = profiling::workload_by_name(spec.workload);
  config.arch = gpusim::arch_by_name(spec.arch);
  config.sizes =
      profiling::log2_sizes(spec.lo, spec.hi, spec.runs, spec.multiple);
  config.model.forest.n_trees = kTrees;
  config.sweep.replicates = 1;
  config.sweep.max_attempts = 3;
  config.sweep.min_success_fraction = 0.5;
  // The profiler noise keeps bf_analyze's fixed default seed, as every
  // bf_analyze run does. Seeding it too would refit different models per
  // seed, and their predict cost and accuracy then spread wider across
  // seeds than any bound the benchmark could hold (README).

  // Held-out sizes: fixed ones plus seeded fresh ones inside the hull,
  // none of them a swept size. Set-up simulates each.
  Rng rng(derive_seed(seed, 3) ^ fnv1a64(case_key(spec)));
  const std::set<double> swept(config.sizes.begin(), config.sizes.end());
  std::set<double> chosen(heldout_fixed.begin(), heldout_fixed.end());
  in.heldout = heldout_fixed;
  const double top = std::min(spec.hi, heldout_max);
  for (int guard = 0; in.heldout.size() < heldout_fixed.size() + heldout_fresh;
       ++guard) {
    BF_CHECK_MSG(guard < 10000, "cannot draw held-out sizes");
    const double raw =
        std::exp2(rng.uniform(std::log2(spec.lo), std::log2(top)));
    const double size = static_cast<double>(std::max<std::int64_t>(
        spec.multiple,
        std::llround(raw / double(spec.multiple)) * spec.multiple));
    if (swept.count(size) || !chosen.insert(size).second) continue;
    in.heldout.push_back(size);
  }
  const gpusim::Device device(config.arch);
  for (const double s : in.heldout) {
    in.truth_ms.push_back(config.workload.run(device, s).time_ms);
  }
  in.queries = query_sizes(spec.lo, spec.hi);
  return in;
}

namespace {

/// A copy of `w` whose run() records a "profiling.sim" span under
/// *parent and sums the simulated counters.
profiling::Workload traced_workload(const profiling::Workload& w,
                                    Tracer& tr, const int* parent) {
  profiling::Workload out = w;
  out.run = [inner = w.run, &tr, parent](const gpusim::Device& device,
                                         double size) {
    const Tracer::Scope span(tr, "profiling.sim", *parent);
    gpusim::AggregateResult agg = inner(device, size);
    using gpusim::Event;
    tr.count("profiling.runs", 1);
    tr.count("gpusim.inst_issued", agg.counters.get(Event::kInstIssued));
    tr.count("gpusim.shared_bank_conflicts",
             agg.counters.get(Event::kSharedBankConflict));
    tr.count("gpusim.l2_read_transactions",
             agg.counters.get(Event::kL2ReadTransactions));
    return agg;
  };
  return out;
}

}  // namespace

CaseResult analyze(const CaseInputs& in, const std::string& repo_root,
                   const std::string& bundle_path, Tracer& tr) {
  const CaseSpec& spec = in.spec;
  core::PipelineConfig config = in.config;
  if (!repo_root.empty()) config.repository_root = repo_root;
  const Tracer::Scope root(tr, "analysis." + case_key(spec), -1);
  CaseResult r;
  core::BlackForestModel model;
  core::BottleneckReport report;
  if (!tr.enabled()) {
    core::AnalysisOutcome outcome = core::run_analysis(config);
    r.data = std::move(outcome.data);
    model = std::move(outcome.model);
    report = std::move(outcome.report);
  } else {
    if (config.repository_root) {
      const Tracer::Scope span(tr, "profiling.repo_load", root.id());
      const profiling::RunRepository repo(*config.repository_root);
      auto loaded = repo.load(config.workload.name, config.arch.name);
      BF_CHECK_MSG(loaded.has_value(),
                   "repository holds no sweep for " << case_key(spec));
      r.data = std::move(*loaded);
    } else {
      const Tracer::Scope span(tr, "profiling.sweep", root.id());
      const int parent = span.id();
      const gpusim::Device device(config.arch);
      r.data = profiling::sweep(traced_workload(config.workload, tr, &parent),
                                device, config.sizes, config.sweep);
    }
    if (r.data.has_missing()) {
      r.data.resolve_missing(config.degrade.min_column_coverage,
                             config.degrade.min_row_coverage,
                             {profiling::kTimeColumn, profiling::kSizeColumn});
    }
    {
      const Tracer::Scope span(tr, "core.fit", root.id());
      model = core::BlackForestModel::fit(r.data, config.model);
    }
    {
      const Tracer::Scope span(tr, "core.pca", root.id());
      (void)core::pca_refine(r.data, config.pca);
    }
    {
      const Tracer::Scope span(tr, "core.bottleneck", root.id());
      report = core::analyze_bottlenecks(model, config.workload.name,
                                         config.arch.name, config.bottleneck);
    }
  }
  std::ostringstream imp;
  for (const auto& v : model.importance()) {
    imp << v.name << ' ' << serve::json_number(v.pct_inc_mse) << '\n';
  }
  r.importance = imp.str();
  r.report = core::to_text(report);

  // What bf_analyze does after run_analysis, in its order.
  if (spec.power) {
    const Tracer::Scope span(tr, "power.energy_analysis", root.id());
    power::EnergyAnalysisOptions eopts;
    eopts.model.forest.n_trees = kTrees;
    r.report += core::to_text(power::analyze_energy_bottlenecks(
        r.data, spec.workload, spec.arch, eopts));
  }
  core::ProblemScalingOptions pso;
  pso.model.forest.n_trees = kTrees;
  pso.arch = config.arch;
  {
    const Tracer::Scope span(tr, "core.predictor_build", root.id());
    r.psp = core::ProblemScalingPredictor::build(r.data, pso);
  }
  if (spec.power) {
    const Tracer::Scope span(tr, "power.predictor_build", root.id());
    power::PowerPredictorOptions popts;
    popts.scaling.model.forest.n_trees = kTrees;
    popts.scaling.arch = config.arch;
    r.power = power::PowerPredictor::build(r.data, popts);
  }
  if (spec.export_model) {
    const Tracer::Scope span(tr, "serve.export_model", root.id());
    serve::export_model(bundle_path, spec.workload, spec.workload, spec.arch,
                        r.data.num_rows(), r.psp, 5,
                        r.power ? &*r.power : nullptr);
  }
  for (const double s : in.heldout) {
    r.predictions.push_back(
        answer_query(r.psp, r.power ? &*r.power : nullptr, s, tr, root.id()));
  }
  return r;
}

void digest_case(const CaseInputs& in, const CaseResult& r,
                 const std::string& bundle_path, Digests& d) {
  const std::string key = case_key(in.spec);
  std::ostringstream csv;
  r.data.to_csv().write(csv);
  d[key + "/sweep_csv"] = digest(csv.str());
  d[key + "/importance"] = digest(r.importance);
  d[key + "/bottleneck"] = digest(r.report);
  std::string preds;
  for (const auto& a : r.predictions) preds += render_answer(a);
  d[key + "/predictions"] = digest(preds);
  if (!in.spec.export_model) {
    serve::export_model(bundle_path, in.spec.workload, in.spec.workload,
                        in.spec.arch, r.data.num_rows(), r.psp, 5,
                        r.power ? &*r.power : nullptr);
  }
  d[key + "/bundle"] = digest(normalized_bundle_bytes(bundle_path));
}

namespace {

std::string bundle_file(const std::string& dir, const CaseSpec& spec) {
  return dir + "/" + case_key(spec) + serve::kBundleSuffix;
}

double pred_err_pct(const std::vector<CaseInputs>& cases,
                    const std::vector<CaseResult>& results) {
  std::vector<double> errs;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t i = 0; i < cases[c].heldout.size(); ++i) {
      const double truth = cases[c].truth_ms[i];
      errs.push_back(100.0 *
                     std::fabs(results[c].predictions[i].rec.value - truth) /
                     truth);
    }
  }
  return median(errs);
}

/// A timed interval on the steady clock.
struct Interval {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;

  double wall_s() const { return 1e-9 * static_cast<double>(t1_ns - t0_ns); }
  /// Seconds at the reference host speed (host_speed.hpp).
  double scaled_s(const HostSpeed& host) const {
    return wall_s() * host.speed(t0_ns, t1_ns);
  }
};

/// Each case's interval in each pass, one vector per case.
using CaseTimes = std::vector<std::vector<Interval>>;

/// Time of the fixed work at the reference host speed: the sum over
/// cases of each case's median over passes, so a slow stretch of the
/// host that hits one case in one pass moves only that case's sample.
double fixed_work_s(const CaseTimes& times, const HostSpeed& host) {
  double total = 0.0;
  for (const auto& intervals : times) {
    std::vector<double> t;
    for (const Interval& i : intervals) t.push_back(i.scaled_s(host));
    total += median(t);
  }
  return total;
}

std::string passes_note(const CaseTimes& times) {
  std::string note = "sum of per-case medians over " +
                     std::to_string(times[0].size()) +
                     " passes at reference host speed; wall-clock passes:";
  for (std::size_t p = 0; p < times[0].size(); ++p) {
    double pass = 0.0;
    for (const auto& t : times) pass += t[p].wall_s();
    note += " " + serve::json_number(pass);
  }
  return note;
}

/// Runs the workload's fixed work (`cases` analysed once) at least
/// `passes` times and until `budget_s` has passed, with the given
/// tracer, calling `after_pass` on each pass's results. Returns the
/// interval of each case in each pass (empty when a case threw) and
/// fills the digests of each pass into out.pass_digests.
CaseTimes run_passes(
    const std::vector<CaseInputs>& cases, const std::string& repo_root,
    const std::string& bundle_dir, int passes, double budget_s, Tracer& tr,
    Outcome& out, std::vector<CaseResult>& last,
    const std::function<void(const std::vector<CaseResult>&)>& after_pass) {
  CaseTimes times(cases.size());
  const std::int64_t t_begin = now_ns();
  for (int p = 0; p < passes || (1e-9 * double(now_ns() - t_begin) < budget_s);
       ++p) {
    std::vector<CaseResult> results;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const CaseInputs& in = cases[c];
      ++out.attempted;
      const std::int64_t t0 = now_ns();
      try {
        results.push_back(
            analyze(in, repo_root, bundle_file(bundle_dir, in.spec), tr));
      } catch (const std::exception& e) {
        out.fail("analysis of " + case_key(in.spec) + " threw: " + e.what());
        return {};
      }
      times[c].push_back({t0, now_ns()});
    }
    Digests d;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      out.attempted += results[c].predictions.size();
      for (const auto& a : results[c].predictions) {
        if (!answer_finite(a)) {
          out.fail(case_key(cases[c].spec) + ": non-finite prediction at " +
                   serve::json_number(a.rec.size));
        }
      }
      digest_case(cases[c], results[c], bundle_file(bundle_dir, cases[c].spec),
                  d);
    }
    out.pass_digests.push_back(std::move(d));
    if (after_pass) after_pass(results);
    last = std::move(results);
  }
  return times;
}

/// The in-process query targets: every case's query sizes on the models
/// of `results`.
std::vector<QueryTarget> query_targets(const std::vector<CaseInputs>& cases,
                                       const std::vector<CaseResult>& results) {
  std::vector<QueryTarget> targets;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const double s : cases[c].queries) {
      targets.push_back({&results[c].psp,
                         results[c].power ? &*results[c].power : nullptr, s,
                         s > cases[c].spec.hi});
    }
  }
  return targets;
}

/// Shared body of both analysis workloads: set-up (timed, repeated),
/// untraced passes, each followed by `query_s_per_pass` seconds of query
/// rounds, and with --trace 1 traced passes and the per-layer metrics.
void run_analysis_workload(const Args& args, Outcome& out,
                           const std::function<std::vector<CaseInputs>(
                               const std::string& work)>& setup,
                           bool cached, int setup_repeats, int min_passes,
                           double pass_budget_s, double query_s_per_pass) {
  const std::string work = args.work_dir + "/" + args.workload;
  const HostSpeed host;
  std::vector<CaseInputs> cases;
  std::vector<Interval> setups;
  for (int i = 0; i < setup_repeats; ++i) {
    const std::int64_t t0 = now_ns();
    fs::remove_all(work);
    fs::create_directories(work + "/bundles");
    cases = setup(work);
    setups.push_back({t0, now_ns()});
  }
  const std::string repo_root = cached ? work + "/repo" : "";
  const std::string bundles = work + "/bundles";

  // Untraced passes, each followed by a block of query rounds.
  Tracer off(false);
  std::vector<CaseResult> results;
  std::optional<QueryPhase> queries;
  const CaseTimes plain = run_passes(
      cases, repo_root, bundles, min_passes, pass_budget_s, off, out, results,
      [&](const std::vector<CaseResult>& res) {
        const std::vector<QueryTarget> targets = query_targets(cases, res);
        if (!queries) queries.emplace(targets, out);
        queries->run(targets, query_s_per_pass, out);
      });
  if (plain.empty()) return;
  const double run_s = fixed_work_s(plain, host);

  std::vector<double> setup_s;
  std::string setup_note = "median of " + std::to_string(setup_repeats) +
                           " set-ups at reference host speed; wall clock:";
  for (const Interval& i : setups) {
    setup_s.push_back(i.scaled_s(host));
    setup_note += " " + serve::json_number(i.wall_s());
  }
  out.set("setup_s", median(setup_s), setup_note);
  out.set("run_s", run_s, passes_note(plain));
  out.set("pred_err_pct", pred_err_pct(cases, results));
  queries->report(out);
  out.set("peak_rss_mb", vm_hwm_mb("/proc/self/status") - kProbeTableMiB,
          "VmHWM less the host-speed probe's table");
  out.set("host.probe_ms", 1e3 * host.median_probe_s(),
          "median host-speed probe; reference " +
              serve::json_number(1e3 * kReferenceProbeS));
  if (!args.trace) return;

  // core.predict_guarded_us: every query target once more, each call in
  // a span, apart from the untraced timing above.
  Tracer tr(true);
  const std::vector<QueryTarget> targets = query_targets(cases, results);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const QueryTarget& q = targets[i];
    ++out.attempted;
    if (!same_answer(answer_query(*q.psp, q.power, q.size, tr, -1),
                     queries->reference()[i])) {
      out.fail("traced answer differs at size " + serve::json_number(q.size));
    }
  }
  const std::vector<double> guarded = tr.durations_s("core.predict_guarded");
  out.set("core.predict_guarded_us", 1e6 * median(guarded),
          "median of " + std::to_string(guarded.size()) + " traced calls");

  // Traced passes: the same work, split into stages.
  const CaseTimes traced =
      run_passes(cases, repo_root, bundles, static_cast<int>(plain[0].size()),
                 0.0, tr, out, results, nullptr);
  if (traced.empty()) return;
  const double n = static_cast<double>(traced[0].size());
  const double sweep_s = tr.total_s("profiling.sweep") / n;
  const double sim_s = tr.total_s("profiling.sim") / n;
  const std::vector<double> sims = tr.durations_s("profiling.sim");
  out.set("profiling.sweep_s", sweep_s);
  out.set("profiling.sim_s", sim_s);
  out.set("profiling.overhead_s", sweep_s - sim_s);
  out.set("profiling.sim_s.max_size",
          sims.empty() ? 0.0 : *std::max_element(sims.begin(), sims.end()));
  out.set("profiling.repo_load_s", tr.total_s("profiling.repo_load") / n);
  out.set("profiling.runs", tr.counter("profiling.runs") / n);
  const double inst = tr.counter("gpusim.inst_issued") / n;
  out.set("gpusim.inst_issued", inst);
  out.set("gpusim.shared_bank_conflicts",
          tr.counter("gpusim.shared_bank_conflicts") / n);
  out.set("gpusim.l2_read_transactions",
          tr.counter("gpusim.l2_read_transactions") / n);
  out.set("gpusim.minst_per_s", sim_s > 0 ? inst / sim_s / 1e6 : 0.0);
  out.set("core.fit_s", tr.total_s("core.fit") / n);
  out.set("core.pca_s", tr.total_s("core.pca") / n);
  out.set("core.bottleneck_s", tr.total_s("core.bottleneck") / n);
  out.set("core.predictor_build_s", tr.total_s("core.predictor_build") / n);
  out.set("power.energy_analysis_s", tr.total_s("power.energy_analysis") / n);
  out.set("power.predictor_build_s", tr.total_s("power.predictor_build") / n);
  out.set("trace.overhead_pct",
          100.0 * (fixed_work_s(traced, host) / run_s - 1.0),
          passes_note(traced));

  // The serve layer on this workload's bundles: the query grid replayed
  // through Server::handle_line, every reply checked.
  std::vector<std::string> lines;
  std::vector<QueryAnswer> want;
  for (std::size_t k = 0; k < 4000; ++k) {
    const std::size_t c = k % cases.size();
    const std::vector<double>& grid = cases[c].queries;
    const double size = grid[(k / cases.size() * 5) % grid.size()];
    lines.push_back("{\"model\":\"" + case_key(cases[c].spec) +
                    "\",\"size\":" + serve::json_number(size) +
                    ",\"id\":" + std::to_string(k) + "}");
    want.push_back(answer_query(
        results[c].psp, results[c].power ? &*results[c].power : nullptr, size,
        off, -1));
  }
  const ReplayResult replay = serve_replay(bundles, lines, tr, out);
  for (std::size_t k = 0; k < lines.size(); ++k) {
    QueryAnswer a;
    ++out.attempted;
    if (!reply_answer(replay.replies[k], k, case_key(cases[k % cases.size()].spec),
                      want[k].rec.size, a) ||
        !same_answer(a, want[k])) {
      out.fail("in-process serve reply differs: " + replay.replies[k]);
    }
  }
  out.spans_json = tr.to_json();
}

}  // namespace

void run_analyze_matmul(const Args& args, Outcome& out) {
  const CaseSpec spec{"matrixMul", "gtx580", 32, 2048, 24, 32, false, false};
  run_analysis_workload(
      args, out,
      [&](const std::string&) {
        return std::vector<CaseInputs>{
            prepare_case(spec, args.seed, {96, 384}, 4, 512)};
      },
      /*cached=*/false, /*setup_repeats=*/3, /*min_passes=*/1,
      /*pass_budget_s=*/0.0, /*query_s_per_pass=*/0.3 * args.seconds);
}

void run_reanalyze_cached(const Args& args, Outcome& out) {
  std::vector<CaseSpec> specs;
  for (const char* w : {"reduce1", "reduce2", "reduce6"}) {
    specs.push_back({w, "gtx580", 1 << 14, 1 << 24, 40, 256, true, true});
  }
  specs.push_back({"needle", "gtx580", 64, 4096, 40, 64, true, true});
  specs.push_back({"needle", "k20m", 64, 4096, 40, 64, true, true});
  run_analysis_workload(
      args, out,
      [&](const std::string& work) {
        // Fill the repository exactly as a first bf_analyze --repo run
        // would, and simulate the held-out sizes.
        const profiling::RunRepository repo(work + "/repo");
        std::vector<CaseInputs> cases;
        for (const auto& spec : specs) {
          cases.push_back(prepare_case(spec, args.seed, {}, 4, spec.hi));
          const CaseInputs& in = cases.back();
          const gpusim::Device device(in.config.arch);
          repo.save(in.config.workload.name, in.config.arch.name,
                    profiling::sweep(in.config.workload, device,
                                     in.config.sizes, in.config.sweep));
        }
        return cases;
      },
      /*cached=*/true, /*setup_repeats=*/3, /*min_passes=*/3,
      /*pass_budget_s=*/2.5 * args.seconds,
      /*query_s_per_pass=*/0.1 * args.seconds);
}

}  // namespace bf::perfbench
