// Golden model fits: every counter model and one guarded prediction of a
// time and a power predictor on two fixed sweeps, pinned to the values
// the serial fitting code produced. Counter entries, CV folds and forest
// trees fit on the shared pool; each result lands in its own slot and is
// merged in the serial order, so every value must stay bit-identical,
// also when two threads build at once.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/counter_models.hpp"
#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "ml/dataset.hpp"
#include "power/predictor.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace bf {
namespace {

struct EntryGolden {
  const char* counter;
  const char* chain;  ///< chain names, primary first, comma-separated
  double r2;
  double cv_rmse;
};

struct CaseGolden {
  const char* workload;
  const char* arch;
  bool power;  ///< PowerPredictor (power_w) instead of time_ms
  double query;
  std::vector<EntryGolden> entries;
  double value;
  double lo;
  double hi;
};

// Recorded with serial fitting (one core, counters, folds and trees in
// order). Printed with %.17g, so every literal parses back to the exact
// double.
const std::vector<CaseGolden>& golden() {
  static const std::vector<CaseGolden> table = {
      {"reduce1", "gtx580", false, 262144,
       {
           {"gld_requested_throughput", "mars,glm,loglin,powerlaw", 1, 5.1423384974513535},
           {"gst_requested_throughput", "mars,glm,loglin,powerlaw", 1, 0.01925115040370607},
           {"warp_execution_efficiency", "mars,loglin,glm,powerlaw", 1, 0.0068872498106576779},
           {"branch", "mars,powerlaw,glm,loglin", 0.99999388521794152, 29692.910956221189},
           {"gld_throughput", "mars,glm,loglin,powerlaw", 1, 4.9853679673300704},
           {"issue_slot_utilization", "mars,glm,loglin,powerlaw", 1, 0.010692430323442623},
       },
       0.026527946832139829, 0.012336429546211775, 0.05277184503105288},
      {"reduce1", "gtx580", true, 262144,
       {
           {"dram_write_transactions", "mars,powerlaw,glm,loglin", 0.99999770776031582, 204.98827558838735},
           {"gst_throughput", "mars,glm,loglin,powerlaw", 1, 0.15793263071016503},
           {"inst_replay_overhead", "mars,loglin,glm,powerlaw", 1, 0.00082569977794781169},
           {"l2_read_transactions", "mars,powerlaw,glm,loglin", 0.99999412769193086, 14177.700520758915},
           {"issue_slot_utilization", "mars,glm,loglin,powerlaw", 1, 0.010692430323442623},
           {"gst_request", "mars,powerlaw,glm,loglin", 0.99999278115074564, 449.26531248216207},
       },
       178.38989732120933, 162.16884944105342, 191.41065348971037},
      {"needle", "k20m", false, 768,
       {
           {"gst_requested_throughput", "mars,powerlaw,glm,loglin", 1, 0.093546215381083986},
           {"ipc", "mars,glm,powerlaw,loglin", 0.99999918606694782, 0.0044584680201489035},
           {"l2_write_throughput", "mars,powerlaw,glm,loglin", 0.99999350662037945, 0.13500972916300175},
           {"global_store_transaction", "mars,glm,powerlaw,loglin", 0.999999825917399, 62.246410149213929},
           {"divergent_branch", "mars,loglin,powerlaw,glm", 0.99999955025461851, 36.711282490232406},
           {"l2_read_throughput", "mars,powerlaw,glm,loglin", 0.99999029226117742, 0.18244818605260366},
       },
       1.8014543999898258, 0.81376894260952559, 3.1144875180870066},
      {"needle", "k20m", true, 768,
       {
           {"issue_slot_utilization", "mars,glm,powerlaw,loglin", 0.99999769887310197, 0.0012004719219058779},
           {"gst_requested_throughput", "mars,powerlaw,glm,loglin", 1, 0.093546215381083986},
           {"l2_write_transactions", "glm,mars,powerlaw,loglin", 0.99999928754998191, 244.12319933856662},
           {"dram_write_transactions", "glm,mars,powerlaw,loglin", 0.99999857457497876, 311.42860634488005},
           {"inst_replay_overhead", "mars,loglin,glm,powerlaw", 1, 0.0048969715805241626},
           {"dram_read_transactions", "glm,powerlaw,mars,loglin", 0.99999978608565132, 188.49426007381084},
       },
       45.473073350868084, 42.350908282289581, 49.256980026952171},
  };
  return table;
}

constexpr std::size_t kTrees = 60;

const ml::Dataset& sweep_for(const std::string& workload,
                             const std::string& arch) {
  static const std::map<std::string, ml::Dataset> sweeps = [] {
    std::map<std::string, ml::Dataset> m;
    const auto run = [&](const char* w, const char* a, double lo, double hi,
                         std::int64_t multiple) {
      const gpusim::Device dev(gpusim::arch_by_name(a));
      m[std::string(w) + "/" + a] = profiling::sweep(
          profiling::workload_by_name(w), dev,
          profiling::log2_sizes(lo, hi, 10, multiple));
    };
    run("reduce1", "gtx580", 16384, 1 << 20, 256);
    run("needle", "k20m", 64, 1024, 16);
    return m;
  }();
  return sweeps.at(workload + "/" + arch);
}

struct EntryObserved {
  std::string counter;
  std::string chain;
  double r2 = 0.0;
  double cv_rmse = 0.0;
};

struct Observed {
  std::vector<EntryObserved> entries;
  double value = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::string bytes;  ///< save() output of the whole predictor
};

std::string chain_text(const std::vector<core::CounterModelKind>& chain) {
  std::string s;
  for (const auto k : chain) {
    if (!s.empty()) s += ',';
    s += core::counter_model_name(k);
  }
  return s;
}

void observe_models(const core::CounterModels& models, Observed& out) {
  for (const auto& info : models.info()) {
    EXPECT_EQ(info.chosen, info.chain.front()) << info.counter;
    out.entries.push_back(
        {info.counter, chain_text(info.chain), info.r2, info.cv_rmse});
  }
}

Observed observe(const CaseGolden& c) {
  const ml::Dataset& sweep = sweep_for(c.workload, c.arch);
  Observed out;
  std::ostringstream os;
  if (c.power) {
    power::PowerPredictorOptions opts;
    opts.scaling.model.forest.n_trees = kTrees;
    opts.scaling.arch = gpusim::arch_by_name(c.arch);
    const auto p = power::PowerPredictor::build(sweep, opts);
    observe_models(p.scaling().counter_models(), out);
    const auto rec = p.predict_guarded(c.query).record;
    out.value = rec.value;
    out.lo = rec.lo;
    out.hi = rec.hi;
    p.save(os);
  } else {
    core::ProblemScalingOptions opts;
    opts.model.forest.n_trees = kTrees;
    opts.arch = gpusim::arch_by_name(c.arch);
    const auto p = core::ProblemScalingPredictor::build(sweep, opts);
    observe_models(p.counter_models(), out);
    const auto rec = p.predict_guarded(c.query);
    out.value = rec.value;
    out.lo = rec.lo;
    out.hi = rec.hi;
    p.save(os);
  }
  out.bytes = os.str();
  return out;
}

void expect_matches(const CaseGolden& g, const Observed& o) {
  SCOPED_TRACE(std::string(g.workload) + " on " + g.arch +
               (g.power ? " (power)" : " (time)"));
  ASSERT_EQ(o.entries.size(), g.entries.size());
  for (std::size_t i = 0; i < g.entries.size(); ++i) {
    const EntryGolden& want = g.entries[i];
    const EntryObserved& got = o.entries[i];
    EXPECT_EQ(got.counter, want.counter);
    EXPECT_EQ(got.chain, want.chain) << want.counter;
    EXPECT_EQ(got.r2, want.r2) << want.counter;
    EXPECT_EQ(got.cv_rmse, want.cv_rmse) << want.counter;
  }
  EXPECT_EQ(o.value, g.value);
  EXPECT_EQ(o.lo, g.lo);
  EXPECT_EQ(o.hi, g.hi);
}

TEST(GoldenModels, TableCoversTimeAndPowerOnBothSweeps) {
  ASSERT_EQ(golden().size(), 4u);
  for (const CaseGolden& g : golden()) EXPECT_FALSE(g.entries.empty());
}

TEST(GoldenModels, EveryFitMatchesSerialFitting) {
  for (const CaseGolden& g : golden()) expect_matches(g, observe(g));
}

TEST(GoldenModels, ConcurrentBuildsFromTwoThreadsMatch) {
  // Two callers share the global pool; each build nests entries, folds
  // and trees into it and must still produce the golden fit and the same
  // bundle bytes.
  const CaseGolden& g = golden().front();
  (void)sweep_for(g.workload, g.arch);  // simulate before the race
  Observed a;
  Observed b;
  const auto build = [](const CaseGolden& c, Observed& out) {
    out = observe(c);
  };
  std::thread ta(build, std::cref(g), std::ref(a));
  std::thread tb(build, std::cref(g), std::ref(b));
  ta.join();
  tb.join();
  expect_matches(g, a);
  expect_matches(g, b);
  EXPECT_EQ(a.bytes, b.bytes);
}

}  // namespace
}  // namespace bf
