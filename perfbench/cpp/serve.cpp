// The serve-mixed workload: bf_serve --net-workers 2 over a Unix socket,
// driven open-loop by this (single-threaded) client on two pipelined
// connections.
//
// Set-up exports three bundles the way bf_analyze --export-model does
// (two with a power record), builds the seeded request list and starts
// the server. About half the requests repeat a (model, size) pair drawn
// Zipf from a small pool; the rest are fresh sizes, a fifth of them
// outside the training hull. Measured phases: five rounds of a light
// and a heavy fixed rate and an unpaced burst of fixed size (run_s),
// then the knee search. Every reply is then checked against in-process
// predict_guarded on the same bundle.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "analysis.hpp"
#include "client.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/artifact.hpp"
#include "serve/json.hpp"

namespace bf::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kLightQps = 2000.0;
/// About 60% of the knee measured on the reference machine (README),
/// leaving headroom for the host's slow stretches.
constexpr double kHeavyQps = 10000.0;
constexpr int kRounds = 5;                  ///< light/heavy/burst rounds
constexpr std::size_t kBurst = 8000;        ///< requests timed by run_s
constexpr std::size_t kBurstWindow = 64;    ///< outstanding during the burst
constexpr double kKneeLimitMs = 2.0;        ///< p99 limit of a knee rung
constexpr std::size_t kKneeProbe = 5000;    ///< requests per rung probe
/// Backlog at which a paced phase is abandoned as overloaded (below the
/// server's default admission cap of 1024, so nothing is shed).
constexpr std::size_t kMaxInflight = 768;
/// Tail percentiles are medians over windows of this many requests.
constexpr std::size_t kWindow = 1000;
constexpr std::size_t kPoolPairs = 32;
constexpr std::size_t kRequests = 120000;

/// The served models, named after their workloads: the bundle's model
/// name is the workload name, as bf_analyze --export-model writes it.
std::vector<CaseSpec> serve_models() {
  return {
      {"reduce1", "gtx580", 1 << 14, 1 << 24, 40, 256, true, true},
      {"reduce6", "gtx580", 1 << 14, 1 << 24, 40, 256, false, true},
      {"needle", "k20m", 64, 4096, 40, 64, true, true},
  };
}

using Models = std::vector<CaseSpec>;

QueryAnswer in_process(const serve::ModelBundle& b, double size) {
  Tracer off(false);
  return answer_query(b.predictor, b.power ? &*b.power : nullptr, size, off,
                      -1);
}

struct Request {
  std::size_t model = 0;
  double size = 0.0;
};

std::string request_line(const Models& models, const Request& r,
                         std::size_t id) {
  return "{\"model\":\"" + models[r.model].workload +
         "\",\"size\":" + serve::json_number(r.size) +
         ",\"id\":" + std::to_string(id) + "}";
}

/// The seeded request list: half Zipf repeats from a small pool, half
/// fresh sizes (a fifth of those beyond the training hull).
std::vector<Request> make_requests(const Models& models,
                                   std::uint64_t seed) {
  Rng rng(derive_seed(seed, 2));
  std::set<std::pair<std::size_t, double>> used;
  const auto fresh = [&](std::size_t m, bool outside) {
    const CaseSpec& s = models[m];
    while (true) {
      const double raw =
          outside ? s.hi * rng.uniform(1.2, 4.0)
                  : std::exp2(rng.uniform(std::log2(s.lo), std::log2(s.hi)));
      // Sixteenths keep fresh sizes distinct even on a narrow hull.
      const double size = std::round(raw * 16.0) / 16.0;
      if (used.insert({m, size}).second) return Request{m, size};
    }
  };
  std::vector<Request> pool;
  for (std::size_t i = 0; i < kPoolPairs; ++i) {
    pool.push_back(fresh(rng.uniform_index(models.size()), false));
  }
  std::vector<double> zipf;  // cumulative weights 1/k^1.1
  for (std::size_t k = 1; k <= kPoolPairs; ++k) {
    zipf.push_back((zipf.empty() ? 0.0 : zipf.back()) +
                   1.0 / std::pow(double(k), 1.1));
  }
  std::vector<Request> reqs;
  reqs.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (rng.uniform() < 0.5) {
      const double u = rng.uniform() * zipf.back();
      const auto k = static_cast<std::size_t>(
          std::upper_bound(zipf.begin(), zipf.end(), u) - zipf.begin());
      reqs.push_back(pool[std::min(k, kPoolPairs - 1)]);
    } else {
      reqs.push_back(fresh(rng.uniform_index(models.size()),
                           rng.uniform() < 0.2));
    }
  }
  return reqs;
}

/// In-process answers for every distinct (model, size), computed on the
/// bundles as loaded from disk, across a few threads.
class Expected {
 public:
  Expected(const std::vector<serve::ModelBundle>& bundles,
           const std::vector<Request>& reqs, const std::vector<bool>& want)
      : bundles_(bundles) {
    std::vector<std::pair<std::size_t, double>> keys;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!want[i]) continue;
      const auto key = std::make_pair(reqs[i].model, reqs[i].size);
      if (table_.emplace(key, QueryAnswer{}).second) keys.push_back(key);
    }
    // Each worker writes only the entries of its own keys; the map's
    // structure is not modified while they run.
    std::vector<std::thread> workers;
    const std::size_t n = 4;
    for (std::size_t w = 0; w < n; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t k = w; k < keys.size(); k += n) {
          table_.find(keys[k])->second =
              in_process(bundles[keys[k].first], keys[k].second);
        }
      });
    }
    for (auto& t : workers) t.join();
  }
  /// The answer for `r`, computed now when the table lacks it.
  QueryAnswer at(const Request& r) const {
    const auto it = table_.find({r.model, r.size});
    return it != table_.end() ? it->second
                              : in_process(bundles_[r.model], r.size);
  }

 private:
  const std::vector<serve::ModelBundle>& bundles_;
  std::map<std::pair<std::size_t, double>, QueryAnswer> table_;
};

struct Phase {
  std::string name;
  PhaseSpec spec;
  PhaseResult result;
};

/// What set-up leaves running for the measured phases.
struct Setup {
  std::string dir;
  std::vector<CaseInputs> cases;
  std::vector<serve::ModelBundle> bundles;
  std::vector<Request> reqs;
  std::vector<std::string> lines;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<OpenLoopClient> client;
  std::string socket;
};

std::string bundle_path(const Setup& s, const CaseSpec& spec) {
  return s.dir + "/models/" + spec.workload + serve::kBundleSuffix;
}

void setup_serve(const Args& args, const Models& models, Setup& s) {
  s.client.reset();
  s.server.reset();
  s.dir = args.work_dir + "/serve-mixed";
  fs::remove_all(s.dir);
  fs::create_directories(s.dir + "/models");
  s.cases.clear();
  s.bundles.clear();
  Tracer off(false);
  for (const auto& spec : models) {
    s.cases.push_back(prepare_case(spec, args.seed, {}, 4, spec.hi));
    const std::string path = bundle_path(s, spec);
    (void)analyze(s.cases.back(), "", path, off);
    s.bundles.push_back(serve::load_bundle(path));
  }
  s.reqs = make_requests(models, args.seed);
  s.lines.clear();
  s.lines.reserve(s.reqs.size());
  for (std::size_t i = 0; i < s.reqs.size(); ++i) {
    s.lines.push_back(request_line(models, s.reqs[i], i));
  }
  s.socket = s.dir + "/bf.sock";
  s.server = std::make_unique<ServerProcess>(
      args.serve_binary,
      std::vector<std::string>{"--model-dir", s.dir + "/models", "--socket",
                               s.socket, "--net-workers", "2", "--threads",
                               "1", "--reload-watch-ms", "0"},
      s.dir + "/bf_serve.log");
  s.client = std::make_unique<OpenLoopClient>(s.socket, 2);
}

/// The traced part of serve-mixed: the serve-layer split from an
/// in-process replay of the light phase's request lines, each reply
/// checked, and the first 1000 answers digested so a seed without golden
/// digests compares this path with the socket run's.
void replay_in_process(const Setup& s, std::size_t first,
                       const Expected& expected, const Digests& socket_digests,
                       Outcome& out) {
  constexpr std::size_t kReplay = 4000;
  const std::vector<std::string> lines(
      s.lines.begin() + static_cast<std::ptrdiff_t>(first),
      s.lines.begin() + static_cast<std::ptrdiff_t>(first + kReplay));
  Tracer tr(true);
  const ReplayResult replay = serve_replay(s.dir + "/models", lines, tr, out);

  std::string first_answers;
  double grade_c = 0.0;
  double demotions = 0.0;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const Request& req = s.reqs[first + k];
    const QueryAnswer want = expected.at(req);
    grade_c += want.rec.grade == guard::Grade::kC ? 1 : 0;
    demotions += static_cast<double>(want.rec.demotions.size());
    QueryAnswer a;
    ++out.attempted;
    if (!reply_answer(replay.replies[k], first + k,
                      s.cases[req.model].spec.workload, req.size, a) ||
        !same_answer(a, want)) {
      out.fail("in-process reply differs: " + replay.replies[k]);
    }
    if (k < 1000) first_answers += render_answer(a);
  }
  out.set("guard.grade_c", grade_c, "replayed requests");
  out.set("guard.demotions", demotions, "replayed requests");
  out.set("core.predict_guarded_us",
          1e6 * median(tr.durations_s("core.predict_guarded")));
  out.set("trace.overhead_pct", replay.overhead_pct,
          "handle_line loop with and without a span per line");
  Digests d = socket_digests;
  d["requests/first_1000"] = digest(first_answers);
  out.pass_digests.push_back(d);
  out.spans_json = tr.to_json();
}

}  // namespace

void run_serve_mixed(const Args& args, Outcome& out) {
  const Models models = serve_models();
  Setup s;
  const int setup_repeats = 2;
  std::vector<Phase> phases;
  const double setup_s = timed_median(setup_repeats, [&](int) {
    setup_serve(args, models, s);
    // Warm-up, unpaced, so bundles are loaded and caches are warm
    // before anything is timed.
    phases.clear();
    PhaseSpec warm;
    warm.count = 2000;
    warm.max_inflight = kBurstWindow;
    phases.push_back({"warm-up", warm, s.client->run(s.lines, warm)});
  });
  out.set("setup_s", setup_s,
          "median of " + std::to_string(setup_repeats) + " set-ups");

  std::size_t cursor = phases.back().spec.count;
  const std::size_t light_first_line = cursor;
  const double cpu0 = s.server->cpu_us();
  const auto run_phase = [&](const std::string& name, PhaseSpec spec) {
    spec.first = cursor;
    cursor += spec.count;
    phases.push_back({name, spec, s.client->run(s.lines, spec)});
    return &phases.back().result;
  };
  // The light, heavy and burst phases run in rounds spread over the run;
  // each metric is a median over rounds or windows, so a slow stretch of
  // the host moves one round, not the result.
  std::vector<double> light_p50, heavy_p50, burst_s;
  std::vector<double> light_lat, heavy_lat, late;
  std::size_t inflight_max = 0;
  for (int round = 0; round < kRounds; ++round) {
    PhaseSpec light;
    light.rate_qps = kLightQps;
    light.count = static_cast<std::size_t>(kLightQps * 0.06 * args.seconds);
    light.max_inflight = kMaxInflight;
    PhaseSpec heavy = light;
    heavy.rate_qps = kHeavyQps;
    heavy.count = static_cast<std::size_t>(kHeavyQps * 0.042 * args.seconds);
    PhaseSpec burst;
    burst.count = kBurst;
    burst.max_inflight = kBurstWindow;
    for (const auto& [spec, p50, pooled] :
         {std::tuple{light, &light_p50, &light_lat},
          std::tuple{heavy, &heavy_p50, &heavy_lat}}) {
      const PhaseResult& r =
          *run_phase(spec.rate_qps == kLightQps ? "light" : "heavy", spec);
      const std::vector<double> lat = r.latency_by_request();
      p50->push_back(percentile(lat, 50));
      pooled->insert(pooled->end(), lat.begin(), lat.end());
      late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
      inflight_max = std::max(inflight_max, r.inflight_max);
    }
    burst_s.push_back(run_phase("burst", burst)->elapsed_s);
  }
  const std::vector<double> ladder = geometric_ladder(2000.0, 64000.0, 1.1);
  // A rung passes when one of two probes does: one stall of the host
  // should not end the search.
  double lowest_rung_qps = 0.0;
  const Knee knee = find_knee(ladder, [&](double rate) {
    RungProbe p;
    for (int attempt = 0; attempt < 2 && !p.ok; ++attempt) {
      PhaseSpec probe;
      probe.rate_qps = rate;
      probe.count =
          std::max(kKneeProbe, static_cast<std::size_t>(0.3 * rate));
      probe.max_inflight = kMaxInflight;
      const PhaseResult& r = *run_phase("knee", probe);
      p.achieved_qps = r.achieved_qps();
      if (rate == ladder.front()) lowest_rung_qps = p.achieved_qps;
      p.ok = !r.abandoned && !r.timed_out && r.replies.size() == r.sent &&
             windowed_percentile(r.latency_by_request(), kWindow, 99) <
                 kKneeLimitMs &&
             p.achieved_qps > 0.95 * rate;
    }
    return p;
  });
  const double cpu1 = s.server->cpu_us();
  std::size_t served = 0;
  for (std::size_t i = 1; i < phases.size(); ++i) {
    served += phases[i].result.replies.size();
  }

  // Held-out sizes through the socket, for pred_err_pct.
  std::vector<std::string> heldout_lines;
  std::vector<std::pair<std::size_t, std::size_t>> heldout_at;  // (case, i)
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t i = 0; i < s.cases[m].heldout.size(); ++i) {
      heldout_lines.push_back(request_line(
          models, Request{m, s.cases[m].heldout[i]}, heldout_lines.size()));
      heldout_at.emplace_back(m, i);
    }
  }
  PhaseSpec held;
  held.count = heldout_lines.size();
  held.max_inflight = kBurstWindow;
  const PhaseResult held_r = s.client->run(heldout_lines, held);
  std::vector<double> errs;
  for (std::size_t k = 0; k < held_r.replies.size(); ++k) {
    const auto [m, i] = heldout_at[held_r.index[k]];
    QueryAnswer a;
    ++out.attempted;
    if (!reply_answer(held_r.replies[k], held_r.index[k], models[m].workload,
                      s.cases[m].heldout[i], a)) {
      out.fail("bad reply to a held-out request: " + held_r.replies[k]);
      continue;
    }
    errs.push_back(100.0 * std::fabs(a.rec.value - s.cases[m].truth_ms[i]) /
                   s.cases[m].truth_ms[i]);
  }

  // Server-side counters, then stop it.
  PhaseSpec stats_spec;
  stats_spec.count = 1;
  const PhaseResult stats_r =
      s.client->run({"{\"cmd\":\"stats\"}"}, stats_spec);
  serve::JsonValue stats;
  if (!stats_r.replies.empty()) stats = serve::parse_json(stats_r.replies[0]);
  const auto stat = [&](const char* group, const char* key) {
    const serve::JsonValue* g = group ? stats.find(group) : &stats;
    const serve::JsonValue* v = g ? g->find(key) : nullptr;
    return v ? v->number : 0.0;
  };
  out.set("peak_rss_mb", s.server->peak_rss_mb(), "bf_serve VmHWM");
  s.client.reset();
  s.server->stop();

  // Check every reply against in-process predict_guarded.
  std::vector<bool> want(s.reqs.size(), false);
  for (const auto& ph : phases) {
    for (const std::size_t idx : ph.result.index) {
      want[(ph.spec.first + idx) % s.reqs.size()] = true;
    }
  }
  const Expected expected(s.bundles, s.reqs, want);
  std::size_t bad = 0;
  std::set<std::pair<std::size_t, double>> seen;
  std::size_t repeats = 0;
  for (const auto& ph : phases) {
    const PhaseResult& r = ph.result;
    out.attempted += r.sent;
    const std::size_t missing = r.sent - r.replies.size();
    if (missing > 0) {
      out.fail(ph.name + ": " + std::to_string(missing) + " requests unanswered");
    }
    for (std::size_t k = 0; k < r.replies.size(); ++k) {
      const std::size_t line = (ph.spec.first + r.index[k]) % s.reqs.size();
      const Request& req = s.reqs[line];
      if (!seen.insert({req.model, req.size}).second) ++repeats;
      QueryAnswer a;
      if (!reply_answer(r.replies[k], line, models[req.model].workload,
                        req.size, a) ||
          !same_answer(a, expected.at(req))) {
        if (++bad <= 3) out.errors.push_back(ph.name + ": reply differs: " + r.replies[k]);
        ++out.failed;
      }
    }
  }

  const auto rounds = [](const std::vector<double>& v) {
    std::string s = "median of rounds";
    for (const double x : v) s += " " + serve::json_number(x);
    return s;
  };
  out.set("run_s", median(burst_s),
          rounds(burst_s) + "; bursts of " + std::to_string(kBurst) +
              " requests, " + std::to_string(kBurstWindow) + " outstanding");
  out.set("pred_err_pct", median(errs),
          std::to_string(errs.size()) + " held-out sizes");
  out.set("p50_ms.light", median(light_p50),
          rounds(light_p50) + "; " + tail_note(light_lat.size()));
  out.set("p50_ms.heavy", median(heavy_p50),
          rounds(heavy_p50) + "; " + tail_note(heavy_lat.size()));
  for (const auto& [name, lat] :
       {std::pair<std::string, const std::vector<double>*>{"light", &light_lat},
        {"heavy", &heavy_lat}}) {
    out.set("p99_ms." + name, windowed_percentile(*lat, kWindow, 99),
            "median of " + std::to_string(lat->size() / kWindow) +
                " windows of " + std::to_string(kWindow) + "; whole phase " +
                tail_note(lat->size()) + " = " +
                serve::json_number(
                    percentile(*lat, supported_tail(lat->size()).p)));
  }
  std::string ladder_note = "rung " + std::to_string(knee.rung) + " (" +
                            serve::json_number(knee.rate_qps) + " QPS); probes";
  for (const auto& [rate, ok] : knee.probes) {
    ladder_note += " " + std::to_string(static_cast<long>(rate)) +
                   (ok ? "+" : "-");
  }
  // No passing rung (the host stalled through every probe): report what
  // the lowest rung's last probe served, and say so.
  out.set("knee_qps", knee.rung >= 0 ? knee.achieved_qps : lowest_rung_qps,
          knee.rung >= 0 ? ladder_note
                         : "no rung met the limit; lowest rung served; " +
                               ladder_note);

  // Per-layer numbers from the socket run.
  out.set("client.late_ms.p99", percentile(late, 99), tail_note(late.size()));
  out.set("client.inflight_max", static_cast<double>(inflight_max),
          "light and heavy phases");
  out.set("client.repeat_share",
          static_cast<double>(repeats) / static_cast<double>(seen.size() + repeats));
  out.set("serve.cpu_us_per_req", (cpu1 - cpu0) / static_cast<double>(served),
          std::to_string(served) + " requests");
  out.set("serve.coalesced", stat(nullptr, "coalesced"));
  out.set("net.shed", stat("net", "shed"));
  out.set("net.timeouts", stat("net", "timeouts"));
  if (stat("net", "shed") > 0) out.fail("the server shed requests");

  // Deterministic outputs: bundles, held-out predictions, and the
  // expected answers of the first light-phase requests.
  Digests d;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const std::string key = case_key(models[m]);
    d[key + "/bundle"] =
        digest(normalized_bundle_bytes(bundle_path(s, models[m])));
    std::string preds;
    for (const double size : s.cases[m].heldout) {
      preds += render_answer(in_process(s.bundles[m], size));
    }
    d[key + "/predictions"] = digest(preds);
  }
  std::string first;
  for (std::size_t i = 0; i < 1000; ++i) {
    first += render_answer(expected.at(s.reqs[light_first_line + i]));
  }
  d["requests/first_1000"] = digest(first);
  out.pass_digests.push_back(d);

  if (args.trace) replay_in_process(s, light_first_line, expected, d, out);
}

}  // namespace bf::perfbench
