// The benchmark's own measurement arithmetic, kept apart from the
// workloads so perfbench/tests can check it against hand-worked cases:
//
//   * percentiles and the tail rule: report the median plus the highest
//     percentile that still has at least ten samples beyond it;
//   * in-memory spans with parents and trace ids, and the self time of a
//     span (its duration minus the part its children cover);
//   * output digests compared against a committed golden set;
//   * the knee search over a fixed geometric ladder of request rates.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bf::perfbench {

// ---- percentiles ----

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);

/// The tail a sample of `n` supports: the highest of p50, p90, p99,
/// p99.9 and p99.99 that leaves at least `min_beyond` samples above its
/// rank. `p` is 0 when even the median is unsupported.
struct Tail {
  double p = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Tail supported_tail(std::size_t n, std::size_t min_beyond = 10);

/// "n=N, highest supported tail pP with K beyond" for a latency sample.
std::string tail_note(std::size_t n);

/// Samples ranked above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

double median(std::vector<double> values);

/// Median over consecutive windows of `window` samples (in the order
/// given; a trailing partial window is dropped) of each window's p-th
/// percentile. A stall that hits one window moves one window's value,
/// not the result. Falls back to the plain percentile when there is not
/// one full window.
double windowed_percentile(const std::vector<double>& ordered,
                           std::size_t window, double p);

// ---- spans ----

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;             ///< index into the span list, -1 for roots
  std::uint64_t trace_id = 0;  ///< shared by every span of one analysis
};

/// Spans kept in memory and written as JSON at the end. A disabled
/// tracer records nothing and hands out inert scopes.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: begins on construction, ends on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, int parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of this span (-1 when the tracer is disabled).
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_ = -1;
  };

  /// Record a finished span directly (used by tests and by callers that
  /// time an interval themselves). Returns its index.
  int add(Span span);

  /// Add `v` to a named count kept beside the spans.
  void count(const std::string& name, double v);
  double counter(const std::string& name) const;

  std::vector<Span> spans() const;
  /// Sum of the durations (seconds) of every span named `name`.
  double total_s(const std::string& name) const;
  /// Durations (seconds) of every span named `name`, in record order.
  std::vector<double> durations_s(const std::string& name) const;

  std::string to_json() const;

 private:
  int begin(std::string name, int parent);
  void end(int id);

  bool enabled_;
  mutable std::mutex mu_;  // guards spans_, counters_ and next_trace_
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
  std::uint64_t next_trace_ = 1;
};

/// Self time (ns) of every span: its duration minus the union of the
/// intervals its direct children cover, clipped to the span.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

std::int64_t now_ns();

// ---- output digests ----

/// 16-hex-digit FNV-1a digest of an output rendering.
std::string digest(const std::string& text);

/// Named output digests of one run, e.g. "reduce1.gtx580/sweep_csv".
using Digests = std::map<std::string, std::string>;

/// Keys whose digest differs between `expected` and `actual`; a key
/// present on one side only counts as changed.
std::vector<std::string> changed_outputs(const Digests& expected,
                                         const Digests& actual);

/// The committed golden file: {"seed": N, "<workload>": {key: hex}}.
struct GoldenSet {
  std::uint64_t seed = 0;
  std::map<std::string, Digests> workloads;
};
GoldenSet parse_golden(const std::string& json_text);
std::string render_golden(const GoldenSet& golden);

// ---- knee search ----

/// Rates lo, lo*step, lo*step^2, ... up to and including the last one
/// <= hi.
std::vector<double> geometric_ladder(double lo, double hi, double step);

struct RungProbe {
  bool ok = false;            ///< tail under the limit, nothing failed,
                              ///< backlog did not grow
  double achieved_qps = 0.0;  ///< replies per second actually served
};

struct Knee {
  int rung = -1;              ///< highest passing rung, -1 when none
  double rate_qps = 0.0;      ///< its nominal rate
  double achieved_qps = 0.0;  ///< what the probe at that rung served
  std::vector<std::pair<double, bool>> probes;  ///< (rate, ok) in order
};

/// Binary search for the highest rung whose probe passes, treating the
/// pass/fail curve as monotone in the rate (one probe per visited rung).
Knee find_knee(const std::vector<double>& ladder,
               const std::function<RungProbe(double)>& probe);

}  // namespace bf::perfbench
