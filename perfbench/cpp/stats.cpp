#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/io.hpp"
#include "serve/json.hpp"

namespace bf::perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile of n samples. The slack
/// keeps p/100*n from rounding up past an exact integer (0.999 * 10000).
std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  return std::min(n, static_cast<std::size_t>(std::ceil(exact - 1e-9)));
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = nearest_rank(values.size(), p);
  return values[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

Tail supported_tail(std::size_t n, std::size_t min_beyond) {
  Tail tail;
  tail.n = n;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) < min_beyond) break;
    tail.p = p;
    tail.beyond = samples_beyond(n, p);
  }
  return tail;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double windowed_percentile(const std::vector<double>& ordered,
                           std::size_t window, double p) {
  if (window == 0 || ordered.size() < window) return percentile(ordered, p);
  std::vector<double> per_window;
  for (std::size_t at = 0; at + window <= ordered.size(); at += window) {
    per_window.push_back(percentile(
        std::vector<double>(ordered.begin() + static_cast<std::ptrdiff_t>(at),
                            ordered.begin() +
                                static_cast<std::ptrdiff_t>(at + window)),
        p));
  }
  return median(per_window);
}

// ---- spans ----

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, int parent)
    : tracer_(tracer) {
  if (tracer_.enabled()) id_ = tracer_.begin(std::move(name), parent);
}

Tracer::Scope::~Scope() {
  if (id_ >= 0) tracer_.end(id_);
}

int Tracer::begin(std::string name, int parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  span.trace_id = parent >= 0
                      ? spans_[static_cast<std::size_t>(parent)].trace_id
                      : next_trace_++;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

int Tracer::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (span.trace_id == 0) {
    span.trace_id = span.parent >= 0
                        ? spans_[static_cast<std::size_t>(span.parent)]
                              .trace_id
                        : next_trace_++;
  }
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::count(const std::string& name, double v) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += v;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(1e-9 * double(s.end_ns - s.start_ns));
  }
  return out;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations_s(name)) total += d;
  return total;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  // Children intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& c : spans) {
    if (c.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(c.parent)];
    const std::int64_t lo = std::max(c.start_ns, p.start_ns);
    const std::int64_t hi = std::min(c.end_ns, p.end_ns);
    if (lo < hi) covered[static_cast<std::size_t>(c.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Children of one span may overlap (spans from concurrent callers),
    // so subtract the union of their intervals, not the sum.
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        union_ns += hi - from;
        reach = hi;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::string Tracer::to_json() const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = self_times_ns(all);
  std::ostringstream os;
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << (i == 0 ? "" : ",\n") << "{\"id\":" << i << ",\"name\":\""
       << serve::json_escape(s.name) << "\",\"trace\":" << s.trace_id
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns
       << ",\"self_ns\":" << self[i] << '}';
  }
  os << "],\"counts\":{";
  std::lock_guard<std::mutex> lock(mu_);
  bool first = true;
  for (const auto& [name, v] : counters_) {
    os << (first ? "" : ",") << '"' << serve::json_escape(name)
       << "\":" << serve::json_number(v);
    first = false;
  }
  os << "}}\n";
  return os.str();
}

// ---- digests ----

std::string digest(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  return buf;
}

std::vector<std::string> changed_outputs(const Digests& expected,
                                         const Digests& actual) {
  std::vector<std::string> changed;
  for (const auto& [key, hex] : actual) {
    const auto it = expected.find(key);
    if (it == expected.end() || it->second != hex) changed.push_back(key);
  }
  for (const auto& [key, hex] : expected) {
    if (actual.count(key) == 0) changed.push_back(key);
  }
  return changed;
}

GoldenSet parse_golden(const std::string& json_text) {
  const serve::JsonValue doc = serve::parse_json(json_text);
  BF_CHECK_MSG(doc.type == serve::JsonValue::Type::kObject,
               "golden file must hold a JSON object");
  GoldenSet golden;
  for (const auto& [key, value] : doc.object) {
    if (key == "seed") {
      BF_CHECK_MSG(value.type == serve::JsonValue::Type::kNumber,
                   "golden \"seed\" must be a number");
      golden.seed = static_cast<std::uint64_t>(value.number);
      continue;
    }
    BF_CHECK_MSG(value.type == serve::JsonValue::Type::kObject,
                 "golden entry '" << key << "' must be an object");
    Digests& digests = golden.workloads[key];
    for (const auto& [name, hex] : value.object) {
      BF_CHECK_MSG(hex.type == serve::JsonValue::Type::kString,
                   "golden digest '" << name << "' must be a string");
      digests[name] = hex.str;
    }
  }
  return golden;
}

std::string render_golden(const GoldenSet& golden) {
  std::ostringstream os;
  os << "{\n  \"seed\": " << golden.seed;
  for (const auto& [workload, digests] : golden.workloads) {
    os << ",\n  \"" << serve::json_escape(workload) << "\": {";
    bool first = true;
    for (const auto& [name, hex] : digests) {
      os << (first ? "\n" : ",\n") << "    \"" << serve::json_escape(name)
         << "\": \"" << hex << '"';
      first = false;
    }
    os << "\n  }";
  }
  os << "\n}\n";
  return os.str();
}

// ---- knee search ----

std::vector<double> geometric_ladder(double lo, double hi, double step) {
  BF_CHECK_MSG(lo > 0.0 && step > 1.0 && hi >= lo, "bad ladder");
  std::vector<double> ladder;
  // Rung k is lo * step^k, computed directly so every rung is exact
  // for its index instead of drifting through repeated products.
  for (int k = 0;; ++k) {
    const double r = lo * std::pow(step, k);
    if (r > hi * (1.0 + 1e-12)) break;
    ladder.push_back(r);
  }
  return ladder;
}

Knee find_knee(const std::vector<double>& ladder,
               const std::function<RungProbe(double)>& probe) {
  Knee knee;
  int pass = -1;                              // highest rung known to pass
  int fail = static_cast<int>(ladder.size());  // lowest rung known to fail
  double pass_qps = 0.0;
  while (fail - pass > 1) {
    const int mid = pass + (fail - pass) / 2;
    const double rate = ladder[static_cast<std::size_t>(mid)];
    const RungProbe r = probe(rate);
    knee.probes.emplace_back(rate, r.ok);
    if (r.ok) {
      pass = mid;
      pass_qps = r.achieved_qps;
    } else {
      fail = mid;
    }
  }
  knee.rung = pass;
  if (pass >= 0) {
    knee.rate_qps = ladder[static_cast<std::size_t>(pass)];
    knee.achieved_qps = pass_qps;
  }
  return knee;
}

std::string tail_note(std::size_t n) {
  const Tail t = supported_tail(n);
  char p[16];
  std::snprintf(p, sizeof(p), "%g", t.p);
  return "n=" + std::to_string(n) + ", highest supported tail p" + p +
         " with " + std::to_string(t.beyond) + " beyond";
}

}  // namespace bf::perfbench
