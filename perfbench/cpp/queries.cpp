#include "queries.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "serve/artifact.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace bf::perfbench {

QueryAnswer answer_query(const core::ProblemScalingPredictor& psp,
                         const power::PowerPredictor* power, double size,
                         Tracer& tr, int parent) {
  QueryAnswer a;
  {
    const Tracer::Scope span(tr, "core.predict_guarded", parent);
    a.rec = psp.predict_guarded(size);
  }
  if (power != nullptr) {
    const Tracer::Scope span(tr, "power.predict_guarded", parent);
    a.power = power->predict_guarded(size, a.rec);
    a.has_power = true;
  }
  return a;
}

std::string render_answer(const QueryAnswer& a) {
  using serve::json_number;
  std::string s = json_number(a.rec.size) + ' ' + json_number(a.rec.value) +
                  ' ' + json_number(a.rec.lo) + ' ' + json_number(a.rec.hi) +
                  ' ' + guard::grade_letter(a.rec.grade) +
                  (a.rec.extrapolated ? " x" : " -");
  if (a.has_power) {
    s += ' ' + json_number(a.power.power_w) + ' ' +
         json_number(a.power.energy_j) + ' ' +
         guard::grade_letter(a.power.energy_grade);
  }
  return s + '\n';
}

bool answer_finite(const QueryAnswer& a) {
  const bool time_ok = std::isfinite(a.rec.value) && std::isfinite(a.rec.lo) &&
                       std::isfinite(a.rec.hi);
  return time_ok && (!a.has_power || (std::isfinite(a.power.power_w) &&
                                      std::isfinite(a.power.energy_j)));
}

bool same_answer(const QueryAnswer& a, const QueryAnswer& b) {
  return render_answer(a) == render_answer(b);
}

std::vector<double> query_sizes(double lo, double hi) {
  constexpr int kInside = 922;
  constexpr int kBeyond = 102;  // ~10%, the serve-mixed share
  // Log-spaced from `from` to `to`, in sixteenths.
  const auto grid = [](double from, double to, int n, std::vector<double>& out) {
    for (int i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / (n - 1);
      out.push_back(std::round(from * std::pow(to / from, t) * 16.0) / 16.0);
    }
  };
  std::vector<double> sizes;
  grid(lo, hi, kInside, sizes);
  grid(1.2 * hi, 4.0 * hi, kBeyond, sizes);
  return sizes;
}

std::string normalized_bundle_bytes(const std::string& path) {
  serve::ModelBundle bundle = serve::load_bundle(path);
  bundle.meta.provenance.clear();
  return serve::bundle_to_string(bundle);
}

/// Read the answer a predict reply carries into `a`; false when the
/// reply is not a successful predict of `size` on `model` for request
/// `id`, or a field is missing or malformed.
bool reply_answer(const std::string& reply, std::size_t id,
                  const std::string& model, double size, QueryAnswer& a) {
  serve::JsonValue doc;
  try {
    doc = serve::parse_json(reply);
  } catch (const std::exception&) {
    return false;
  }
  const auto num = [&](const char* key, double& v) {
    const serve::JsonValue* f = doc.find(key);
    if (f == nullptr || f->type != serve::JsonValue::Type::kNumber) return false;
    v = f->number;
    return true;
  };
  const auto grade = [&](const char* key, guard::Grade& g) {
    const serve::JsonValue* f = doc.find(key);
    if (f == nullptr || f->type != serve::JsonValue::Type::kString) return false;
    if (f->str == "A") {
      g = guard::Grade::kA;
    } else if (f->str == "B") {
      g = guard::Grade::kB;
    } else if (f->str == "C") {
      g = guard::Grade::kC;
    } else {
      return false;
    }
    return true;
  };
  const serve::JsonValue* ok = doc.find("ok");
  const serve::JsonValue* name = doc.find("model");
  const serve::JsonValue* extrap = doc.find("extrapolated");
  double rid = -1;
  if (ok == nullptr || ok->type != serve::JsonValue::Type::kBool ||
      !ok->boolean || !num("id", rid) || rid != static_cast<double>(id) ||
      name == nullptr || name->type != serve::JsonValue::Type::kString ||
      name->str != model || !num("size", a.rec.size) || a.rec.size != size ||
      extrap == nullptr || extrap->type != serve::JsonValue::Type::kBool) {
    return false;
  }
  a.rec.extrapolated = extrap->boolean;
  if (!num("predicted_ms", a.rec.value) || !num("interval_lo_ms", a.rec.lo) ||
      !num("interval_hi_ms", a.rec.hi) || !grade("grade", a.rec.grade)) {
    return false;
  }
  a.has_power = doc.find("power_w") != nullptr;
  if (a.has_power &&
      (!num("power_w", a.power.power_w) || !num("energy_j", a.power.energy_j) ||
       !grade("power_grade", a.power.energy_grade))) {
    return false;
  }
  return true;
}

ReplayResult serve_replay(const std::string& model_dir,
                          const std::vector<std::string>& lines, Tracer& tr,
                          Outcome& out) {
  serve::ServerOptions opts;
  opts.model_dir = model_dir;
  opts.threads = 1;
  serve::Server server(opts);
  for (const auto& line : lines) (void)server.handle_line(line);  // warm

  ReplayResult result;
  result.replies.resize(lines.size());
  const std::int64_t u0 = now_ns();
  for (std::size_t k = 0; k < lines.size(); ++k) {
    result.replies[k] = server.handle_line(lines[k]);
  }
  const double untraced_s = 1e-9 * static_cast<double>(now_ns() - u0);
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const Tracer::Scope span(tr, "serve.handle_line", -1);
    result.replies[k] = server.handle_line(lines[k]);
  }
  const double traced_s = 1e-9 * static_cast<double>(now_ns() - t0);
  result.overhead_pct = 100.0 * (traced_s / untraced_s - 1.0);

  for (const auto& line : lines) {
    const Tracer::Scope root(tr, "serve.request", -1);
    serve::JsonValue doc;
    {
      const Tracer::Scope span(tr, "serve.parse", root.id());
      doc = serve::parse_json(line);
    }
    std::shared_ptr<const serve::LoadedModel> model;
    {
      const Tracer::Scope span(tr, "serve.registry_get", root.id());
      model = server.registry().get(doc.find("model")->str);
    }
    const Tracer::Scope span(tr, "serve.predict", root.id());
    const serve::ModelBundle& b = model->bundle;
    (void)answer_query(b.predictor, b.power ? &*b.power : nullptr,
                       doc.find("size")->number, tr, span.id());
  }
  const auto mean_us = [&](const char* name) {
    const std::vector<double> d = tr.durations_s(name);
    return d.empty() ? 0.0 : 1e6 * tr.total_s(name) / double(d.size());
  };
  const double parse = mean_us("serve.parse");
  const double get = mean_us("serve.registry_get");
  const double predict = mean_us("serve.predict");
  const std::string note = "mean of " + std::to_string(lines.size());
  out.set("serve.parse_us", parse, note);
  out.set("serve.registry_get_us", get, note);
  out.set("serve.predict_us", predict, note);
  out.set("serve.render_us",
          std::max(0.0, mean_us("serve.handle_line") - parse - get - predict),
          "handle_line mean less the three stages");
  return result;
}

QueryPhase::QueryPhase(const std::vector<QueryTarget>& targets,
                       Outcome& out) {
  BF_CHECK_MSG(!targets.empty(), "no query targets");
  Tracer off(false);
  double grade_c = 0.0;
  double demotions = 0.0;
  for (const QueryTarget& q : targets) {
    reference_.push_back(answer_query(*q.psp, q.power, q.size, off, -1));
    if (!answer_finite(reference_.back())) {
      out.fail("non-finite answer at size " + serve::json_number(q.size));
    }
    grade_c += reference_.back().rec.grade == guard::Grade::kC ? 1 : 0;
    demotions += static_cast<double>(reference_.back().rec.demotions.size());
  }
  out.attempted += targets.size();
  out.set("guard.grade_c", grade_c, "query targets");
  out.set("guard.demotions", demotions, "query targets");
}

void QueryPhase::run(const std::vector<QueryTarget>& targets, double budget_s,
                     Outcome& out) {
  BF_CHECK_MSG(targets.size() == reference_.size(), "query targets changed");
  Tracer off(false);
  std::size_t mismatches = 0;
  const std::int64_t start = now_ns();
  do {
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const QueryTarget& q = targets[i];
      const std::int64_t t0 = now_ns();
      const QueryAnswer a = answer_query(*q.psp, q.power, q.size, off, -1);
      const double ms = 1e-6 * static_cast<double>(now_ns() - t0);
      busy_ms += ms;
      (q.beyond_hull ? beyond_ : inside_).push_back(ms);
      if (!same_answer(a, reference_[i])) ++mismatches;
    }
    round_qps_.push_back(1e3 * static_cast<double>(targets.size()) / busy_ms);
    out.attempted += targets.size();
  } while (1e-9 * static_cast<double>(now_ns() - start) < budget_s);
  if (mismatches > 0) {
    out.fail(std::to_string(mismatches) +
             " repeated answers differ from the first answer");
  }
}

void QueryPhase::report(Outcome& out) const {
  out.set("p50_ms.light", percentile(inside_, 50),
          "inside the hull, " + tail_note(inside_.size()));
  out.set("p99_ms.light", percentile(inside_, 99),
          "inside the hull, " + tail_note(inside_.size()));
  out.set("p50_ms.heavy", percentile(beyond_, 50),
          "beyond the hull, " + tail_note(beyond_.size()));
  out.set("p99_ms.heavy", percentile(beyond_, 99),
          "beyond the hull, " + tail_note(beyond_.size()));
  out.set("knee_qps", median(round_qps_),
          "one caller, back to back; median of " +
              std::to_string(round_qps_.size()) + " rounds");
}

}  // namespace bf::perfbench
