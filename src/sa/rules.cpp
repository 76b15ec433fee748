#include "sa/rules.hpp"

#include <set>
#include <string>

namespace bf::sa {
namespace {

// Documentation order: the migrated legacy nine, then the include-graph
// family, then the concurrency family, then the meta rules the
// framework itself emits.
const std::vector<RuleSpec> kRegistry = {
    {"pragma-once", Severity::kError, "headers must contain #pragma once"},
    {"raw-new", Severity::kError,
     "raw new outside RAII (use std::make_unique / containers)"},
    {"raw-delete", Severity::kError,
     "raw delete (owning types must use RAII; = delete is fine)"},
    {"no-rand", Severity::kError,
     "rand()/srand()/drand48()/random_shuffle are unseeded (use bf::Rng)"},
    {"float-literal", Severity::kError,
     "float literals (1.0f) in double-precision statistical code"},
    {"unchecked-parse", Severity::kError,
     "atof/atoi/stod/... swallow trailing garbage (use bf::parse_double)"},
    {"atomic-write", Severity::kError,
     "direct ofstream in the repository layer tears entries on crash "
     "(use bf::atomic_write_file)"},
    {"guarded-predict", Severity::kError,
     "direct model query in core/power/tools bypasses the guard layer"},
    {"flat-predict", Severity::kError,
     "serve-layer per-row tree walk bypasses the flat inference engine"},
    {"registry-swap", Severity::kError,
     "serve-layer raw model pointer can dangle across a hot-reload swap "
     "(pin the generation with a shared_ptr)"},
    {"artifact-version", Severity::kError,
     "serialized-struct reader must check the format version first"},
    {"include-cycle", Severity::kError,
     "#include cycle between project headers"},
    {"layer-dag", Severity::kError,
     "#include edge violates the module layer DAG"},
    {"duplicate-include", Severity::kError,
     "the same project header is included twice in one file"},
    {"capture-escape", Severity::kError,
     "by-reference lambda capture escapes into ThreadPool::submit / "
     "std::thread"},
    {"mutable-global", Severity::kError,
     "mutable non-const namespace-scope variable (data race magnet)"},
    {"lock-order", Severity::kError,
     "inconsistent lock-acquisition order across a mutex pair in one TU"},
    {"unused-suppression", Severity::kError,
     "a bf-lint: allow(...) comment that silences nothing"},
    {"stale-baseline", Severity::kError,
     "a baseline entry that matches no current finding"},
    {"baseline-format", Severity::kError,
     "a baseline entry without a justification comment"},
    {"io", Severity::kError, "a file under analysis could not be read"},
};

}  // namespace

const std::vector<RuleSpec>& rule_registry() { return kRegistry; }

bool is_known_rule(const std::string& id) {
  for (const auto& r : kRegistry) {
    if (id == r.id) return true;
  }
  return false;
}

Severity rule_severity(const std::string& id) {
  for (const auto& r : kRegistry) {
    if (id == r.id) return r.severity;
  }
  return Severity::kError;
}

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

const std::set<std::string>& rand_tokens() {
  static const std::set<std::string> kSet = {"rand", "srand", "drand48",
                                             "random_shuffle"};
  return kSet;
}

const std::set<std::string>& parse_tokens() {
  static const std::set<std::string> kSet = {"atof",   "atoi", "atol",
                                             "strtod", "strtof", "stod",
                                             "stof",   "stoi",   "stol"};
  return kSet;
}

}  // namespace

void run_token_rules(const LexedFile& file, const std::string& rel,
                     std::vector<Finding>& out) {
  const auto report = [&](int line, const char* rule, std::string message,
                          std::string detail = "") {
    Finding f;
    f.file = rel;
    f.line = line;
    f.rule = rule;
    f.severity = rule_severity(rule);
    f.message = std::move(message);
    f.detail = std::move(detail);
    out.push_back(std::move(f));
  };

  const bool is_header = ends_with(rel, ".hpp");
  const bool is_source = ends_with(rel, ".cpp");

  const std::vector<Token>& toks = file.tokens;

  if (is_header) {
    bool has_pragma_once = false;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text == "#" && toks[i].at_line_start &&
          toks[i + 1].text == "pragma" && toks[i + 2].text == "once") {
        has_pragma_once = true;
        break;
      }
    }
    if (!has_pragma_once) {
      report(1, "pragma-once", "header is missing #pragma once");
    }
  }

  // The run repository must never be written through a bare ofstream: a
  // crash mid-write leaves a torn entry behind. Everything under the
  // profiling layer goes through bf::atomic_write_file instead.
  const std::string filename =
      rel.substr(rel.find_last_of('/') == std::string::npos
                     ? 0
                     : rel.find_last_of('/') + 1);
  const bool repository_layer =
      rel.find("/profiling/") != std::string::npos ||
      rel.find("src/profiling/") == 0 ||
      filename.find("repository") != std::string::npos;

  // Prediction consumers (the core pipeline and the CLI tools) must go
  // through the guard layer's supervised entry points; the few audited
  // raw-query exits carry explicit allow() suppressions.
  const bool guard_scope = rel.find("/core/") != std::string::npos ||
                           rel.find("src/core/") == 0 ||
                           rel.find("/power/") != std::string::npos ||
                           rel.find("src/power/") == 0 ||
                           rel.find("/tools/") != std::string::npos ||
                           rel.find("tools/") == 0;

  // The serving hot path predicts through the frozen flat engine
  // (ml::FlatForest via the bundle's predictor); a pointer-tree
  // predict_row in serve code reintroduces the per-node cache-miss walk
  // the freeze exists to eliminate.
  const bool serve_scope = rel.find("/serve/") != std::string::npos ||
                           rel.find("src/serve/") == 0;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kNumber) {
      if (is_float_literal(t.text)) {
        report(t.line, "float-literal",
               "float literal '" + t.text +
                   "' in double-precision code (drop the f suffix)");
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "new") {
      report(t.line, "raw-new", "raw new (use std::make_unique / containers)");
    } else if (t.text == "delete") {
      const bool deleted_member = i > 0 && toks[i - 1].text == "=";
      if (!deleted_member) {
        report(t.line, "raw-delete", "raw delete (owning types must use RAII)");
      }
    } else if (rand_tokens().count(t.text) != 0) {
      report(t.line, "no-rand",
             "'" + t.text + "' is unseeded/non-reproducible (use bf::Rng)");
    } else if (parse_tokens().count(t.text) != 0) {
      report(t.line, "unchecked-parse",
             "'" + t.text +
                 "' swallows trailing garbage (use bf::parse_double / "
                 "bf::parse_int / CsvTable)");
    } else if (repository_layer && t.text == "ofstream") {
      report(t.line, "atomic-write",
             "direct ofstream write in the repository layer can tear "
             "entries on crash (use bf::atomic_write_file)");
    } else if (serve_scope && t.text == "predict_row") {
      report(t.line, "flat-predict",
             "per-row tree walk in the serving layer (route predictions "
             "through the frozen ml::FlatForest engine)");
    } else if (serve_scope &&
               (t.text == "ModelBundle" || t.text == "LoadedModel" ||
                t.text == "BundleModel") &&
               i + 1 < toks.size() && toks[i + 1].text == "*") {
      // Hot reload swaps generations under readers; a raw pointer held
      // across a batch boundary dangles the moment the old generation's
      // last shared_ptr drops. Only shared_ptr pins are allowed.
      report(t.line, "registry-swap",
             "raw " + t.text +
                 "* in the serving layer can dangle across a hot-reload "
                 "swap (pin the generation with "
                 "std::shared_ptr<const LoadedModel>)");
    } else if (guard_scope && t.text == "predict_row") {
      report(t.line, "guarded-predict",
             "direct per-row model query bypasses the guard layer (use "
             "ProblemScalingPredictor::predict_guarded / "
             "CounterModels::predict_kind)");
    } else if ((guard_scope || serve_scope) &&
               (t.text == "predict_time" || t.text == "predict_power") &&
               i >= 1 &&
               (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      // The legacy unguarded scalar entry points: a member call drops
      // hull checks, physical caps and the A/B/C grade. Declarations and
      // definitions (no member-access prefix) stay clean; the deliberate
      // --no-guard exits carry allow() suppressions.
      report(t.line, "guarded-predict",
             "unguarded '" + t.text +
                 "' call drops hull checks, physical caps and grades "
                 "(use predict_guarded)");
    } else if (is_source && t.text == "load" && i + 1 < toks.size() &&
               toks[i + 1].text == "(") {
      // A reader definition: `load(` with an istream parameter close by
      // (declarations live in headers, call sites pass a value, so only
      // .cpp definitions match). The function must consult the format
      // version before parsing any field.
      bool is_reader = false;
      for (std::size_t j = i + 2; j < toks.size() && j <= i + 6; ++j) {
        if (toks[j].text == "istream") {
          is_reader = true;
          break;
        }
      }
      if (is_reader) {
        bool versioned = false;
        for (std::size_t j = i; j < toks.size() && j <= i + 200; ++j) {
          if (toks[j].text == "read_format_version" ||
              toks[j].text == "format_version") {
            versioned = true;
            break;
          }
        }
        if (!versioned) {
          report(t.line, "artifact-version",
                 "serialized-struct reader does not check the format "
                 "version before parsing (call bf::read_format_version "
                 "first)");
        }
      }
    }
  }
}

}  // namespace bf::sa
