// The repo-invariant rules R1..R8 and R14 (see docs/STATIC_ANALYSIS.md).
//
// Every rule works on the token stream produced by lexer.cpp, scoped where
// needed by the function spans from function_scan.cpp. Pattern identifiers
// ("rand", "reinterpret_cast", ...) appear below only inside string
// literals, so tmemo_lint stays clean under its own rules.
#include "rule.hpp"

#include <algorithm>
#include <cctype>
#include <set>

namespace tmemo::lint {

namespace {

[[nodiscard]] std::string lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

[[nodiscard]] bool is_id(const Token& t, const char* text) noexcept {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

[[nodiscard]] bool is_punct(const Token& t, const char* text) noexcept {
  return t.kind == TokenKind::kPunct && t.text == text;
}

[[nodiscard]] bool next_is_punct(const std::vector<Token>& toks,
                                 std::size_t i, const char* text) noexcept {
  return i + 1 < toks.size() && is_punct(toks[i + 1], text);
}

[[nodiscard]] bool prev_is_punct(const std::vector<Token>& toks,
                                 std::size_t i, const char* text) noexcept {
  return i > 0 && is_punct(toks[i - 1], text);
}

[[nodiscard]] std::size_t match_forward(const std::vector<Token>& toks,
                                        std::size_t i, const char* open,
                                        const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (is_punct(toks[j], open)) ++depth;
    if (is_punct(toks[j], close)) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return toks.size();
}

void report(std::vector<Finding>& out, const std::string& rule,
            const SourceFile& file, const Token& at, std::string message) {
  out.push_back(
      Finding{rule, file.display_path, at.line, at.col, std::move(message)});
}

/// True when token range [begin, end] contains identifier `text`.
[[nodiscard]] bool range_has_id(const std::vector<Token>& toks,
                                std::size_t begin, std::size_t end,
                                const char* text) {
  for (std::size_t i = begin; i <= end && i < toks.size(); ++i) {
    if (is_id(toks[i], text)) return true;
  }
  return false;
}

// -- R1 ---------------------------------------------------------------------

class NondeterminismRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "nondeterminism"; }
  [[nodiscard]] std::string description() const override {
    return "R1: no wall-clock/OS-entropy nondeterminism sources in "
           "simulation or result paths";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    static const std::set<std::string> kRandCalls = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48"};
    static const std::set<std::string> kTimeCalls = {
        "time", "clock", "gettimeofday", "clock_gettime", "localtime",
        "gmtime", "mktime", "ftime"};
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (kRandCalls.count(t.text) != 0 && next_is_punct(toks, i, "(")) {
        report(out, id(), file, t,
               t.text + "() is an unseeded nondeterminism source; draw from "
                        "a seeded tmemo::Xorshift128 instead");
      } else if (t.text == "random_device") {
        report(out, id(), file, t,
               "std::random_device yields OS entropy; simulations must be "
               "reproducible from an explicit seed");
      } else if (kTimeCalls.count(t.text) != 0 &&
                 next_is_punct(toks, i, "(")) {
        report(out, id(), file, t,
               t.text + "() reads the wall clock; results must not depend "
                        "on when a run happens");
      } else if (t.text == "now" && next_is_punct(toks, i, "(") &&
                 (prev_is_punct(toks, i, "::") ||
                  prev_is_punct(toks, i, "."))) {
        const FunctionSpan* fn = enclosing_function(file.functions, i);
        const bool in_wall_timer =
            fn != nullptr && lower(fn->name).find("wall") != std::string::npos;
        if (!in_wall_timer) {
          report(out, id(), file, t,
                 "clock ::now() outside wall-clock timing code; confine "
                 "wall-clock reads to a function whose name contains 'wall' "
                 "(its value may feed wall_ms fields only)");
        }
      }
    }
  }
};

// -- R2 ---------------------------------------------------------------------

class UnorderedIterationRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override {
    return "unordered-iteration";
  }
  [[nodiscard]] std::string description() const override {
    return "R2: no iteration over unordered containers in files that write "
           "campaign/CSV/JSON results";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    if (!writes_results(toks)) return;

    static const std::set<std::string> kUnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};

    // Names of variables/parameters declared with an unordered type.
    std::set<std::string> tracked;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier ||
          kUnorderedTypes.count(toks[i].text) == 0) {
        continue;
      }
      std::size_t j = i + 1;
      if (j < toks.size() && is_punct(toks[j], "<")) {
        j = match_forward(toks, j, "<", ">") + 1;
      }
      while (j < toks.size() &&
             (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
              is_id(toks[j], "const"))) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
        tracked.insert(toks[j].text);
      }
    }

    static const std::set<std::string> kBeginCalls = {"begin", "cbegin",
                                                      "rbegin", "crbegin"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      // Range-for whose range expression names a tracked variable or an
      // unordered type directly.
      if (is_id(toks[i], "for") && next_is_punct(toks, i, "(")) {
        const std::size_t close = match_forward(toks, i + 1, "(", ")");
        std::size_t colon = toks.size();
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
          if (is_punct(toks[j], "(")) ++depth;
          if (is_punct(toks[j], ")")) --depth;
          if (depth == 1 && is_punct(toks[j], ":")) {
            colon = j;
            break;
          }
        }
        if (colon >= close) continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (toks[j].kind != TokenKind::kIdentifier) continue;
          if (tracked.count(toks[j].text) != 0 ||
              kUnorderedTypes.count(toks[j].text) != 0) {
            report(out, id(), file, toks[i],
                   "range-for over unordered container '" + toks[j].text +
                       "' in a result-writing file; iteration order is "
                       "unspecified — use std::map or a sorted vector");
            break;
          }
        }
      }
      // Explicit iterator walk: tracked.begin() and friends.
      if (toks[i].kind == TokenKind::kIdentifier &&
          tracked.count(toks[i].text) != 0 && next_is_punct(toks, i, ".") &&
          i + 2 < toks.size() &&
          toks[i + 2].kind == TokenKind::kIdentifier &&
          kBeginCalls.count(toks[i + 2].text) != 0 &&
          next_is_punct(toks, i + 2, "(")) {
        report(out, id(), file, toks[i],
               "iterator walk over unordered container '" + toks[i].text +
                   "' in a result-writing file; iteration order is "
                   "unspecified — use std::map or a sorted vector");
      }
    }
  }

 private:
  /// A file is a result writer when any identifier mentions csv/json —
  /// writers, escapers and schema emitters all do.
  [[nodiscard]] static bool writes_results(const std::vector<Token>& toks) {
    for (const Token& t : toks) {
      if (t.kind != TokenKind::kIdentifier) continue;
      const std::string l = lower(t.text);
      if (l.find("csv") != std::string::npos ||
          l.find("json") != std::string::npos) {
        return true;
      }
    }
    return false;
  }
};

// -- R3 ---------------------------------------------------------------------

class TypePunningRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "type-punning"; }
  [[nodiscard]] std::string description() const override {
    return "R3: no reinterpret_cast type punning outside the write_pod/"
           "read_pod serialization helpers";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is_id(toks[i], "reinterpret_cast")) continue;
      const FunctionSpan* fn = enclosing_function(file.functions, i);
      if (fn != nullptr && (fn->name == "write_pod" || fn->name == "read_pod")) {
        continue;  // the whitelisted serialization pair (src/trace/trace.cpp)
      }
      report(out, id(), file, toks[i],
             "reinterpret_cast type punning; use tmemo::float_to_bits/"
             "std::bit_cast for value punning or the write_pod/read_pod "
             "helpers for binary I/O");
    }
  }
};

// -- R4 ---------------------------------------------------------------------

class EnergyPairingRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "energy-pairing"; }
  [[nodiscard]] std::string description() const override {
    return "R4: every execute/issue path that computes an FP result must "
           "charge the EnergyAccumulator (directly or via ExecutionRecord)";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    const std::string& p = file.display_path;
    const bool in_scope = p.find("src/fpu/") != std::string::npos ||
                          p.find("src/gpu/") != std::string::npos ||
                          p.find("src/memo/") != std::string::npos;
    if (!in_scope) return;
    for (const FunctionSpan& fn : file.functions) {
      const bool execish =
          fn.name.rfind("execute", 0) == 0 || fn.name == "issue";
      if (!execish) continue;
      if (!range_has_id(file.tokens, fn.body_begin, fn.body_end,
                        "evaluate_fp_op")) {
        continue;
      }
      const bool charges =
          range_has_id(file.tokens, fn.body_begin, fn.body_end, "consume") ||
          range_has_id(file.tokens, fn.body_begin, fn.body_end,
                       "ExecutionRecord") ||
          range_has_id(file.tokens, fn.body_begin, fn.body_end,
                       "EnergyAccumulator") ||
          range_has_id(file.tokens, fn.body_begin, fn.body_end, "charge");
      if (!charges) {
        out.push_back(Finding{
            id(), file.display_path, fn.name_line, fn.name_col,
            "'" + fn.name +
                "' computes an FP result (evaluate_fp_op) but never reaches "
                "the EnergyAccumulator — emit an ExecutionRecord to a sink "
                "or charge() the accumulator"});
      }
    }
  }
};

// -- R6 ---------------------------------------------------------------------

class RngSeedRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "rng-seed"; }
  [[nodiscard]] std::string description() const override {
    return "R6: every RNG construction must take an explicit seed "
           "expression";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    static const std::set<std::string> kRngTypes = {
        "Xorshift128",   "mt19937",      "mt19937_64",
        "minstd_rand",   "minstd_rand0", "default_random_engine",
        "ranlux24_base", "ranlux48_base"};
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier ||
          kRngTypes.count(toks[i].text) == 0) {
        continue;
      }
      // Skip the type's own definition and qualified mentions.
      if (i > 0 && (is_id(toks[i - 1], "class") ||
                    is_id(toks[i - 1], "struct") ||
                    is_id(toks[i - 1], "explicit"))) {
        continue;
      }
      if (next_is_punct(toks, i, "::")) continue;
      const std::string& type = toks[i].text;
      std::size_t j = i + 1;
      // `Type()` / `Type{}` temporaries.
      if (j < toks.size() &&
          ((is_punct(toks[j], "(") && match_forward(toks, j, "(", ")") == j + 1) ||
           (is_punct(toks[j], "{") && match_forward(toks, j, "{", "}") == j + 1))) {
        report(out, id(), file, toks[i],
               "'" + type + "' constructed without a seed; pass an explicit "
                            "seed expression so runs are reproducible");
        continue;
      }
      // `Type name ...` declarations.
      if (j >= toks.size() || toks[j].kind != TokenKind::kIdentifier) continue;
      const std::size_t k = j + 1;
      if (k >= toks.size()) continue;
      const bool empty_init =
          (is_punct(toks[k], "(") && match_forward(toks, k, "(", ")") == k + 1) ||
          (is_punct(toks[k], "{") && match_forward(toks, k, "{", "}") == k + 1);
      const bool bare = is_punct(toks[k], ";");
      if (empty_init) {
        report(out, id(), file, toks[j],
               "'" + toks[j].text + "' (" + type +
                   ") constructed without a seed; pass an explicit seed "
                   "expression so runs are reproducible");
      } else if (bare && enclosing_function(file.functions, i) != nullptr) {
        // A bare declaration at class scope is a member the constructor
        // must seed (the compiler enforces that); a bare local is a
        // default-seeded stream.
        report(out, id(), file, toks[j],
               "local '" + toks[j].text + "' (" + type +
                   ") is default-constructed; pass an explicit seed "
                   "expression so runs are reproducible");
      }
    }
  }
};

// -- R7 ---------------------------------------------------------------------

class TelemetryRegistryRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override {
    return "telemetry-registry";
  }
  [[nodiscard]] std::string description() const override {
    return "R7: telemetry instruments must be obtained from a "
           "MetricRegistry (counter()/gauge()/histogram()), never "
           "constructed directly";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    // The registry implementation is the one legitimate construction site.
    if (file.display_path.find("src/telemetry/") != std::string::npos) return;
    const auto& toks = file.tokens;
    if (!uses_telemetry(toks)) return;

    static const std::set<std::string> kInstruments = {"Counter", "Gauge",
                                                       "Histogram"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier ||
          kInstruments.count(toks[i].text) == 0) {
        continue;
      }
      // Skip definitions of unrelated local types with the same name and
      // nested-name mentions of the type itself.
      if (i > 0 && (is_id(toks[i - 1], "class") ||
                    is_id(toks[i - 1], "struct") ||
                    is_id(toks[i - 1], "friend") ||
                    is_id(toks[i - 1], "explicit"))) {
        continue;
      }
      if (next_is_punct(toks, i, "::")) continue;
      const std::string& type = toks[i].text;
      // Heap construction: `new Counter`, `make_unique<Counter>(...)`.
      if (i > 0 && is_id(toks[i - 1], "new")) {
        report_direct(out, file, toks[i], type);
        continue;
      }
      if (i > 1 && is_punct(toks[i - 1], "<") &&
          (is_id(toks[i - 2], "make_unique") ||
           is_id(toks[i - 2], "make_shared"))) {
        report_direct(out, file, toks[i], type);
        continue;
      }
      // Temporaries `Counter()` / `Counter{}`.
      if (next_is_punct(toks, i, "(") || next_is_punct(toks, i, "{")) {
        report_direct(out, file, toks[i], type);
        continue;
      }
      // Value declarations `Counter c ...` (references and pointers bind to
      // registry-owned instruments and are fine: the next token is & or *).
      if (i + 1 < toks.size() &&
          toks[i + 1].kind == TokenKind::kIdentifier) {
        report_direct(out, file, toks[i], type);
      }
    }
  }

 private:
  /// The rule only engages in files that talk to the telemetry subsystem:
  /// a `telemetry` namespace token or a telemetry/ include path. Unrelated
  /// local helper types that happen to be called Counter stay untouched.
  [[nodiscard]] static bool uses_telemetry(const std::vector<Token>& toks) {
    for (const Token& t : toks) {
      if (t.kind == TokenKind::kIdentifier && t.text == "telemetry") {
        return true;
      }
      if (t.kind == TokenKind::kString &&
          t.text.find("telemetry/") != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  static void report_direct(std::vector<Finding>& out, const SourceFile& file,
                            const Token& at, const std::string& type) {
    report(out, "telemetry-registry", file, at,
           "'" + type +
               "' constructed outside MetricRegistry; call "
               "registry.counter()/gauge()/histogram() so the instrument is "
               "named, merged and exported with the run's snapshot");
  }
};

// -- R8 ---------------------------------------------------------------------

class InjectionSeedingRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override {
    return "injection-seeding";
  }
  [[nodiscard]] std::string description() const override {
    return "R8: fault-injector RNG streams must derive from a device or "
           "campaign seed (an argument mentioning 'seed'), never from "
           "literals or ad-hoc entropy";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    if (!engages(file)) return;
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is_id(toks[i], "Xorshift128")) continue;
      // Skip the type's own definition and qualified mentions.
      if (i > 0 && (is_id(toks[i - 1], "class") ||
                    is_id(toks[i - 1], "struct") ||
                    is_id(toks[i - 1], "explicit"))) {
        continue;
      }
      if (next_is_punct(toks, i, "::")) continue;
      // Locate the construction argument list: `Xorshift128(args)` /
      // `Xorshift128{args}` temporaries, or `Xorshift128 name(args)` /
      // `Xorshift128 name{args}` declarations. Bare declarations and empty
      // argument lists are R6's territory.
      std::size_t open = toks.size();
      std::size_t name = i;
      if (next_is_punct(toks, i, "(") || next_is_punct(toks, i, "{")) {
        open = i + 1;
      } else if (i + 2 < toks.size() &&
                 toks[i + 1].kind == TokenKind::kIdentifier &&
                 (is_punct(toks[i + 2], "(") || is_punct(toks[i + 2], "{"))) {
        open = i + 2;
        name = i + 1;
      } else {
        continue;
      }
      const bool paren = is_punct(toks[open], "(");
      const std::size_t close = match_forward(toks, open, paren ? "(" : "{",
                                              paren ? ")" : "}");
      if (close >= toks.size() || close == open + 1) continue;
      bool seeded = false;
      for (std::size_t j = open + 1; j < close; ++j) {
        if (toks[j].kind == TokenKind::kIdentifier &&
            lower(toks[j].text).find("seed") != std::string::npos) {
          seeded = true;
          break;
        }
      }
      if (!seeded) {
        report(out, id(), file, toks[name],
               "injector RNG constructed without a derived seed; derive the "
               "stream from the device or campaign seed (e.g. "
               "derive_fault_seed(eds_seed, salt)) so injected faults "
               "replay deterministically");
      }
    }
  }

 private:
  /// The rule engages only on injection code — files under src/inject/ or
  /// files that mention an *Injector type — so ordinary simulation code
  /// keeps R6 as its only seeding constraint.
  [[nodiscard]] static bool engages(const SourceFile& file) {
    if (file.display_path.find("src/inject/") != std::string::npos) {
      return true;
    }
    for (const Token& t : file.tokens) {
      if (t.kind == TokenKind::kIdentifier &&
          t.text.find("Injector") != std::string::npos) {
        return true;
      }
    }
    return false;
  }
};

// -- R14 --------------------------------------------------------------------

class ArtifactDurabilityRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override {
    return "artifact-durability";
  }
  [[nodiscard]] std::string description() const override {
    return "R14: final artifacts must be committed through "
           "io::AtomicFileWriter (temp, fsync, rename), never written in "
           "place with a bare ofstream";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    // src/io/ is the one layer allowed to touch raw file primitives — it
    // is where the atomic-commit discipline is implemented.
    if (file.display_path.find("src/io/") != std::string::npos) return;
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is_id(toks[i], "ofstream")) continue;
      // Skip definitions of unrelated local types with the same name and
      // nested-name mentions (ofstream::traits_type and friends).
      if (i > 0 && (is_id(toks[i - 1], "class") ||
                    is_id(toks[i - 1], "struct"))) {
        continue;
      }
      if (next_is_punct(toks, i, "::")) continue;
      report(out, id(), file, toks[i],
             "ofstream writes land in place — a crash or full disk leaves "
             "a torn file at the final path; commit the artifact through "
             "io::AtomicFileWriter (temp, fsync, rename), or suppress for "
             "non-artifact scratch output");
    }
  }
};

} // namespace

std::vector<std::unique_ptr<Rule>> make_default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<NondeterminismRule>());
  rules.push_back(std::make_unique<UnorderedIterationRule>());
  rules.push_back(std::make_unique<TypePunningRule>());
  rules.push_back(std::make_unique<EnergyPairingRule>());
  rules.push_back(std::make_unique<RngSeedRule>());
  rules.push_back(std::make_unique<TelemetryRegistryRule>());
  rules.push_back(std::make_unique<InjectionSeedingRule>());
  append_index_rules(rules);
  rules.push_back(std::make_unique<ArtifactDurabilityRule>());
  return rules;
}

} // namespace tmemo::lint
