// The cross-file rules R9..R13 (see docs/STATIC_ANALYSIS.md).
//
// Unlike R1-R8 these consume the phase-1 RepoIndex: wire-struct layouts
// (R9), call-site/function context (R10), macro argument spans (R11),
// lambda capture lists (R12) and declared-type tracking (R13). Pattern
// identifiers appear below only inside string literals, so tmemo_lint
// stays clean under its own rules.
#include <algorithm>
#include <set>

#include "rule.hpp"

namespace tmemo::lint {

namespace {

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
            const SourceFile& file, int line, int col, std::string message) {
  out.push_back(Finding{rule, file.display_path, line, col,
                        std::move(message)});
}

// -- R9 ---------------------------------------------------------------------

class PodProtocolRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "pod-protocol"; }
  [[nodiscard]] std::string description() const override {
    return "R9: structs crossing the write_pod/read_pod wire must be "
           "trivially-copyable-shaped, fixed-width, padding-free (when "
           "written whole) and static_assert-guarded";
  }

  void check(const SourceFile& file, const RepoIndex& repo,
             std::vector<Finding>& out) const override {
    for (const StructLayout& s : file.index.structs) {
      const auto use_it = repo.wire_use.find(s.name);
      if (use_it == repo.wire_use.end() ||
          use_it->second == WireUse::kNone) {
        continue;
      }
      const bool whole = use_it->second == WireUse::kWhole;
      const char* how = whole ? "written whole" : "serialized field-wise";

      if (!s.plain) {
        report(out, id(), file, s.line, s.col,
               "'" + s.name + "' crosses the pod_io wire (" + how +
                   ") but has base classes or virtual members; wire structs "
                   "must be standalone aggregates");
        continue;
      }
      bool charted = true;
      for (const StructField& f : s.fields) {
        if (f.size == 0) {
          report(out, id(), file, s.line, s.col,
                 "'" + s.name + "." + f.name + "' has type '" + f.type +
                     "' whose wire layout cannot be charted; wire structs "
                     "may only hold fixed-width scalars and arrays of them");
          charted = false;
        } else if (!f.fixed_width) {
          report(out, id(), file, s.line, s.col,
                 "'" + s.name + "." + f.name + "' has ABI-dependent width "
                     "('" + f.type + "'); use a <cstdint> fixed-width type "
                     "so both ends of the pipe agree on the frame layout");
        }
      }
      if (whole && s.computable && s.padding > 0) {
        report(out, id(), file, s.line, s.col,
               "'" + s.name + "' is written whole through write_pod but its "
                   "natural layout has " + std::to_string(s.padding) +
                   " padding byte(s); reorder fields or add explicit "
                   "reserved fields so every byte on the wire is named");
      }

      const auto guard_it = repo.assert_guards.find(s.name);
      const bool has_tc =
          guard_it != repo.assert_guards.end() &&
          guard_it->second.trivially_copyable;
      const bool has_size =
          guard_it != repo.assert_guards.end() &&
          guard_it->second.sizeof_checked;
      if (!has_tc || (whole && !has_size)) {
        std::string expect = "static_assert(std::is_trivially_copyable_v<" +
                             s.name + ">";
        if (whole || has_size || s.computable) {
          expect += " && sizeof(" + s.name + ") == " +
                    (s.computable ? std::to_string(s.size)
                                  : std::string("<expected>"));
        }
        expect += ", \"pod_io wire layout\");";
        report(out, id(), file, s.line, s.col,
               "'" + s.name + "' crosses the pod_io wire (" + how +
                   ") without a layout guard; add:  " + expect);
      }
      (void)charted;
    }
  }
};

// -- R10 --------------------------------------------------------------------

class SyscallDisciplineRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override {
    return "syscall-discipline";
  }
  [[nodiscard]] std::string description() const override {
    return "R10: supervisor and fabric syscall results must be checked, "
           "with EINTR retry on interruptible calls "
           "(src/sim/worker_proc.*, src/net/)";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    const bool engaged =
        file.display_path.find("worker_proc") != std::string::npos ||
        file.display_path.find("src/net/") != std::string::npos;
    if (!engaged) return;
    static const std::set<std::string> kGuarded = {
        "fork",        "poll",        "read",       "write",  "waitpid",
        "pipe",        "fcntl",       "socket",     "bind",   "listen",
        "accept",      "connect",     "send",       "recv",   "setsockopt",
        "getsockname", "getaddrinfo", "getsockopt", "shutdown",
        "socketpair"};
    static const std::set<std::string> kInterruptible = {
        "poll", "read", "write", "waitpid", "accept", "connect",
        "send", "recv"};
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      // Global-qualified call `::name(` whose `::` starts the qualification
      // (previous token is not an identifier, so `std::` chains skip).
      if (!is_punct(toks[i], "::")) continue;
      if (i > 0 && toks[i - 1].kind == TokenKind::kIdentifier) continue;
      const Token& callee = toks[i + 1];
      if (callee.kind != TokenKind::kIdentifier ||
          kGuarded.count(callee.text) == 0 || !next_is_punct(toks, i + 1, "(")) {
        continue;
      }
      const bool discarded =
          i == 0 || is_punct(toks[i - 1], ";") || is_punct(toks[i - 1], "{") ||
          is_punct(toks[i - 1], "}");
      if (discarded) {
        report(out, id(), file, callee.line, callee.col,
               "result of ::" + callee.text + "() is discarded; every "
                   "supervisor syscall result must be checked (a failed " +
                   callee.text + " here silently corrupts worker accounting)");
      }
      if (kInterruptible.count(callee.text) != 0) {
        const FunctionSpan* fn = enclosing_function(file.functions, i + 1);
        bool has_eintr = false;
        if (fn != nullptr) {
          for (std::size_t j = fn->body_begin;
               j <= fn->body_end && j < toks.size(); ++j) {
            if (toks[j].kind == TokenKind::kIdentifier &&
                toks[j].text == "EINTR") {
              has_eintr = true;
              break;
            }
          }
        }
        if (!has_eintr) {
          report(out, id(), file, callee.line, callee.col,
                 "::" + callee.text + "() is interruptible but the enclosing "
                     "function never consults EINTR; retry the call when "
                     "errno == EINTR or a stray signal kills the campaign");
        }
      }
    }
  }
};

// -- R11 --------------------------------------------------------------------

class ProbeCostRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "probe-cost"; }
  [[nodiscard]] std::string description() const override {
    return "R11: no allocation, I/O or mutation inside TMEMO_TELEM argument "
           "lists (probe arguments must stay zero-cost when telemetry is "
           "compiled out)";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    static const std::set<std::string> kBannedCalls = {
        "malloc",        "calloc",      "realloc",   "strdup",
        "printf",        "fprintf",     "sprintf",   "snprintf",
        "puts",          "fputs",       "fopen",     "fwrite",
        "fread",         "to_string",   "str",       "make_unique",
        "make_shared",   "string",      "vector",    "ostringstream",
        "stringstream"};
    static const std::set<std::string> kBannedStreams = {"cout", "cerr",
                                                         "clog", "endl"};
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!(toks[i].kind == TokenKind::kIdentifier &&
            toks[i].text == "TMEMO_TELEM") ||
          !next_is_punct(toks, i, "(")) {
        continue;
      }
      const std::size_t close = match_forward(toks, i + 1, "(", ")");
      for (std::size_t j = i + 2; j < close; ++j) {
        const Token& t = toks[j];
        if (t.kind == TokenKind::kIdentifier && t.text == "new") {
          report(out, id(), file, t.line, t.col,
                 "heap allocation inside a probe argument list; probe "
                 "arguments are evaluated even when the sink drops the "
                 "event — hoist the allocation out or drop it");
          continue;
        }
        if (t.kind == TokenKind::kIdentifier &&
            kBannedStreams.count(t.text) != 0) {
          report(out, id(), file, t.line, t.col,
                 "stream I/O ('" + t.text + "') inside a probe argument "
                     "list; probes must not perform I/O");
          continue;
        }
        if (t.kind == TokenKind::kIdentifier &&
            kBannedCalls.count(t.text) != 0 &&
            (next_is_punct(toks, j, "(") || next_is_punct(toks, j, "{"))) {
          report(out, id(), file, t.line, t.col,
                 "'" + t.text + "' call inside a probe argument list "
                     "allocates or formats; probe arguments must be "
                     "casts, loads and arithmetic only");
          continue;
        }
        if (is_punct(t, "+") && next_is_punct(toks, j, "+")) {
          report(out, id(), file, t.line, t.col,
                 "increment inside a probe argument list mutates state; the "
                 "side effect runs even when telemetry is disabled");
          ++j;
        } else if (is_punct(t, "-") && next_is_punct(toks, j, "-")) {
          report(out, id(), file, t.line, t.col,
                 "decrement inside a probe argument list mutates state; the "
                 "side effect runs even when telemetry is disabled");
          ++j;
        }
      }
      i = close;
    }
  }
};

// -- R12 --------------------------------------------------------------------

class CampaignDeterminismRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override {
    return "campaign-determinism";
  }
  [[nodiscard]] std::string description() const override {
    return "R12: job lambdas handed to CampaignEngine workers must not "
           "mutate by-reference-captured shared state without an "
           "atomic/mutex guard in the same block";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    bool engages = false;
    for (const Token& t : file.tokens) {
      if (t.kind == TokenKind::kIdentifier && t.text == "CampaignEngine") {
        engages = true;
        break;
      }
    }
    if (!engages) return;

    for (const LambdaInfo& lam : file.index.lambdas) {
      if (!is_job_lambda(file.tokens, lam)) continue;
      check_lambda(file, lam, out);
    }
  }

 private:
  [[nodiscard]] static const std::set<std::string>& sink_names() {
    static const std::set<std::string> kSinks = {
        "thread",  "async",   "emplace_back", "push_back", "submit",
        "enqueue", "run_jobs", "for_each",    "dispatch"};
    return kSinks;
  }

  /// Callee of the call expression that `arg_pos` is a direct argument of,
  /// or "" when `arg_pos` is not in an argument position.
  [[nodiscard]] static std::string enclosing_callee(
      const std::vector<Token>& toks, std::size_t arg_pos) {
    if (arg_pos == 0) return "";
    const Token& prev = toks[arg_pos - 1];
    if (!is_punct(prev, "(") && !is_punct(prev, ",")) return "";
    int depth = 0;
    for (std::size_t j = arg_pos; j-- > 0;) {
      if (is_punct(toks[j], ")")) {
        ++depth;
        continue;
      }
      if (is_punct(toks[j], "(")) {
        if (depth == 0) {
          if (j > 0 && toks[j - 1].kind == TokenKind::kIdentifier) {
            return toks[j - 1].text;
          }
          return "";
        }
        --depth;
        continue;
      }
      if (depth == 0 && (is_punct(toks[j], ";") || is_punct(toks[j], "{") ||
                         is_punct(toks[j], "}"))) {
        return "";
      }
    }
    return "";
  }

  /// A lambda is a "job lambda" when it (or the variable it is bound to) is
  /// handed to a worker-spawn/queue sink.
  [[nodiscard]] static bool is_job_lambda(const std::vector<Token>& toks,
                                          const LambdaInfo& lam) {
    if (sink_names().count(enclosing_callee(toks, lam.begin)) != 0) {
      return true;
    }
    if (lam.bound_name.empty()) return false;
    for (std::size_t i = lam.body_end; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier ||
          toks[i].text != lam.bound_name) {
        continue;
      }
      if (sink_names().count(enclosing_callee(toks, i)) != 0) return true;
    }
    return false;
  }

  [[nodiscard]] static bool is_mutating_method(const std::string& m) {
    static const std::set<std::string> kMutators = {
        "push_back", "emplace_back", "pop_back", "append", "insert",
        "erase",     "clear",        "resize",   "assign", "reserve",
        "write",     "open",         "reset",    "emplace"};
    return kMutators.count(m) != 0;
  }

  [[nodiscard]] static bool is_atomic_method(const std::string& m) {
    static const std::set<std::string> kAtomics = {
        "fetch_add", "fetch_sub", "fetch_or", "fetch_and",
        "exchange",  "compare_exchange_weak", "compare_exchange_strong",
        "store",     "load",      "notify_all", "notify_one"};
    return kAtomics.count(m) != 0;
  }

  /// True when a synchronization token appears between the innermost `{`
  /// enclosing `pos` (inside the lambda body) and `pos` itself — the
  /// "guard in the same block" escape hatch.
  [[nodiscard]] static bool guarded_in_block(const std::vector<Token>& toks,
                                             const LambdaInfo& lam,
                                             std::size_t pos) {
    static const std::set<std::string> kSync = {
        "lock_guard", "unique_lock", "scoped_lock",
        "mutex",      "atomic",      "condition_variable"};
    std::size_t block_open = lam.body_begin;
    int depth = 0;
    for (std::size_t j = pos; j-- > lam.body_begin;) {
      if (is_punct(toks[j], "}")) {
        ++depth;
        continue;
      }
      if (is_punct(toks[j], "{")) {
        if (depth == 0) {
          block_open = j;
          break;
        }
        --depth;
      }
    }
    for (std::size_t j = block_open; j < pos; ++j) {
      if (toks[j].kind == TokenKind::kIdentifier &&
          kSync.count(toks[j].text) != 0) {
        return true;
      }
    }
    return false;
  }

  /// True when `name` is declared inside the lambda itself (parameter or
  /// body-local): some occurrence in (lam.begin, pos] directly follows a
  /// type-ish token.
  [[nodiscard]] static bool declared_in_lambda(const std::vector<Token>& toks,
                                               const LambdaInfo& lam,
                                               std::size_t pos,
                                               const std::string& name) {
    static const std::set<std::string> kNotTypes = {"return", "case", "goto",
                                                    "new",    "delete"};
    for (std::size_t j = lam.begin + 1; j <= pos && j < toks.size(); ++j) {
      if (toks[j].kind != TokenKind::kIdentifier || toks[j].text != name ||
          j == 0) {
        continue;
      }
      const Token& prev = toks[j - 1];
      if (prev.kind == TokenKind::kIdentifier &&
          kNotTypes.count(prev.text) == 0) {
        return true;
      }
      if (is_punct(prev, "&") || is_punct(prev, "*") || is_punct(prev, ">")) {
        return true;
      }
    }
    return false;
  }

  void check_lambda(const SourceFile& file, const LambdaInfo& lam,
                    std::vector<Finding>& out) const {
    const auto& toks = file.tokens;
    std::set<std::string> by_ref;
    for (const LambdaCapture& cap : lam.captures) {
      if (cap.by_ref) by_ref.insert(cap.name);
    }

    std::set<std::string> flagged;  // one finding per name per lambda
    for (std::size_t i = lam.body_begin + 1; i < lam.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier || flagged.count(t.text) != 0) {
        continue;
      }
      // `x.field = ...` mutates x, not `field`; qualified names are not
      // captures either.
      if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "::"))) {
        continue;
      }
      if (i > 1 && is_punct(toks[i - 1], ">") && is_punct(toks[i - 2], "-")) {
        continue;
      }
      const bool explicit_ref = by_ref.count(t.text) != 0;
      if (!explicit_ref && !lam.default_ref) continue;

      std::size_t mut = mutation_at(toks, i, lam.body_end);
      if (mut == 0) continue;
      if (!explicit_ref) {
        // Default [&] capture: only names that exist before the lambda and
        // are not redeclared inside it refer to shared state.
        if (declared_in_lambda(toks, lam, i, t.text)) continue;
        bool seen_before = false;
        for (std::size_t j = 0; j < lam.begin; ++j) {
          if (toks[j].kind == TokenKind::kIdentifier &&
              toks[j].text == t.text) {
            seen_before = true;
            break;
          }
        }
        if (!seen_before) continue;
      }
      if (guarded_in_block(toks, lam, i)) continue;
      flagged.insert(t.text);
      report(out, id(), file, t.line, t.col,
             "job lambda mutates by-reference-captured '" + t.text +
                 "' without an atomic operation or a lock in the same "
                 "block; campaign workers run this concurrently — guard it "
                 "or make it per-job state");
    }
  }

  /// Returns a nonzero token index when the identifier at `i` is mutated
  /// right here (assignment, compound assignment, inc/dec, subscript store,
  /// or a mutating member call); atomic member calls do not count.
  [[nodiscard]] static std::size_t mutation_at(const std::vector<Token>& toks,
                                               std::size_t i,
                                               std::size_t end) {
    // Prefix ++x / --x.
    if (i >= 2 && ((is_punct(toks[i - 1], "+") && is_punct(toks[i - 2], "+")) ||
                   (is_punct(toks[i - 1], "-") && is_punct(toks[i - 2], "-")))) {
      return i;
    }
    std::size_t j = i + 1;
    // Subscript chain: name[...]... then look at what follows.
    while (j < end && is_punct(toks[j], "[")) {
      j = match_forward(toks, j, "[", "]") + 1;
    }
    if (j >= end) return 0;
    // Postfix ++ / --.
    if (j + 1 < end && ((is_punct(toks[j], "+") && is_punct(toks[j + 1], "+")) ||
                        (is_punct(toks[j], "-") && is_punct(toks[j + 1], "-")))) {
      return j;
    }
    // Plain assignment `= expr` (not `==`).
    if (is_punct(toks[j], "=") && !(j + 1 < end && is_punct(toks[j + 1], "="))) {
      return j;
    }
    // Compound assignment `+=` and friends (two tokens in this lexer).
    if (j + 1 < end && is_punct(toks[j + 1], "=") &&
        (is_punct(toks[j], "+") || is_punct(toks[j], "-") ||
         is_punct(toks[j], "*") || is_punct(toks[j], "/") ||
         is_punct(toks[j], "%") || is_punct(toks[j], "&") ||
         is_punct(toks[j], "|") || is_punct(toks[j], "^"))) {
      return j;
    }
    // Member call `.method(...)`.
    if (is_punct(toks[j], ".") && j + 2 < end &&
        toks[j + 1].kind == TokenKind::kIdentifier &&
        is_punct(toks[j + 2], "(")) {
      if (is_atomic_method(toks[j + 1].text)) return 0;
      if (is_mutating_method(toks[j + 1].text)) return j + 1;
    }
    return 0;
  }
};

// -- R13 --------------------------------------------------------------------

class FloatEqualityRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "float-equality"; }
  [[nodiscard]] std::string description() const override {
    return "R13: no ==/!= on floating-point operands outside the matcher "
           "(src/memo/match.*)";
  }

  void check(const SourceFile& file, const RepoIndex& /*repo*/,
             std::vector<Finding>& out) const override {
    if (file.display_path.find("memo/match.") != std::string::npos) return;
    const auto& toks = file.tokens;

    // Identifiers declared float/double (by value) in this file, scoped to
    // the enclosing function body so a `float n` in one function does not
    // taint an unrelated `n` elsewhere. Pointer declarations are skipped:
    // comparing the pointer itself is fine.
    struct FloatDecl {
      std::string name;
      std::size_t begin = 0;  ///< token span the declaration is visible in
      std::size_t end = 0;
    };
    std::vector<FloatDecl> decls;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!is_id(toks[i], "float") && !is_id(toks[i], "double")) continue;
      std::size_t j = i + 1;
      if (j < toks.size() && is_punct(toks[j], "&")) ++j;  // reference: value
      if (j >= toks.size() || toks[j].kind != TokenKind::kIdentifier) {
        continue;
      }
      FloatDecl d;
      d.name = toks[j].text;
      const FunctionSpan* fn = enclosing_function(file.functions, i);
      d.begin = fn != nullptr ? fn->body_begin : 0;
      d.end = fn != nullptr ? fn->body_end : toks.size();
      decls.push_back(std::move(d));
    }

    for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
      bool is_eq = false;
      if (is_punct(toks[i], "=") && is_punct(toks[i + 1], "=")) {
        // `==`, not the tail of !=, <=, >=, or a chained =.
        if (is_punct(toks[i - 1], "=") || is_punct(toks[i - 1], "!") ||
            is_punct(toks[i - 1], "<") || is_punct(toks[i - 1], ">")) {
          continue;
        }
        is_eq = true;
      } else if (is_punct(toks[i], "!") && is_punct(toks[i + 1], "=")) {
        is_eq = true;
      }
      if (!is_eq) continue;
      if (is_floaty(toks, i - 1, i, decls) ||
          is_floaty(toks, i + 2, i, decls)) {
        report(out, id(), file, toks[i].line, toks[i].col,
               "floating-point equality comparison outside the matcher; "
               "compare bit patterns via tmemo::float_to_bits, use an "
               "explicit epsilon, or move the comparison into "
               "src/memo/match.*");
        i += 2;
      }
    }
  }

 private:
  template <typename Decls>
  [[nodiscard]] static bool is_floaty(const std::vector<Token>& toks,
                                      std::size_t pos, std::size_t op_pos,
                                      const Decls& decls) {
    const Token& t = toks[pos];
    if (t.kind == TokenKind::kIdentifier) {
      // A member chain / call result has unknown type; a qualified or
      // member-accessed name is not the tracked local.
      if (pos + 1 < toks.size() &&
          (is_punct(toks[pos + 1], ".") || is_punct(toks[pos + 1], "(") ||
           is_punct(toks[pos + 1], "::"))) {
        return false;
      }
      if (pos > 0 && (is_punct(toks[pos - 1], ".") ||
                      is_punct(toks[pos - 1], "::"))) {
        return false;
      }
      for (const auto& d : decls) {
        if (d.name == t.text && op_pos >= d.begin && op_pos <= d.end) {
          return true;
        }
      }
      return false;
    }
    if (t.kind != TokenKind::kNumber) return false;
    if (t.text.size() > 1 && t.text[0] == '0' &&
        (t.text[1] == 'x' || t.text[1] == 'X')) {
      return false;  // hex literal; trailing f is a digit
    }
    if (t.text.find('.') != std::string::npos) return true;
    const char last = t.text.back();
    return last == 'f' || last == 'F';
  }
};

} // namespace

void append_index_rules(std::vector<std::unique_ptr<Rule>>& out) {
  out.push_back(std::make_unique<PodProtocolRule>());
  out.push_back(std::make_unique<SyscallDisciplineRule>());
  out.push_back(std::make_unique<ProbeCostRule>());
  out.push_back(std::make_unique<CampaignDeterminismRule>());
  out.push_back(std::make_unique<FloatEqualityRule>());
}

} // namespace tmemo::lint
