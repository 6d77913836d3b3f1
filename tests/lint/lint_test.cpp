// Self-tests for tmemo_lint: exact finding counts against checked-in
// fixtures (one bad fixture per rule R1-R14 plus the orphan-suppression
// meta rule), baseline/budget enforcement, the incremental cache, SARIF
// structural validation against the 2.1.0 shape plus a golden report, CLI
// exit codes, JSON rendering, and a cleanliness gate over the real src/,
// tools/ and bench/ trees.
//
// TM_LINT_FIXTURE_DIR and TM_LINT_REPO_ROOT are injected by CMake.
#include "runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace tmemo::lint {
namespace {

std::string fixture(const std::string& rel) {
  return std::string(TM_LINT_FIXTURE_DIR) + "/" + rel;
}

std::size_t count_rule(const LintReport& r, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// -- Per-rule bad fixtures ---------------------------------------------------

TEST(LintRules, R1FlagsEveryNondeterminismSource) {
  const LintReport r = run_lint({fixture("bad/r1_nondeterminism.cpp")});
  EXPECT_EQ(r.findings.size(), 5u);
  EXPECT_EQ(count_rule(r, "nondeterminism"), 5u);
  EXPECT_EQ(r.suppressed, 0u);
  EXPECT_EQ(exit_code(r), 1);
}

TEST(LintRules, R2FlagsUnorderedIterationInResultWriters) {
  const LintReport r = run_lint({fixture("bad/r2_unordered_csv.cpp")});
  EXPECT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(count_rule(r, "unordered-iteration"), 3u);
}

TEST(LintRules, R3FlagsPunningOutsidePodHelpers) {
  const LintReport r = run_lint({fixture("bad/r3_punning.cpp")});
  EXPECT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(count_rule(r, "type-punning"), 2u);
}

TEST(LintRules, R4FlagsExecutePathsThatNeverChargeEnergy) {
  const LintReport r = run_lint({fixture("bad/src/fpu/r4_energy.cpp")});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "energy-pairing");
  EXPECT_NE(r.findings[0].message.find("execute_unaccounted"),
            std::string::npos);
}

TEST(LintRules, R6FlagsUnseededRngConstruction) {
  const LintReport r = run_lint({fixture("bad/r6_rng.cpp")});
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(count_rule(r, "rng-seed"), 4u);
}

TEST(LintRules, R7FlagsDirectInstrumentConstruction) {
  const LintReport r = run_lint({fixture("bad/r7_telemetry.cpp")});
  EXPECT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(count_rule(r, "telemetry-registry"), 3u);
}

TEST(LintRules, R8FlagsUnderivedInjectorSeeds) {
  const LintReport r = run_lint({fixture("bad/r8_injector.cpp")});
  EXPECT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(count_rule(r, "injection-seeding"), 2u);
  EXPECT_NE(r.findings[0].message.find("derive_fault_seed"),
            std::string::npos);
}

TEST(LintRules, R14FlagsBareOfstreamArtifactWrites) {
  const LintReport r = run_lint({fixture("bad/r14_ofstream.cpp")});
  EXPECT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(count_rule(r, "artifact-durability"), 3u);
  EXPECT_EQ(r.suppressed, 1u);
  EXPECT_NE(r.findings[0].message.find("AtomicFileWriter"),
            std::string::npos);
}

TEST(LintRules, OrphanAndUnknownSuppressionsAreFindings) {
  const LintReport r = run_lint({fixture("bad/orphan.cpp")});
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(count_rule(r, "orphan-suppression"), 2u);
  EXPECT_NE(r.findings[0].message.find("matches no finding"),
            std::string::npos);
  EXPECT_NE(r.findings[1].message.find("no-such-rule"), std::string::npos);
}

// -- Cross-file rules R9-R13 -------------------------------------------------

TEST(LintRules, R9FlagsEveryUnsafeWireStructShape) {
  const LintReport r = run_lint({fixture("bad/r9_pod.cpp")});
  EXPECT_EQ(r.findings.size(), 6u);
  EXPECT_EQ(count_rule(r, "pod-protocol"), 6u);
  EXPECT_EQ(r.suppressed, 1u);
  // The missing-guard diagnostic carries paste-ready static_assert text
  // with the computed wire size.
  bool saw_guard_text = false;
  for (const Finding& f : r.findings) {
    if (f.message.find("static_assert(std::is_trivially_copyable_v<"
                       "PaddedFrame> && sizeof(PaddedFrame) == 16, "
                       "\"pod_io wire layout\");") != std::string::npos) {
      saw_guard_text = true;
    }
  }
  EXPECT_TRUE(saw_guard_text);
}

TEST(LintRules, R10FlagsDiscardedAndEintrNakedSyscalls) {
  const LintReport r =
      run_lint({fixture("bad/src/sim/r10_worker_proc.cpp")});
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(count_rule(r, "syscall-discipline"), 4u);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintRules, R10CoversSocketSyscallsUnderSrcNet) {
  const LintReport r = run_lint({fixture("bad/src/net/r10_socket.cpp")});
  EXPECT_EQ(r.findings.size(), 9u);
  EXPECT_EQ(count_rule(r, "syscall-discipline"), 9u);
  EXPECT_EQ(r.suppressed, 1u);
  // accept/connect/send/recv are interruptible: the EINTR diagnostic must
  // fire for them, not just the discarded-result one.
  bool saw_eintr_diag = false;
  for (const Finding& f : r.findings) {
    if (f.message.find("EINTR") != std::string::npos) saw_eintr_diag = true;
  }
  EXPECT_TRUE(saw_eintr_diag);
}

TEST(LintRules, R11FlagsCostlyProbeArguments) {
  const LintReport r = run_lint({fixture("bad/r11_probe.cpp")});
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(count_rule(r, "probe-cost"), 4u);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintRules, R12FlagsUnguardedSharedMutationInJobLambdas) {
  const LintReport r = run_lint({fixture("bad/r12_campaign.cpp")});
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(count_rule(r, "campaign-determinism"), 4u);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintRules, R13FlagsFloatEqualityOutsideTheMatcher) {
  const LintReport r = run_lint({fixture("bad/r13_float.cpp")});
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(count_rule(r, "float-equality"), 4u);
  EXPECT_EQ(r.suppressed, 1u);
}

// -- Good fixtures and suppression accounting --------------------------------

TEST(LintRules, GoodFixtureIsCleanWithOneJustifiedSuppression) {
  const LintReport r = run_lint({fixture("good/clean.cpp")});
  EXPECT_TRUE(r.findings.empty())
      << "unexpected: " << r.findings[0].rule << " at line "
      << r.findings[0].line;
  EXPECT_EQ(r.suppressed, 1u);
  EXPECT_EQ(exit_code(r), 0);
}

TEST(LintRules, IndexRuleGoodFixtureIsFullyClean) {
  const LintReport r = run_lint({fixture("good/clean_index.cpp")});
  EXPECT_TRUE(r.findings.empty())
      << "unexpected: " << r.findings[0].rule << " at line "
      << r.findings[0].line << ": " << r.findings[0].message;
  EXPECT_EQ(r.suppressed, 0u);
  EXPECT_EQ(exit_code(r), 0);
}

TEST(LintRules, WholeBadTreeCountsAreStable) {
  const LintReport r = run_lint({fixture("bad")});
  // 5 (R1) + 3 (R2) + 2 (R3) + 1 (R4) + 4 (R6) + 3 (R7)
  // + 2 (R8) + 6 (R9) + 4 (R10 pipe) + 9 (R10 socket) + 4 (R11)
  // + 4 (R12) + 4 (R13) + 3 (R14) + 2 (orphans).
  EXPECT_EQ(r.findings.size(), 56u);
  EXPECT_EQ(r.files_scanned, 15u);
  // One justified suppression per R9-R13 plus the socket fixture's and
  // the R14 fixture's.
  EXPECT_EQ(r.suppressed, 7u);
  // Findings come out sorted by (path, line, col, rule).
  EXPECT_TRUE(std::is_sorted(
      r.findings.begin(), r.findings.end(),
      [](const Finding& a, const Finding& b) {
        return std::tie(a.path, a.line, a.col, a.rule) <
               std::tie(b.path, b.line, b.col, b.rule);
      }));
}

// -- Baseline / suppression-budget enforcement -------------------------------

TEST(LintBaseline, MatchingBaselinePassesCleanly) {
  LintOptions opt;
  opt.paths = {fixture("good/clean.cpp")};
  opt.baseline_path = fixture("baselines/clean_ok.txt");
  const LintReport r = run_lint(opt);
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].rule << ": " << r.findings[0].message;
  EXPECT_EQ(r.suppressed, 1u);
  EXPECT_EQ(exit_code(r), 0);
}

TEST(LintBaseline, UncoveredSuppressionSiteIsAFinding) {
  LintOptions opt;
  opt.paths = {fixture("good/clean.cpp")};
  opt.baseline_path = fixture("baselines/empty.txt");
  const LintReport r = run_lint(opt);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "unbaselined-suppression");
  EXPECT_NE(r.findings[0].message.find("'nondeterminism'"),
            std::string::npos);
  EXPECT_EQ(exit_code(r), 1);
}

TEST(LintBaseline, StaleEntriesAreFindingsOnlyForScannedFiles) {
  LintOptions opt;
  opt.paths = {fixture("good/clean.cpp")};
  opt.baseline_path = fixture("baselines/stale.txt");
  const LintReport r = run_lint(opt);
  // The rng-seed entry for the scanned file is stale; the entry for
  // bad/never_scanned.cpp is outside the scan and must stay silent so
  // pre-commit subset scans remain usable.
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "stale-baseline");
  EXPECT_NE(r.findings[0].message.find("'rng-seed'"), std::string::npos);
}

TEST(LintBaseline, BudgetOverrunIsAFinding) {
  LintOptions opt;
  opt.paths = {fixture("good/clean.cpp")};
  opt.baseline_path = fixture("baselines/over_budget.txt");
  const LintReport r = run_lint(opt);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "suppression-budget");
  EXPECT_NE(r.findings[0].message.find("budget of 0"), std::string::npos);
}

TEST(LintBaseline, MalformedBaselineIsAUsageError) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"--baseline=" + fixture("baselines/malformed.txt"),
                     fixture("good/clean.cpp")},
                    out, err),
            2);
  EXPECT_NE(err.str().find("unknown directive"), std::string::npos);
}

// -- Incremental cache -------------------------------------------------------

TEST(LintCache, WarmRunReplaysIdenticalResults) {
  const std::string cache =
      testing::TempDir() + "/tmemo_lint_cache_selftest.bin";
  std::remove(cache.c_str());
  LintOptions opt;
  opt.paths = {fixture("bad")};
  opt.cache_path = cache;
  const LintReport cold = run_lint(opt);
  const LintReport warm = run_lint(opt);
  EXPECT_EQ(cold.files_scanned, warm.files_scanned);
  EXPECT_EQ(cold.suppressed, warm.suppressed);
  ASSERT_EQ(cold.findings.size(), warm.findings.size());
  for (std::size_t i = 0; i < cold.findings.size(); ++i) {
    EXPECT_EQ(cold.findings[i].rule, warm.findings[i].rule) << i;
    EXPECT_EQ(cold.findings[i].path, warm.findings[i].path) << i;
    EXPECT_EQ(cold.findings[i].line, warm.findings[i].line) << i;
    EXPECT_EQ(cold.findings[i].col, warm.findings[i].col) << i;
    EXPECT_EQ(cold.findings[i].message, warm.findings[i].message) << i;
  }
  std::remove(cache.c_str());
}

// -- SARIF output ------------------------------------------------------------

// Minimal JSON value + recursive-descent parser, enough to validate the
// emitted SARIF structurally (the goal is a real parse, not substring
// matching: malformed escaping or misnesting must fail the test).
struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return object.count(key) != 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing JSON");
    return v;
  }

 private:
  void ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }
  Json value() {
    ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return keyword("true", [] { Json j; j.kind = Json::kBool;
                                            j.boolean = true; return j; }());
      case 'f': return keyword("false", [] { Json j; j.kind = Json::kBool;
                                             return j; }());
      case 'n': return keyword("null", Json{});
      default: return number();
    }
  }
  Json keyword(const std::string& word, Json result) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      throw std::runtime_error("bad keyword at " + std::to_string(pos_));
    }
    pos_ += word.size();
    return result;
  }
  Json object() {
    expect('{');
    Json j;
    j.kind = Json::kObject;
    ws();
    if (peek() == '}') {
      ++pos_;
      return j;
    }
    while (true) {
      ws();
      Json key = string_value();
      ws();
      expect(':');
      j.object[key.string] = value();
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return j;
    }
  }
  Json array() {
    expect('[');
    Json j;
    j.kind = Json::kArray;
    ws();
    if (peek() == ']') {
      ++pos_;
      return j;
    }
    while (true) {
      j.array.push_back(value());
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return j;
    }
  }
  Json string_value() {
    expect('"');
    Json j;
    j.kind = Json::kString;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return j;
      if (c != '\\') {
        j.string += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': j.string += '"'; break;
        case '\\': j.string += '\\'; break;
        case '/': j.string += '/'; break;
        case 'n': j.string += '\n'; break;
        case 't': j.string += '\t'; break;
        case 'r': j.string += '\r'; break;
        case 'b': j.string += '\b'; break;
        case 'f': j.string += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            throw std::runtime_error("truncated \\u escape");
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          j.string += static_cast<char>(std::stoi(hex, nullptr, 16));
          break;
        }
        default: throw std::runtime_error("bad escape");
      }
    }
  }
  Json number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad JSON value");
    Json j;
    j.kind = Json::kNumber;
    j.number = std::stod(text_.substr(start, pos_ - start));
    return j;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(LintSarif, ReportValidatesAgainstTheSarif210Shape) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"--sarif", fixture("bad")}, out, err), 1);

  const Json doc = JsonParser(out.str()).parse();
  EXPECT_NE(doc.at("$schema").string.find("sarif-2.1.0"),
            std::string::npos);
  EXPECT_EQ(doc.at("version").string, "2.1.0");
  ASSERT_EQ(doc.at("runs").array.size(), 1u);

  const Json& run = doc.at("runs").array[0];
  const Json& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").string, "tmemo-lint");
  EXPECT_FALSE(driver.at("version").string.empty());
  EXPECT_EQ(run.at("columnKind").string, "utf16CodeUnits");

  std::vector<std::string> rule_ids;
  for (const Json& rule : driver.at("rules").array) {
    rule_ids.push_back(rule.at("id").string);
    EXPECT_FALSE(rule.at("shortDescription").at("text").string.empty());
  }
  EXPECT_EQ(rule_ids.size(), 17u);  // R1-R14 without R5 + 4 meta rules
  for (const char* id :
       {"pod-protocol", "syscall-discipline", "probe-cost",
        "campaign-determinism", "float-equality", "artifact-durability",
        "suppression-budget"}) {
    EXPECT_NE(std::find(rule_ids.begin(), rule_ids.end(), id),
              rule_ids.end())
        << id;
  }

  const Json& results = run.at("results");
  EXPECT_EQ(results.array.size(), 56u);  // matches WholeBadTreeCounts
  for (const Json& res : results.array) {
    EXPECT_NE(std::find(rule_ids.begin(), rule_ids.end(),
                        res.at("ruleId").string),
              rule_ids.end());
    EXPECT_EQ(res.at("level").string, "error");
    EXPECT_FALSE(res.at("message").at("text").string.empty());
    ASSERT_GE(res.at("locations").array.size(), 1u);
    const Json& phys = res.at("locations").array[0].at("physicalLocation");
    EXPECT_FALSE(phys.at("artifactLocation").at("uri").string.empty());
    EXPECT_GE(phys.at("region").at("startLine").number, 1.0);
    EXPECT_GE(phys.at("region").at("startColumn").number, 1.0);
  }
}

TEST(LintSarif, GoldenReportIsStable) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"--sarif", fixture("bad/r3_punning.cpp")}, out, err),
            1);

  std::ifstream is(fixture("golden/r3_punning.sarif"));
  ASSERT_TRUE(is.good());
  std::stringstream golden;
  golden << is.rdbuf();
  std::string expect = golden.str();
  const std::string placeholder = "@FIXTURE_DIR@";
  const std::string dir(TM_LINT_FIXTURE_DIR);
  for (std::size_t p = 0;
       (p = expect.find(placeholder, p)) != std::string::npos;
       p += dir.size()) {
    expect.replace(p, placeholder.size(), dir);
  }
  EXPECT_EQ(out.str(), expect);
}

// -- CLI behaviour -----------------------------------------------------------

TEST(LintCli, ExitCodesMatchContract) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({fixture("good/clean.cpp")}, out, err), 0);
  EXPECT_EQ(run_cli({fixture("bad")}, out, err), 1);
  EXPECT_EQ(run_cli({"--bogus-flag"}, out, err), 2);
  EXPECT_EQ(run_cli({fixture("no/such/path.cpp")}, out, err), 2);
  EXPECT_EQ(run_cli({}, out, err), 2);
}

TEST(LintCli, TextReportCarriesSummaryLine) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({fixture("bad/r3_punning.cpp")}, out, err), 1);
  const std::string text = out.str();
  EXPECT_NE(text.find("[type-punning]"), std::string::npos);
  EXPECT_NE(text.find("2 finding(s), 0 suppressed, 1 file(s) scanned"),
            std::string::npos);
}

TEST(LintCli, JsonReportIsWellFormedEnough) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"--json", fixture("bad/r3_punning.cpp")}, out, err), 1);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"tool\": \"tmemo-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"type-punning\""), std::string::npos);
}

TEST(LintCli, OutFlagWritesTheReportToAFile) {
  const std::string path = testing::TempDir() + "/tmemo_lint_out_test.sarif";
  std::remove(path.c_str());
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"--sarif", "--out=" + path, fixture("good/clean.cpp")},
                    out, err),
            0);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_NE(ss.str().find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_TRUE(out.str().empty());
  std::remove(path.c_str());
}

TEST(LintCli, ListRulesNamesEveryRule) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"--list-rules"}, out, err), 0);
  const std::string text = out.str();
  for (const char* rule :
       {"nondeterminism", "unordered-iteration", "type-punning",
        "energy-pairing", "rng-seed",
        "telemetry-registry", "injection-seeding", "pod-protocol",
        "syscall-discipline", "probe-cost", "campaign-determinism",
        "float-equality", "artifact-durability", "orphan-suppression"}) {
    EXPECT_NE(text.find(rule), std::string::npos) << rule;
  }
}

// -- The real tree must stay clean -------------------------------------------

TEST(LintRepo, SrcToolsBenchAreCleanUnderAllRules) {
  const std::string root(TM_LINT_REPO_ROOT);
  const LintReport r =
      run_lint({root + "/src", root + "/tools", root + "/bench"});
  std::ostringstream why;
  write_text(r, why);
  EXPECT_TRUE(r.findings.empty()) << why.str();
  // The justified suppressions inventoried in docs/STATIC_ANALYSIS.md and
  // tools/lint/lint_baseline.txt: FpuPipeline::issue (energy-pairing), the
  // executor's predicate-register test and the SETE/SETNE ISA comparisons
  // (float-equality), the lint cache and the bench append-mode metrics log
  // (artifact-durability).
  EXPECT_EQ(r.suppressed, 6u);
  EXPECT_GT(r.files_scanned, 100u);
}

TEST(LintRepo, SuppressionBaselineGateIsGreen) {
  const std::string root(TM_LINT_REPO_ROOT);
  LintOptions opt;
  opt.paths = {root + "/src", root + "/tools", root + "/bench"};
  opt.baseline_path = root + "/tools/lint/lint_baseline.txt";
  const LintReport r = run_lint(opt);
  std::ostringstream why;
  write_text(r, why);
  EXPECT_TRUE(r.findings.empty()) << why.str();
  EXPECT_EQ(r.suppressed, 6u);
  EXPECT_EQ(exit_code(r), 0);
}

} // namespace
} // namespace tmemo::lint
