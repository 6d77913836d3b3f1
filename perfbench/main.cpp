// tmemo_perfbench — the repository benchmark (see perfbench/README.md).
//
//   tmemo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--data DIR] [--out DIR] [--git-describe TEXT]
//   tmemo_perfbench --workload NAME --write-reference [--data DIR]
//
// Untraced (--trace 0): a warm-up repetition at the reference seed is
// checked against the checked-in grid, then the workload repeats at --seed
// for --seconds and the end-to-end metrics are medians over those
// repetitions, host times scaled to the reference host speed
// (host_speed.hpp). Traced (--trace 1): one untraced and one traced repetition
// plus the per-layer loops; spans go to a Perfetto-readable JSON file.
// The last stdout line is the JSON result; the exit code is 0 only when
// every correctness gate passed.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/accounting.hpp"
#include "core/grid_digest.hpp"
#include "core/report.hpp"
#include "core/spans.hpp"
#include "core/stats.hpp"
#include "host_speed.hpp"
#include "io/atomic_file.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  int seconds = 10;
  int trace = 0;
  std::string data_dir = "perfbench/data";
  std::string out_dir = ".bench_out";
  std::string git_describe = "unknown";
  bool write_reference = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "tmemo_perfbench: %s\n", message.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size()) {
    usage_error("bad integer for " + flag + ": '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      const long long s = parse_int(flag, value());
      if (s < 0) usage_error("--seed must be >= 0");
      a.seed = static_cast<std::uint64_t>(s);
    } else if (flag == "--seconds") {
      const long long s = parse_int(flag, value());
      if (s < 1 || s > 3600) usage_error("--seconds must lie in [1, 3600]");
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      const long long t = parse_int(flag, value());
      if (t != 0 && t != 1) usage_error("--trace must be 0 or 1");
      a.trace = static_cast<int>(t);
    } else if (flag == "--data") {
      a.data_dir = value();
    } else if (flag == "--out") {
      a.out_dir = value();
    } else if (flag == "--git-describe") {
      a.git_describe = value();
    } else if (flag == "--write-reference") {
      a.write_reference = true;
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage_error("--workload must be one of errsweep, vossweep, observed, "
                "fabric");
  }
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void commit_file(const std::string& path, const std::string& text) {
  tmemo::io::AtomicFileWriter writer;
  writer.open(path);
  writer.stream() << text;
  writer.commit();
}

/// Peak resident set of one repetition, in MB: the benchmark process's
/// high-water mark since reset_peak_rss() and the largest child reaped so
/// far (children are forked afresh for every repetition).
void reset_peak_rss() {
  // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  long self_kb = self.ru_maxrss; // lifetime peak, if VmHWM is unavailable
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::atol(line.c_str() + 6);
  }
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

/// The reference grid of a workload: thread isolation, telemetry off.
RepOptions reference_options() {
  RepOptions o;
  o.seed = kReferenceSeed;
  o.force_thread = true;
  o.force_metrics_off = true;
  return o;
}

/// Tallies of jobs over every repetition of the run, and the gate verdict.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void count(const Rep& rep, const char* what) {
    attempted += rep.result.jobs.size();
    const std::size_t bad = failed_jobs(rep.result);
    failed += bad;
    if (bad != 0) fail(std::string(what) + ": " + std::to_string(bad) +
                       " job(s) failed or did not pass host verification");
    if (rep.worker_exit_failures != 0) {
      fail(std::string(what) + ": a forked worker did not exit cleanly");
    }
  }
  void expect_same(const GridDigest& want, const GridDigest& got,
                   double rel_tol, const std::string& what) {
    const std::string diff = compare_grids(want, got, rel_tol);
    if (!diff.empty()) fail(what + ": " + diff);
  }
  void fail(const std::string& why) {
    correct = false;
    std::printf("CORRECTNESS FAILURE: %s\n", why.c_str());
  }
};

void print_metrics(const MetricSet& m) {
  for (const Metric& x : m.items()) {
    std::printf("  %-34s %16.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
}

int run(const Args& args, int argc, char** argv) {
  ::mkdir(args.out_dir.c_str(), 0755);
  const Manifest manifest =
      make_manifest(args.git_describe, args.seed, argc, argv);
  const std::string manifest_json = manifest.to_json();
  const WorkloadDef def = make_workload(args.workload);
  RepContext ctx;
  ctx.out_dir = args.out_dir;
  ctx.manifest_json = manifest_json;
  ctx.workers = static_cast<int>(std::clamp(manifest.nproc - 1, 1L, 3L));
  const std::string ref_path = args.data_dir + "/ref_" + def.name + ".csv";

  if (args.write_reference) {
    SpanRecorder off(false, def.name);
    const Rep rep = run_rep(def, reference_options(), ctx, off);
    if (failed_jobs(rep.result) != 0) {
      throw std::runtime_error("reference grid has failed jobs");
    }
    commit_file(ref_path,
                "# reference grid of workload " + def.name + ", seed " +
                    std::to_string(kReferenceSeed) +
                    ", thread isolation, telemetry off\n" +
                    GridDigest::from_csv(rep.grid_csv).to_csv());
    std::printf("wrote %s (%zu jobs)\n", ref_path.c_str(),
                rep.result.jobs.size());
    return 0;
  }

  std::printf("manifest: %s\n", manifest_json.c_str());
  std::printf("workload %s: %s\n", def.name.c_str(), def.why.c_str());
  std::printf("every job builds a fresh device, so every LUT starts empty; "
              "%d worker%s\n",
              ctx.workers, ctx.workers == 1 ? "" : "s");

  const std::string trace_id = def.name + "-seed" + std::to_string(args.seed);
  SpanRecorder untraced(false, trace_id);
  SpanRecorder spans(args.trace == 1, trace_id);
  Gate gate;
  MetricSet metrics;
  // Accuracy against the paper at the reference seed: the grid
  // EXPERIMENTS.md reports, independent of --seed.
  double paper_pp = 0.0;

  // Gate 1: the warm-up repetition at the reference seed must reproduce the
  // checked-in grid. Untimed.
  {
    auto s = spans.span("warm-up at reference seed");
    RepOptions o;
    o.seed = kReferenceSeed;
    const Rep warm = run_rep(def, o, ctx, spans);
    gate.count(warm, "warm-up");
    paper_pp = paper_error_pp(warm.result);
    gate.expect_same(GridDigest::from_csv(read_file(ref_path)),
                     GridDigest::from_csv(warm.grid_csv), kEnergyRelTol,
                     "reference grid " + ref_path);
  }

  RepOptions at_seed;
  at_seed.seed = args.seed;
  GridDigest digest;
  if (args.trace == 0) {
    // Host times of each repetition, raw and scaled to the reference host
    // speed by the probe timed right before and after it.
    std::vector<double> wall, setup, jobs_per_s, ops_per_s, rss, speed;
    const HostSpeedProbe probe(args.data_dir + "/sobel.tmtr");
    // Start another repetition only while it is expected to finish within
    // --seconds (the last one's wall time is the estimate).
    const auto start = Clock::now();
    while (wall.empty() ||
           std::chrono::duration<double>(Clock::now() - start).count() +
                   wall.back() <=
               args.seconds) {
      const double probe_before = probe.measure(ctx.workers);
      reset_peak_rss();
      const Rep rep = run_rep(def, at_seed, ctx, untraced);
      rss.push_back(peak_rss_mb());
      const double probe_after = probe.measure(ctx.workers);
      speed.push_back(HostSpeedProbe::kReferenceSeconds * 2.0 /
                      (probe_before + probe_after));
      gate.count(rep, "measured repetition");
      const GridDigest d = GridDigest::from_csv(rep.grid_csv);
      if (wall.empty()) {
        digest = d;
      } else {
        gate.expect_same(digest, d, 0.0, "repeat of the same seed");
      }
      const double ok_jobs = static_cast<double>(rep.result.jobs.size() -
                                                 failed_jobs(rep.result));
      wall.push_back(rep.wall_s());
      setup.push_back(rep.setup_s);
      jobs_per_s.push_back(ok_jobs / rep.run_s);
      ops_per_s.push_back(static_cast<double>(fp_ops(rep.result)) / rep.run_s);
    }
    std::printf("%zu measured repetitions at seed %llu, raw wall_s:",
                wall.size(), static_cast<unsigned long long>(args.seed));
    for (const double w : wall) std::printf(" %.4f", w);
    std::printf("\nraw medians: wall_s %.6g, setup_s %.6g, jobs_per_s %.6g, "
                "fp_ops_per_s %.6g; host speed factor median %.4f\n",
                median(wall), median(setup), median(jobs_per_s),
                median(ops_per_s), median(speed));
    const auto scaled = [&speed](std::vector<double> v, bool per_second) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = per_second ? v[i] / speed[i] : v[i] * speed[i];
      }
      return v;
    };
    const std::vector<double> norm_wall = scaled(wall, false);
    if (norm_wall.size() >= 2) {
      const Quartiles q = quartiles(norm_wall);
      std::printf("wall_s quartiles over the repetitions: %.4f %.4f %.4f\n",
                  q.q1, q.q2, q.q3);
    }
    metrics.add("wall_s", median(norm_wall), "s");
    metrics.add("setup_s", median(scaled(setup, false)), "s");
    metrics.add("jobs_per_s", median(scaled(jobs_per_s, true)), "jobs/s");
    metrics.add("fp_ops_per_s", median(scaled(ops_per_s, true)), "ops/s");
    metrics.add("peak_rss_mb", median(rss), "MB");
    metrics.add("paper_err_pp", paper_pp, "pp");
  } else {
    const Rep plain = run_rep(def, at_seed, ctx, untraced);
    gate.count(plain, "untraced repetition");
    Rep traced;
    {
      auto s = spans.span("traced repetition");
      traced = run_rep(def, at_seed, ctx, spans);
    }
    gate.count(traced, "traced repetition");
    digest = GridDigest::from_csv(plain.grid_csv);
    gate.expect_same(digest, GridDigest::from_csv(traced.grid_csv), 0.0,
                     "traced vs untraced repetition");

    const tmemo::CampaignResult& r = plain.result;
    std::vector<double> job_ms;
    for (const tmemo::JobResult& j : r.jobs) job_ms.push_back(j.wall_ms);
    metrics.add("sim.busy_frac", busy_fraction(sum_job_ms(r), r.wall_ms,
                                               r.workers),
                "ratio");
    metrics.add("sim.job_ms_p50", percentile(job_ms, 50), "ms");
    metrics.add("sim.job_ms_p90", percentile(job_ms, 90), "ms");
    std::printf("sim.job_ms percentiles over %zu jobs, %d workers\n",
                job_ms.size(), r.workers);

    LayerInputs in;
    in.data_dir = args.data_dir;
    in.out_dir = args.out_dir;
    in.grid = &plain.result;
    in.workers = ctx.workers;
    in.seed = args.seed;
    measure_layers(in, metrics, spans);
    if (!measure_dispatch(in, metrics, spans)) {
      gate.fail("a dispatch campaign failed a job or a worker");
    }
    metrics.add("trace.overhead_s", traced.wall_s() - plain.wall_s(), "s");

    std::ostringstream trace;
    spans.write_perfetto(trace, manifest_json);
    const std::string trace_path = args.out_dir + "/trace-" + trace_id + ".json";
    commit_file(trace_path, trace.str());
    std::printf("trace: %zu spans in %s\n", spans.spans().size(),
                trace_path.c_str());
  }

  // Cross-mode gate: the answer does not depend on telemetry or isolation.
  if (def.spec.metrics || def.fabric) {
    RepOptions plain = reference_options();
    plain.seed = args.seed;
    const Rep check = run_rep(def, plain, ctx, untraced);
    gate.count(check, "cross-mode check");
    gate.expect_same(GridDigest::from_csv(check.grid_csv), digest, 0.0,
                     def.fabric ? "remote vs thread isolation"
                                : "telemetry on vs off");
  }

  const std::string digest_path =
      args.out_dir + "/" + trace_id + ".grid.csv";
  commit_file(digest_path, "# manifest: " + manifest_json + "\n" +
                               digest.to_csv());
  std::printf("grid digest at seed %llu: %s (%zu rows, %s)\n",
              static_cast<unsigned long long>(args.seed),
              digest.fingerprint().c_str(), digest.rows.size(),
              digest_path.c_str());

  std::printf("failed_frac %.6g (%llu of %llu jobs attempted failed)\n",
              static_cast<double>(gate.failed) /
                  static_cast<double>(std::max<std::uint64_t>(gate.attempted, 1)),
              static_cast<unsigned long long>(gate.failed),
              static_cast<unsigned long long>(gate.attempted));
  std::printf("%s metrics:\n", args.trace == 0 ? "end-to-end" : "per-layer");
  print_metrics(metrics);
  const std::string line =
      result_line(gate.correct, gate.attempted, gate.failed, metrics);
  commit_file(args.out_dir + "/result-" + trace_id + "-trace" +
                  std::to_string(args.trace) + ".json",
              "{\"manifest\": " + manifest_json + ", \"result\": " + line +
                  "}\n");
  std::printf("%s\n", line.c_str());
  return gate.correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmemo_perfbench: %s\n", e.what());
    return 2;
  }
}
