#include "layers.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/accounting.hpp"
#include "core/stats.hpp"
#include "energy/energy_model.hpp"
#include "fpu/semantics.hpp"
#include "gpu/device.hpp"
#include "io/atomic_file.hpp"
#include "memo/registers.hpp"
#include "memo/resilient_fpu.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"
#include "telemetry/collector.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using namespace tmemo;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps results of the timed loops observable so no loop is optimized out.
volatile double g_sink = 0.0;

/// Host seconds each timed loop repeats for (and at least three times).
constexpr double kSliceSeconds = 0.25;

/// Repeats prepare() (untimed) then run(state) (timed, returns the items
/// it processed) for at least `slice_s` seconds and three repetitions;
/// returns the median seconds per item.
template <typename Prepare, typename Run>
double median_s_per_item(double slice_s, Prepare&& prepare, Run&& run) {
  std::vector<double> per_item;
  const auto start = Clock::now();
  while (per_item.size() < 3 || seconds_since(start) < slice_s) {
    auto state = prepare();
    const auto t0 = Clock::now();
    const std::size_t items = run(state);
    per_item.push_back(seconds_since(t0) / static_cast<double>(items));
  }
  return median(per_item);
}

/// A trace steered onto per-FPU LUTs: SC = work_item mod stream cores,
/// PE = VLIW slot, one LUT per (SC, PE, unit), as replay_trace does.
struct SteeredStream {
  std::vector<FpInstruction> ins;
  std::vector<float> exact; ///< error-free result of each instruction
  std::vector<std::uint32_t> slot;
  std::vector<FpuType> slot_unit;
  std::vector<std::uint16_t> slot_core;
};

SteeredStream steer(const std::vector<TraceEvent>& events,
                    int stream_cores = 16) {
  SteeredStream s;
  std::map<std::tuple<int, int, int>, std::uint32_t> index;
  for (const TraceEvent& ev : events) {
    const int sc = static_cast<int>(
        ev.work_item % static_cast<std::uint64_t>(stream_cores));
    const int pe = StreamCore::vliw_slot(ev.fpu(), ev.static_id);
    const auto key = std::make_tuple(sc, pe, static_cast<int>(ev.unit));
    auto [it, inserted] = index.try_emplace(
        key, static_cast<std::uint32_t>(s.slot_unit.size()));
    if (inserted) {
      s.slot_unit.push_back(ev.fpu());
      s.slot_core.push_back(static_cast<std::uint16_t>(sc));
    }
    s.ins.push_back(ev.instruction());
    s.exact.push_back(evaluate_fp_op(s.ins.back()));
    s.slot.push_back(it->second);
  }
  return s;
}

MatchConstraint threshold_mask_constraint(float threshold) {
  MemoRegisterFile regs;
  regs.program_threshold_as_mask(threshold);
  regs.set_commutativity(true);
  return regs.constraint();
}

MatchConstraint exact_constraint() {
  MemoRegisterFile regs;
  regs.program_exact();
  regs.set_commutativity(true);
  return regs.constraint();
}

/// One ResilientFpu per steered slot, programmed like the device programs
/// its modules (threshold <= 0 means exact matching).
std::vector<ResilientFpu> make_fpus(const SteeredStream& s, float threshold,
                                    std::uint64_t seed) {
  std::vector<ResilientFpu> fpus;
  fpus.reserve(s.slot_unit.size());
  for (std::size_t i = 0; i < s.slot_unit.size(); ++i) {
    ResilientFpuConfig cfg;
    cfg.eds_seed = seed * 0x9e3779b97f4a7c15ull + i + 1;
    fpus.emplace_back(s.slot_unit[i], cfg);
    MemoRegisterFile& regs = fpus.back().registers();
    if (threshold <= 0.0f) {
      regs.program_exact();
    } else {
      regs.program_threshold_as_mask(threshold);
    }
    regs.set_commutativity(true);
  }
  return fpus;
}

class ProbeRecorder final : public telemetry::ProbeSink {
 public:
  void on_event(const telemetry::ProbeEvent& event) override {
    events.push_back(event);
  }
  std::vector<telemetry::ProbeEvent> events;
};

struct LutResult {
  double ns = 0.0;
  double hit_rate = 0.0;
};

LutResult time_lut(const SteeredStream& s, const MatchConstraint& c,
                   double slice_s) {
  LutResult out;
  out.ns = 1e9 * median_s_per_item(
                     slice_s,
                     [&] { return std::vector<MemoLut>(s.slot_unit.size(),
                                                       MemoLut(2)); },
                     [&](std::vector<MemoLut>& luts) {
                       for (std::size_t i = 0; i < s.ins.size(); ++i) {
                         MemoLut& lut = luts[s.slot[i]];
                         if (!lut.lookup_checked(s.ins[i], c).hit) {
                           lut.update(s.ins[i], s.exact[i]);
                         }
                       }
                       LutStats total;
                       for (const MemoLut& l : luts) total += l.stats();
                       out.hit_rate = total.hit_rate();
                       return s.ins.size();
                     });
  return out;
}

double time_fpu_execute(const SteeredStream& s, float threshold,
                        const TimingErrorModel& errors, std::uint64_t seed,
                        double slice_s) {
  return 1e9 * median_s_per_item(
                   slice_s, [&] { return make_fpus(s, threshold, seed); },
                   [&](std::vector<ResilientFpu>& fpus) {
                     double acc = 0.0;
                     for (std::size_t i = 0; i < s.ins.size(); ++i) {
                       acc += fpus[s.slot[i]].execute(s.ins[i], errors).result;
                     }
                     g_sink = acc;
                     return s.ins.size();
                   });
}

double time_eds_draw(const SteeredStream& s, const TimingErrorModel& errors,
                     std::uint64_t seed, double slice_s) {
  return 1e9 * median_s_per_item(
                   slice_s, [&] { return Xorshift128(seed); },
                   [&](Xorshift128& rng) {
                     std::size_t flagged = 0;
                     for (std::size_t i = 0; i < s.ins.size(); ++i) {
                       flagged += errors.sample_error(
                                      s.slot_unit[s.slot[i]], rng)
                                      ? 1
                                      : 0;
                     }
                     g_sink = static_cast<double>(flagged);
                     return s.ins.size();
                   });
}

double time_charge(const std::vector<ExecutionRecord>& records, Volt supply,
                   double slice_s) {
  const VoltageScaling scaling{VoltageScalingParams{}};
  const EnergyModel model(EnergyParams{}, scaling);
  return 1e9 * median_s_per_item(
                   slice_s, [] { return 0; },
                   [&](int&) {
                     double pj = 0.0;
                     for (const ExecutionRecord& r : records) {
                       pj += model.charge(r, supply) +
                             model.charge_baseline(r, supply);
                     }
                     g_sink = pj;
                     return records.size();
                   });
}

/// Groups a trace into the static vector instructions that produced it:
/// consecutive events of one static id, opcode and 64-lane wavefront.
struct WavefrontOp {
  FpOpcode op = FpOpcode::kAdd;
  StaticInstrId static_id = 0;
  WorkItemId base = 0;
  std::uint64_t mask = 0;
  std::array<std::array<float, 64>, 3> operands{};
};

std::vector<WavefrontOp> group_wavefronts(
    const std::vector<TraceEvent>& events) {
  std::vector<WavefrontOp> ops;
  for (const TraceEvent& ev : events) {
    const WorkItemId base = ev.work_item - ev.work_item % 64;
    const auto lane = static_cast<int>(ev.work_item - base);
    if (ops.empty() || ops.back().static_id != ev.static_id ||
        ops.back().op != ev.op() || ops.back().base != base ||
        (ops.back().mask & (1ull << lane)) != 0) {
      WavefrontOp w;
      w.op = ev.op();
      w.static_id = ev.static_id;
      w.base = base;
      ops.push_back(w);
    }
    WavefrontOp& w = ops.back();
    w.mask |= 1ull << lane;
    for (std::size_t k = 0; k < 3; ++k) {
      w.operands[k][static_cast<std::size_t>(lane)] = ev.operands[k];
    }
  }
  return ops;
}

/// A device configured the way Simulation::run configures it for a
/// fixed-rate run of `workload`.
std::unique_ptr<GpuDevice> configured_device(const Workload& workload,
                                             double error_rate,
                                             std::uint64_t seed) {
  DeviceConfig config = DeviceConfig::radeon_hd5870();
  config.seed = seed;
  auto device = std::make_unique<GpuDevice>(
      config, EnergyModel(EnergyParams{}, VoltageScaling{VoltageScalingParams{}}));
  const float t = workload.table1_threshold();
  if (t <= 0.0f) {
    device->program_exact();
  } else if (workload.error_tolerant()) {
    device->program_threshold_as_mask(t);
  } else {
    device->program_threshold(t);
  }
  device->set_commutativity(true);
  device->set_error_model(std::make_shared<FixedRateErrorModel>(error_rate));
  return device;
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

const JobResult& first_ok_job(const CampaignResult& grid) {
  for (const JobResult& j : grid.jobs) {
    if (j.ok) return j;
  }
  throw std::runtime_error("grid has no ok job");
}

} // namespace

void measure_layers(const LayerInputs& in, MetricSet& out,
                    SpanRecorder& spans) {
  if (in.grid == nullptr) throw std::invalid_argument("layer inputs lack a grid");
  const double slice = kSliceSeconds;

  SteeredStream sobel;
  SteeredStream bs;
  std::vector<TraceEvent> sobel_events;
  {
    auto s = spans.span("load traces");
    sobel_events = load_trace(in.data_dir + "/sobel.tmtr");
    sobel = steer(sobel_events);
    bs = steer(load_trace(in.data_dir + "/blackscholes.tmtr"));
  }
  std::printf("layer input: sobel.tmtr %zu events on %zu LUTs, "
              "blackscholes.tmtr %zu events on %zu LUTs\n",
              sobel.ins.size(), sobel.slot_unit.size(), bs.ins.size(),
              bs.slot_unit.size());

  // -- workloads / kernel ---------------------------------------------------
  {
    auto s = spans.span("layer workloads");
    std::vector<double> build_ms;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      const auto set = make_all_workloads(0.04);
      build_ms.push_back(1e3 * seconds_since(t0));
      g_sink = static_cast<double>(set.size());
    }
    out.add("workloads.build_ms", median(build_ms), "ms");

    const auto set = make_all_workloads(0.01);
    for (const auto& w : set) {
      auto ks = spans.span("Workload::run " + std::string(w->name()));
      std::uint64_t ops = 0;
      const double s_per_op = median_s_per_item(
          slice, [&] { return configured_device(*w, 0.02, in.seed); },
          [&](std::unique_ptr<GpuDevice>& device) {
            const WorkloadResult r = w->run(*device);
            if (!r.passed) {
              throw std::runtime_error(std::string(w->name()) +
                                       " failed host verification");
            }
            ops = 0;
            for (const FpuStats& u : device->unit_stats()) ops += u.instructions;
            return static_cast<std::size_t>(ops);
          });
      out.add("workloads.ns_per_op." + lower(w->name()), 1e9 * s_per_op, "ns");
    }
  }

  // -- gpu ------------------------------------------------------------------
  {
    auto s = spans.span("layer gpu");
    const EnergyModel energy(EnergyParams{},
                             VoltageScaling{VoltageScalingParams{}});
    out.add("gpu.device_build_ms",
            1e3 * median_s_per_item(
                      slice, [] { return 0; },
                      [&](int&) {
                        const GpuDevice d(DeviceConfig::radeon_hd5870(), energy);
                        g_sink = static_cast<double>(d.compute_unit_count());
                        return std::size_t{1};
                      }),
            "ms");

    const std::vector<WavefrontOp> ops = group_wavefronts(sobel_events);
    std::array<float, 64> results{};
    out.add("gpu.wavefront_op_ns",
            1e9 * median_s_per_item(
                      slice,
                      [&] {
                        auto d = std::make_unique<GpuDevice>(
                            DeviceConfig::single_cu(), energy);
                        d->program_threshold_as_mask(1.0f);
                        d->set_commutativity(true);
                        d->set_error_model(
                            std::make_shared<FixedRateErrorModel>(0.02));
                        return d;
                      },
                      [&](std::unique_ptr<GpuDevice>& d) {
                        ComputeUnit& cu = d->compute_unit(0);
                        for (const WavefrontOp& w : ops) {
                          cu.execute_wavefront_op(
                              w.op, w.static_id, w.operands[0].data(),
                              w.operands[1].data(), w.operands[2].data(),
                              w.mask, w.base, d->error_model(), &d->sink(),
                              results.data());
                        }
                        g_sink = d->energy().memoized_pj;
                        return ops.size();
                      }),
            "ns");
    std::printf("gpu.wavefront_op_ns over %zu wavefront ops\n", ops.size());
  }

  // -- memo -----------------------------------------------------------------
  const FixedRateErrorModel fixed(0.02);
  const VoltageErrorModel voltage(VoltageScaling{VoltageScalingParams{}}, 0.82);
  {
    auto s = spans.span("layer memo");
    const LutResult exact = time_lut(bs, exact_constraint(), slice);
    const LutResult thr = time_lut(sobel, threshold_mask_constraint(1.0f), slice);
    out.add("memo.lut_ns.exact", exact.ns, "ns");
    out.add("memo.lut_ns.threshold", thr.ns, "ns");
    out.add("memo.hit_rate.exact", exact.hit_rate, "ratio");
    out.add("memo.hit_rate.threshold", thr.hit_rate, "ratio");
    out.add("memo.fpu_execute_ns.fixed",
            time_fpu_execute(sobel, 1.0f, fixed, in.seed, slice), "ns");
    out.add("memo.fpu_execute_ns.voltage",
            time_fpu_execute(sobel, 1.0f, voltage, in.seed, slice), "ns");
  }

  // -- timing ---------------------------------------------------------------
  {
    auto s = spans.span("layer timing");
    out.add("timing.eds_draw_ns.fixed",
            time_eds_draw(sobel, fixed, in.seed, slice), "ns");
    out.add("timing.eds_draw_ns.voltage",
            time_eds_draw(sobel, voltage, in.seed, slice), "ns");
  }

  // One untimed pass records what the energy and telemetry loops replay.
  std::vector<ExecutionRecord> records;
  ProbeRecorder probes;
  {
    auto s = spans.span("record energy and probe input");
    std::vector<ResilientFpu> fpus = make_fpus(sobel, 1.0f, in.seed);
    for (std::size_t i = 0; i < fpus.size(); ++i) {
      fpus[i].set_probe(&probes, 0, sobel.slot_core[i]);
    }
    records.reserve(sobel.ins.size());
    for (std::size_t i = 0; i < sobel.ins.size(); ++i) {
      records.push_back(fpus[sobel.slot[i]].execute(sobel.ins[i], fixed));
    }
  }

  // -- energy ---------------------------------------------------------------
  {
    auto s = spans.span("layer energy");
    out.add("energy.charge_ns.nominal", time_charge(records, 0.9, slice), "ns");
    out.add("energy.charge_ns.overscaled", time_charge(records, 0.82, slice),
            "ns");
    out.add("energy.consume_ns",
            1e9 * median_s_per_item(
                      slice,
                      [] {
                        return std::make_unique<GpuDevice>(
                            DeviceConfig::single_cu());
                      },
                      [&](std::unique_ptr<GpuDevice>& d) {
                        ExecutionSink& sink = d->sink();
                        for (const ExecutionRecord& r : records) sink.consume(r);
                        g_sink = d->energy().baseline_pj;
                        return records.size();
                      }),
            "ns");
  }

  // -- telemetry ------------------------------------------------------------
  {
    auto s = spans.span("layer telemetry");
    out.add("telemetry.event_ns",
            1e9 * median_s_per_item(
                      slice,
                      [] {
                        return std::make_unique<telemetry::TelemetryCollector>();
                      },
                      [&](std::unique_ptr<telemetry::TelemetryCollector>& c) {
                        for (const auto& e : probes.events) c->on_event(e);
                        return probes.events.size();
                      }),
            "ns");
    std::printf("telemetry.event_ns over %zu probe events\n",
                probes.events.size());

    const auto set = make_all_workloads(0.01);
    const Workload& job = *set.front(); // Sobel
    const Simulation sim;
    const RunSpec off = RunSpec::at_error_rate(0.02).seed(in.seed);
    RunSpec on = off;
    on.metrics(true);
    std::vector<double> off_s;
    std::vector<double> on_s;
    const auto start = Clock::now();
    while (off_s.size() < 2 || seconds_since(start) < 2.0 * slice) {
      auto t0 = Clock::now();
      g_sink = sim.run(job, off).energy.memoized_pj;
      off_s.push_back(seconds_since(t0));
      t0 = Clock::now();
      g_sink = sim.run(job, on).energy.memoized_pj;
      on_s.push_back(seconds_since(t0));
    }
    out.add("telemetry.overhead_x", median(on_s) / median(off_s), "x");
  }

  // -- net ------------------------------------------------------------------
  {
    auto s = spans.span("layer net");
    out.add("net.frame_ns.dispatch",
            1e9 * median_s_per_item(
                      slice, [] { return 0; },
                      [&](int&) {
                        constexpr std::size_t kFrames = 20000;
                        net::JobDispatchFrame frame;
                        std::uint64_t acc = 0;
                        for (std::size_t i = 0; i < kFrames; ++i) {
                          const std::string p = net::encode_dispatch(i, 1);
                          if (!net::decode_dispatch(p, frame)) {
                            throw std::runtime_error("dispatch frame decode");
                          }
                          acc += frame.job;
                        }
                        g_sink = static_cast<double>(acc);
                        return kFrames;
                      }),
            "ns");
    const std::string body = serialize_job_result(first_ok_job(*in.grid));
    out.add("net.frame_ns.result",
            1e9 * median_s_per_item(
                      slice, [] { return 0; },
                      [&](int&) {
                        constexpr std::size_t kFrames = 2000;
                        net::EventFrameHeader hdr;
                        std::vector<std::string> fields;
                        JobResult back;
                        for (std::size_t i = 0; i < kFrames; ++i) {
                          const std::string p = net::encode_result_frame(i, body);
                          std::istringstream row(p.substr(net::kResultBodyOffset));
                          if (!net::decode_event_header(p, hdr) ||
                              !net::verify_result_body(p) ||
                              !read_csv_record(row, fields) ||
                              !parse_job_result(fields, back)) {
                            throw std::runtime_error("result frame decode");
                          }
                        }
                        g_sink = back.wall_ms;
                        return kFrames;
                      }),
            "ns");
  }

  // -- io -------------------------------------------------------------------
  {
    auto s = spans.span("layer io");
    const std::string path = in.out_dir + "/layer.journal";
    std::remove(path.c_str());
    std::remove(campaign_checkpoint_path(path).c_str());
    constexpr std::size_t kAppends = 120;
    constexpr std::size_t kCheckpointEvery = 30;
    std::vector<double> append_us;
    std::vector<double> checkpoint_ms;
    {
      CampaignJournalWriter journal;
      journal.configure(kCheckpointEvery, std::nullopt);
      journal.open(path, "perfbench-layer-journal");
      JobResult row = first_ok_job(*in.grid);
      for (std::size_t i = 0; i < kAppends; ++i) {
        row.job.index = i;
        const auto t0 = Clock::now();
        journal.append(row);
        const double sec = seconds_since(t0);
        if ((i + 1) % kCheckpointEvery == 0) {
          checkpoint_ms.push_back(1e3 * sec);
        } else {
          append_us.push_back(1e6 * sec);
        }
      }
      journal.close();
    }
    std::remove(path.c_str());
    std::remove(campaign_checkpoint_path(path).c_str());
    out.add("io.journal_append_us.p50", percentile(append_us, 50), "us");
    out.add("io.journal_append_us.p90", percentile(append_us, 90), "us");
    out.add("io.checkpoint_ms", median(checkpoint_ms), "ms");
    std::printf("io.journal_append_us over %zu appends, io.checkpoint_ms "
                "over %zu checkpoints\n",
                append_us.size(), checkpoint_ms.size());

    const std::string artifact = in.out_dir + "/layer-artifact.csv";
    out.add("io.artifact_commit_ms",
            1e3 * median_s_per_item(
                      slice, [] { return 0; },
                      [&](int&) {
                        io::AtomicFileWriter writer;
                        writer.open(artifact);
                        write_campaign_csv(*in.grid, writer.stream());
                        writer.commit();
                        return std::size_t{1};
                      }),
            "ms");
    std::remove(artifact.c_str());
  }
}

bool measure_dispatch(const LayerInputs& in, MetricSet& out,
                      SpanRecorder& spans) {
  auto top = spans.span("layer sim dispatch");
  constexpr int kJobs = 48;
  WorkloadDef def = make_workload("fabric");
  def.spec.axis = SweepAxis::error_rate(0.0, 0.04, kJobs);
  def.spec.campaign_seed = in.seed;
  bool ok = true;

  const auto record = [&](const char* mode, const CampaignResult& r) {
    ok = ok && failed_jobs(r) == 0 && r.jobs.size() == kJobs;
    out.add(std::string("sim.dispatch_ms_per_job.") + mode,
            dispatch_ms_per_job(sum_job_ms(r), r.wall_ms, r.workers,
                                r.jobs.size()),
            "ms");
    int retries = 0;
    for (const JobResult& j : r.jobs) retries += j.attempts - 1;
    std::printf("sim.dispatch_ms_per_job.%s: %zu jobs, %d workers, "
                "%.1f ms wall; retries %d, crashes %llu, disconnects %llu, "
                "keepalive drops %llu\n",
                mode, r.jobs.size(), r.workers, r.wall_ms, retries,
                static_cast<unsigned long long>(r.worker_stats.crashes),
                static_cast<unsigned long long>(r.worker_stats.remote_disconnects),
                static_cast<unsigned long long>(
                    r.worker_stats.remote_keepalive_drops));
  };

  const CampaignEngine engine(in.workers);
  {
    auto s = spans.span("dispatch thread");
    record("thread", engine.run(def.spec));
  }
  {
    auto s = spans.span("dispatch process");
    CampaignRunOptions options;
    options.isolation = IsolationMode::kProcess;
    record("process", engine.run(def.spec, options));
  }
  {
    auto s = spans.span("dispatch remote");
    net::Listener listener;
    listener.open({"127.0.0.1", 0});
    ForkedWorkerds children;
    children.spawn(def.spec, listener.bound_port(), in.workers);
    CampaignRunOptions options;
    options.isolation = IsolationMode::kRemote;
    options.listener = &listener;
    const CampaignResult r = engine.run(def.spec, options);
    if (children.reap() != 0) ok = false;
    record("remote", r);
  }
  return ok;
}

} // namespace perfbench
