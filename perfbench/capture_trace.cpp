// perfbench_capture — records the fixed operand streams the per-layer
// loops replay (perfbench/data/*.tmtr).
//
//   perfbench_capture sobel OUT.tmtr         # 48x48 synthetic face
//   perfbench_capture blackscholes OUT.tmtr  # 512 options, input seed 77
//
// Workload::run feeds the device's own energy sink, so the capture
// launches the same kernel bodies (transcribed from src/workloads/sobel.cpp
// and blackscholes.cpp) with a TraceWriter as the sink, on an error-free,
// exact-matching device. It then checks the transcription: the captured
// per-unit instruction counts and the outputs must equal those of the
// library's own kernel on the same input. The streams are captured once and checked in, so the layer
// timings never depend on the code under test.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>

#include "gpu/device.hpp"
#include "img/synthetic.hpp"
#include "kernel/ctx.hpp"
#include "trace/trace.hpp"
#include "workloads/blackscholes.hpp"
#include "workloads/sobel.hpp"

namespace {

using namespace tmemo;

constexpr int kSobelSide = 48;
constexpr std::size_t kOptions = 512;
constexpr std::uint64_t kOptionSeed = 77;

/// launch() with a caller-chosen sink.
template <typename Body>
void launch_into(GpuDevice& device, ExecutionSink& sink, std::size_t n,
                 Body&& body) {
  const int wf = device.config().wavefront_size;
  for (std::size_t base = 0; base < n; base += static_cast<std::size_t>(wf)) {
    const std::size_t lanes = std::min<std::size_t>(wf, n - base);
    const std::uint64_t mask = lanes >= 64 ? ~0ull : (1ull << lanes) - 1ull;
    WavefrontCtx ctx(device.compute_unit(0), device.error_model(), &sink, wf,
                     static_cast<WorkItemId>(base), mask);
    body(ctx);
  }
}

std::vector<float> sobel_body(GpuDevice& device, ExecutionSink& sink,
                              const Image& img) {
  Image out(img.width(), img.height());
  const auto neighbor = [&img](const WavefrontCtx& wf, int dx, int dy) {
    return wf.gather(img.pixels(), [&](int, WorkItemId gid) {
      const int w = img.width();
      const int x = static_cast<int>(gid % static_cast<WorkItemId>(w));
      const int y = static_cast<int>(gid / static_cast<WorkItemId>(w));
      const int cx = std::clamp(x + dx, 0, img.width() - 1);
      const int cy = std::clamp(y + dy, 0, img.height() - 1);
      return static_cast<std::size_t>(cy) * static_cast<std::size_t>(w) +
             static_cast<std::size_t>(cx);
    });
  };
  launch_into(device, sink, img.size(), [&](WavefrontCtx& wf) {
    const LaneVec p00 = neighbor(wf, -1, -1);
    const LaneVec p01 = neighbor(wf, 0, -1);
    const LaneVec p02 = neighbor(wf, 1, -1);
    const LaneVec p10 = neighbor(wf, -1, 0);
    const LaneVec p12 = neighbor(wf, 1, 0);
    const LaneVec p20 = neighbor(wf, -1, 1);
    const LaneVec p21 = neighbor(wf, 0, 1);
    const LaneVec p22 = neighbor(wf, 1, 1);
    const LaneVec two = wf.splat(2.0f);
    LaneVec gx = wf.add(wf.sub(p02, p00), wf.sub(p22, p20));
    gx = wf.muladd(two, wf.sub(p12, p10), gx);
    LaneVec gy = wf.add(wf.sub(p20, p00), wf.sub(p22, p02));
    gy = wf.muladd(two, wf.sub(p21, p01), gy);
    const LaneVec mag2 = wf.muladd(gx, gx, wf.mul(gy, gy));
    const LaneVec mag = wf.mul(wf.sqrt(mag2), wf.splat(0.5f));
    const LaneVec q = wf.fp2int(wf.min(mag, wf.splat(255.0f)));
    wf.scatter(out.pixels(), q,
               [](int, WorkItemId gid) { return static_cast<std::size_t>(gid); });
  });
  const auto px = out.pixels();
  return {px.begin(), px.end()};
}

LaneVec cnd(WavefrontCtx& wf, const LaneVec& d) {
  const LaneVec one = wf.splat(1.0f);
  const LaneVec k =
      wf.recip(wf.muladd(wf.splat(0.2316419f), wf.abs(d), one));
  LaneVec poly = wf.splat(1.330274429f);
  poly = wf.muladd(poly, k, wf.splat(-1.821255978f));
  poly = wf.muladd(poly, k, wf.splat(1.781477937f));
  poly = wf.muladd(poly, k, wf.splat(-0.356563782f));
  poly = wf.muladd(poly, k, wf.splat(0.319381530f));
  poly = wf.mul(poly, k);
  const LaneVec pdf =
      wf.mul(wf.splat(0.39894228040143267794f),
             wf.exp(wf.mul(wf.splat(-0.5f), wf.mul(d, d))));
  const LaneVec cnd_pos = wf.sub(one, wf.mul(pdf, poly));
  return wf.cndge(d, cnd_pos, wf.sub(one, cnd_pos));
}

std::vector<float> blackscholes_body(GpuDevice& device, ExecutionSink& sink,
                                     const OptionInputs& in) {
  const std::size_t n = in.size();
  std::vector<float> out(2 * n);
  const float r = in.riskfree_rate;
  const float v = in.volatility;
  const float drift = r + 0.5f * v * v;
  launch_into(device, sink, n, [&](WavefrontCtx& wf) {
    const auto by_gid = [](int, WorkItemId gid) {
      return static_cast<std::size_t>(gid);
    };
    const LaneVec S = wf.gather(in.stock_price, by_gid);
    const LaneVec K = wf.gather(in.strike_price, by_gid);
    const LaneVec T = wf.gather(in.years, by_gid);
    const LaneVec one = wf.splat(1.0f);
    const LaneVec vsT = wf.mul(wf.splat(v), wf.sqrt(T));
    const LaneVec logSK = wf.log(wf.div(S, K));
    const LaneVec d1 = wf.div(wf.muladd(wf.splat(drift), T, logSK), vsT);
    const LaneVec d2 = wf.sub(d1, vsT);
    const LaneVec cnd1 = cnd(wf, d1);
    const LaneVec cnd2 = cnd(wf, d2);
    const LaneVec disc = wf.exp(wf.mul(wf.splat(-r), T));
    const LaneVec Kdisc = wf.mul(K, disc);
    const LaneVec call = wf.sub(wf.mul(S, cnd1), wf.mul(Kdisc, cnd2));
    const LaneVec put = wf.sub(wf.mul(Kdisc, wf.sub(one, cnd2)),
                               wf.mul(S, wf.sub(one, cnd1)));
    wf.scatter(out, call, by_gid);
    wf.scatter(out, put, [n](int, WorkItemId gid) {
      return n + static_cast<std::size_t>(gid);
    });
  });
  return out;
}

GpuDevice exact_device() {
  GpuDevice d(DeviceConfig::single_cu());
  d.program_exact();
  return d;
}

std::array<std::uint64_t, kNumFpuTypes> unit_counts(const GpuDevice& d) {
  std::array<std::uint64_t, kNumFpuTypes> n{};
  const auto stats = d.unit_stats();
  for (std::size_t i = 0; i < n.size(); ++i) n[i] = stats[i].instructions;
  return n;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return 1e30;
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return m;
}

} // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s sobel|blackscholes OUT.tmtr\n", argv[0]);
    return 2;
  }
  const std::string which = argv[1];
  GpuDevice capture = exact_device();
  GpuDevice library = exact_device();
  TraceWriter writer(&capture.sink());
  std::vector<float> got;
  std::vector<float> want;
  if (which == "sobel") {
    const Image face = make_face_image(kSobelSide, kSobelSide);
    got = sobel_body(capture, writer, face);
    const Image ref = sobel_on_device(library, face);
    want.assign(ref.pixels().begin(), ref.pixels().end());
  } else if (which == "blackscholes") {
    const OptionInputs in = make_option_inputs(kOptions, kOptionSeed);
    got = blackscholes_body(capture, writer, in);
    want = blackscholes_on_device(library, in);
  } else {
    std::fprintf(stderr, "unknown stream '%s'\n", which.c_str());
    return 2;
  }
  if (unit_counts(capture) != unit_counts(library) || got != want) {
    std::fprintf(stderr,
                 "captured kernel diverges from the library kernel "
                 "(max |diff| %g)\n",
                 max_abs_diff(got, want));
    return 1;
  }
  writer.save(argv[2]);
  std::printf("%s: %zu events -> %s\n", which.c_str(), writer.size(), argv[2]);
  return 0;
}
