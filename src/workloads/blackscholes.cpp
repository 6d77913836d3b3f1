#include "workloads/blackscholes.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "kernel/launch.hpp"

namespace tmemo {

namespace {

// Abramowitz-Stegun CND polynomial coefficients (the SDK sample's values).
constexpr float kA1 = 0.319381530f;
constexpr float kA2 = -0.356563782f;
constexpr float kA3 = 1.781477937f;
constexpr float kA4 = -1.821255978f;
constexpr float kA5 = 1.330274429f;
constexpr float kGamma = 0.2316419f;
constexpr float kInvSqrt2Pi = 0.39894228040143267794f;
constexpr float kLog2E = 1.4426950408889634f;
constexpr float kLn2 = 0.6931471805599453f;

/// Device-side cumulative normal distribution.
LaneVec cnd(WavefrontCtx& wf, const LaneVec& d) {
  const LaneVec one = wf.splat(1.0f);
  const LaneVec absd = wf.abs(d);
  const LaneVec k =
      wf.recip(wf.muladd(wf.splat(kGamma), absd, one));
  // Horner evaluation of the degree-5 polynomial in k (coefficient * k^i).
  LaneVec poly = wf.splat(kA5);
  poly = wf.muladd(poly, k, wf.splat(kA4));
  poly = wf.muladd(poly, k, wf.splat(kA3));
  poly = wf.muladd(poly, k, wf.splat(kA2));
  poly = wf.muladd(poly, k, wf.splat(kA1));
  poly = wf.mul(poly, k);
  const LaneVec pdf = wf.mul(
      wf.splat(kInvSqrt2Pi),
      wf.exp(wf.mul(wf.splat(-0.5f), wf.mul(d, d))));
  const LaneVec cnd_pos = wf.sub(one, wf.mul(pdf, poly));
  return wf.cndge(d, cnd_pos, wf.sub(one, cnd_pos));
}

/// Host-side mirror of the DSL lowering (exp/log via exp2/log2, division
/// via reciprocal, fmaf where the kernel uses MULADD) so that an
/// exact-matching error-free device run is bit-identical.
float h_exp(float a) { return ::exp2f(a * kLog2E); }
float h_log(float a) { return ::log2f(a) * kLn2; }
float h_div(float a, float b) { return a * (1.0f / b); }

float h_cnd(float d) {
  const float absd = ::fabsf(d);
  const float k = 1.0f / ::fmaf(kGamma, absd, 1.0f);
  float poly = kA5;
  poly = ::fmaf(poly, k, kA4);
  poly = ::fmaf(poly, k, kA3);
  poly = ::fmaf(poly, k, kA2);
  poly = ::fmaf(poly, k, kA1);
  poly = poly * k;
  const float pdf = kInvSqrt2Pi * h_exp(-0.5f * (d * d));
  const float cnd_pos = 1.0f - pdf * poly;
  return d >= 0.0f ? cnd_pos : 1.0f - cnd_pos;
}

} // namespace

OptionInputs make_option_inputs(std::size_t n, std::uint64_t seed) {
  Xorshift128 rng(seed);
  OptionInputs in;
  in.stock_price.resize(n);
  in.strike_price.resize(n);
  in.years.resize(n);
  // Inputs follow the structure of a real option chain rather than a flat
  // random continuum: one underlying (a single spot price), strikes quoted
  // on a fixed grid, and the ten standard whole-year tenors. The discrete
  // value alphabets are what give the maturity- and strike-dependent
  // subexpressions their operand repetition.
  const float spot = 100.0f;
  for (std::size_t i = 0; i < n; ++i) {
    in.stock_price[i] = spot;
    in.strike_price[i] = 50.0f + 5.0f * static_cast<float>(rng.next_below(20));
    in.years[i] = 1.0f + static_cast<float>(rng.next_below(10));
  }
  return in;
}

std::vector<float> blackscholes_on_device(GpuDevice& device,
                                          const OptionInputs& in) {
  const std::size_t n = in.size();
  std::vector<float> out(2 * n);
  const float r = in.riskfree_rate;
  const float v = in.volatility;
  const float drift = r + 0.5f * v * v;

  launch(device, n, [&](WavefrontCtx& wf) {
    auto by_gid = [](int, WorkItemId gid) {
      return static_cast<std::size_t>(gid);
    };
    const LaneVec S = wf.gather(in.stock_price, by_gid);
    const LaneVec K = wf.gather(in.strike_price, by_gid);
    const LaneVec T = wf.gather(in.years, by_gid);
    const LaneVec one = wf.splat(1.0f);

    const LaneVec sqrtT = wf.sqrt(T);
    const LaneVec vsT = wf.mul(wf.splat(v), sqrtT);
    const LaneVec logSK = wf.log(wf.div(S, K));
    const LaneVec d1 =
        wf.div(wf.muladd(wf.splat(drift), T, logSK), vsT);
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

std::vector<float> blackscholes_reference(const OptionInputs& in) {
  const std::size_t n = in.size();
  std::vector<float> out(2 * n);
  const float r = in.riskfree_rate;
  const float v = in.volatility;
  const float drift = r + 0.5f * v * v;

  for (std::size_t i = 0; i < n; ++i) {
    const float S = in.stock_price[i];
    const float K = in.strike_price[i];
    const float T = in.years[i];
    const float sqrtT = ::sqrtf(T);
    const float vsT = v * sqrtT;
    const float logSK = h_log(h_div(S, K));
    const float d1 = h_div(::fmaf(drift, T, logSK), vsT);
    const float d2 = d1 - vsT;
    const float cnd1 = h_cnd(d1);
    const float cnd2 = h_cnd(d2);
    const float disc = h_exp(-r * T);
    const float Kdisc = K * disc;
    out[i] = S * cnd1 - Kdisc * cnd2;
    out[n + i] = Kdisc * (1.0f - cnd2) - S * (1.0f - cnd1);
  }
  return out;
}

BlackScholesWorkload::BlackScholesWorkload(std::size_t samples,
                                           std::uint64_t seed)
    : samples_(samples), inputs_(make_option_inputs(samples * 4096, seed)) {}

WorkloadResult BlackScholesWorkload::run(GpuDevice& device) const {
  const std::vector<float> got = blackscholes_on_device(device, inputs_);
  const std::vector<float> golden = blackscholes_reference(inputs_);
  return compare_outputs_rel_rms(got, golden, verify_tolerance());
}

std::uint64_t BlackScholesWorkload::fp_op_count() const {
  // Per option: 22 ops for d1, d2, the discount and the two prices, plus
  // 17 for each of the two cnd() evaluations.
  return (22 + 2 * 17) * static_cast<std::uint64_t>(inputs_.size());
}

} // namespace tmemo
