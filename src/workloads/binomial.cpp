#include "workloads/binomial.hpp"

#include <cmath>

#include "common/require.hpp"
#include "kernel/launch.hpp"

namespace tmemo {

namespace {
constexpr float kLog2E = 1.4426950408889634f;
float h_exp(float a) { return ::exp2f(a * kLog2E); }
float h_div(float a, float b) { return a * (1.0f / b); }
} // namespace

std::vector<float> binomial_on_device(GpuDevice& device,
                                      const OptionInputs& in, int steps) {
  TM_REQUIRE(steps >= 1, "lattice needs at least one step");
  const std::size_t n = in.size();
  std::vector<float> out(n);
  const float r = in.riskfree_rate;
  const float vol = in.volatility;

  launch(device, n, [&](WavefrontCtx& wf) {
    auto by_gid = [](int, WorkItemId gid) {
      return static_cast<std::size_t>(gid);
    };
    const LaneVec S = wf.gather(in.stock_price, by_gid);
    const LaneVec strike = wf.gather(in.strike_price, by_gid);
    const LaneVec T = wf.gather(in.years, by_gid);
    const LaneVec zero = wf.splat(0.0f);
    const LaneVec one = wf.splat(1.0f);
    const LaneVec stepsv = wf.splat(static_cast<float>(steps));

    // Lattice parameters (per lane: T differs).
    const LaneVec dt = wf.div(T, stepsv);
    const LaneVec vsdt = wf.mul(wf.splat(vol), wf.sqrt(dt));
    const LaneVec u = wf.exp(vsdt);
    const LaneVec d = wf.recip(u);
    const LaneVec growth = wf.exp(wf.mul(wf.splat(r), dt));
    const LaneVec disc = wf.recip(growth);
    const LaneVec pu = wf.div(wf.sub(growth, d), wf.sub(u, d));
    const LaneVec pd = wf.sub(one, pu);
    const LaneVec u2 = wf.mul(u, u);

    // Leaf payoffs: price_0 = S * d^steps, price_{i+1} = price_i * u^2.
    std::vector<LaneVec> value(static_cast<std::size_t>(steps) + 1);
    LaneVec price = wf.mul(S, wf.exp(wf.mul(wf.neg(stepsv), vsdt)));
    for (int i = 0; i <= steps; ++i) {
      value[static_cast<std::size_t>(i)] =
          wf.max(wf.sub(price, strike), zero);
      if (i < steps) price = wf.mul(price, u2);
    }

    // Backward induction.
    for (int s = steps; s >= 1; --s) {
      for (int i = 0; i < s; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        value[ui] = wf.mul(
            disc, wf.muladd(pu, value[ui + 1], wf.mul(pd, value[ui])));
      }
    }
    wf.scatter(out, value[0], by_gid);
  });
  return out;
}

std::vector<float> binomial_reference(const OptionInputs& in, int steps) {
  TM_REQUIRE(steps >= 1, "lattice needs at least one step");
  const std::size_t n = in.size();
  std::vector<float> out(n);
  const float r = in.riskfree_rate;
  const float vol = in.volatility;
  std::vector<float> value(static_cast<std::size_t>(steps) + 1);

  for (std::size_t opt = 0; opt < n; ++opt) {
    const float S = in.stock_price[opt];
    const float strike = in.strike_price[opt];
    const float T = in.years[opt];
    const float stepsf = static_cast<float>(steps);

    const float dt = h_div(T, stepsf);
    const float vsdt = vol * ::sqrtf(dt);
    const float u = h_exp(vsdt);
    const float d = 1.0f / u;
    const float growth = h_exp(r * dt);
    const float disc = 1.0f / growth;
    const float pu = h_div(growth - d, u - d);
    const float pd = 1.0f - pu;
    const float u2 = u * u;

    float price = S * h_exp(-stepsf * vsdt);
    for (int i = 0; i <= steps; ++i) {
      value[static_cast<std::size_t>(i)] =
          ::fmaxf(price - strike, 0.0f);
      if (i < steps) price = price * u2;
    }
    for (int s = steps; s >= 1; --s) {
      for (int i = 0; i < s; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        value[ui] =
            disc * ::fmaf(pu, value[ui + 1], pd * value[ui]);
      }
    }
    out[opt] = value[0];
  }
  return out;
}

BinomialOptionWorkload::BinomialOptionWorkload(std::size_t samples, int steps,
                                               std::uint64_t seed)
    : inputs_(make_option_inputs(samples, seed)), steps_(steps) {}

WorkloadResult BinomialOptionWorkload::run(GpuDevice& device) const {
  const std::vector<float> got = binomial_on_device(device, inputs_, steps_);
  const std::vector<float> golden = binomial_reference(inputs_, steps_);
  return compare_outputs_rel_rms(got, golden, verify_tolerance());
}

std::uint64_t BinomialOptionWorkload::fp_op_count() const {
  // Per option: 22 ops of lattice parameters and the first leaf price,
  // SUB + MAX per leaf and a MUL between leaves, then MUL, MULADD, MUL per
  // node of the backward induction.
  const auto steps = static_cast<std::uint64_t>(steps_);
  const std::uint64_t per_option =
      22 + 2 * (steps + 1) + steps + 3 * (steps * (steps + 1) / 2);
  return per_option * static_cast<std::uint64_t>(inputs_.size());
}

} // namespace tmemo
