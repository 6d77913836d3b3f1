#include "fpu/semantics.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace tmemo {

namespace {

/// The golden datapath of one opcode, shared by the scalar and the
/// lane-batched forms. Always inlined, so a constant `op` folds the switch.
[[gnu::always_inline]] inline float apply(FpOpcode op, float a, float b,
                                          float c) noexcept {
  switch (op) {
    case FpOpcode::kAdd:    return a + b;
    case FpOpcode::kSub:    return a - b;
    case FpOpcode::kMul:    return a * b;
    case FpOpcode::kMulAdd: return ::fmaf(a, b, c);
    case FpOpcode::kMin:    return ::fminf(a, b);
    case FpOpcode::kMax:    return ::fmaxf(a, b);
    case FpOpcode::kFloor:  return ::floorf(a);
    case FpOpcode::kCeil:   return ::ceilf(a);
    case FpOpcode::kTrunc:  return ::truncf(a);
    case FpOpcode::kRndNe:  return ::nearbyintf(a);
    case FpOpcode::kFract:  return a - ::floorf(a);
    case FpOpcode::kAbs:    return ::fabsf(a);
    case FpOpcode::kNeg:    return -a;
    case FpOpcode::kSqrt:   return ::sqrtf(a);
    case FpOpcode::kRsqrt:  return 1.0f / ::sqrtf(a);
    case FpOpcode::kRecip:  return 1.0f / a;
    case FpOpcode::kSin:    return ::sinf(a);
    case FpOpcode::kCos:    return ::cosf(a);
    case FpOpcode::kExp2:   return ::exp2f(a);
    case FpOpcode::kLog2:   return ::log2f(a);
    case FpOpcode::kFp2Int: {
      // FLT_TO_INT with saturation, result materialized back into an FP reg
      // (Evergreen keeps integer values in the shared GPR file).
      if (std::isnan(a)) return 0.0f;
      const float clamped =
          ::fminf(::fmaxf(a, -2147483648.0f), 2147483520.0f);
      return static_cast<float>(static_cast<std::int32_t>(clamped));
    }
    case FpOpcode::kInt2Fp: return ::truncf(a);
    // SETE/SETNE are the ISA's own bit-exact comparison ops; an epsilon
    // here would change the architected semantics being modeled.
    case FpOpcode::kSetE:   return a == b ? 1.0f : 0.0f;  // tmemo-lint: allow(float-equality)
    case FpOpcode::kSetGt:  return a > b ? 1.0f : 0.0f;
    case FpOpcode::kSetGe:  return a >= b ? 1.0f : 0.0f;
    case FpOpcode::kSetNe:  return a != b ? 1.0f : 0.0f;  // tmemo-lint: allow(float-equality)
    case FpOpcode::kCndGe:  return a >= 0.0f ? b : c;
  }
  return 0.0f;
}

template <FpOpcode Op>
void apply_lanes(const float* a, const float* b, const float* c,
                 std::uint64_t lanes, float* out) noexcept {
  constexpr int arity = opcode_arity(Op);
  for (; lanes != 0; lanes &= lanes - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(lanes));
    out[i] = apply(Op, a[i], arity >= 2 ? b[i] : 0.0f,
                   arity >= 3 ? c[i] : 0.0f);
  }
}

using LaneFn = void (*)(const float*, const float*, const float*,
                        std::uint64_t, float*) noexcept;

template <std::size_t... Op>
constexpr std::array<LaneFn, sizeof...(Op)> lane_table(
    std::index_sequence<Op...>) {
  return {&apply_lanes<static_cast<FpOpcode>(Op)>...};
}

constexpr auto kLaneFns =
    lane_table(std::make_index_sequence<kNumFpOpcodes>{});

} // namespace

float evaluate_fp_op(FpOpcode op,
                     const std::array<float, kMaxOperands>& v) noexcept {
  return apply(op, v[0], v[1], v[2]);
}

void evaluate_fp_op(FpOpcode op, const float* a, const float* b,
                    const float* c, std::uint64_t lanes, float* out) noexcept {
  kLaneFns[static_cast<std::size_t>(op)](a, b, c, lanes, out);
}

} // namespace tmemo
