// Functional (bit-accurate at single precision) semantics of the 27 modeled
// FP opcodes. This is the "golden" datapath: what an error-free FPU
// computes. Timing errors and approximate memoization perturb results at
// higher layers; the functional core itself is exact.
#pragma once

#include <array>
#include <cstdint>

#include "fpu/instruction.hpp"
#include "fpu/opcode.hpp"

namespace tmemo {

/// Evaluates `op` on up to three single-precision operands, rounding to
/// single precision exactly as the hardware datapath would.
[[nodiscard]] float evaluate_fp_op(
    FpOpcode op, const std::array<float, kMaxOperands>& operands) noexcept;

/// Convenience overload for a dynamic instruction.
[[nodiscard]] inline float evaluate_fp_op(const FpInstruction& ins) noexcept {
  return evaluate_fp_op(ins.opcode, ins.operands);
}

/// Lane-batched form, one opcode dispatch for a whole wavefront op:
/// out[i] = op(a[i], b[i], c[i]) for every lane i whose bit is set in
/// `lanes`, bit-identical to the scalar form. `b` and `c` are read only up
/// to the opcode's arity and may be null beyond it; other lanes of `out`
/// are left untouched.
void evaluate_fp_op(FpOpcode op, const float* a, const float* b,
                    const float* c, std::uint64_t lanes, float* out) noexcept;

} // namespace tmemo
