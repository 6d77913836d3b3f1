// The 27 single-precision floating-point instructions modeled by the
// library, and their mapping onto physical FPU types.
//
// The paper (§1, §5) collects value-locality statistics over "27 single
// precision floating-point instructions" of the AMD Evergreen ISA and
// reports energy for the six frequently exercised functional-unit types
// (ADD, MUL, SQRT, RECIP, MULADD, FP2INT). We model the same structure: a
// rich opcode set, each opcode steered to one of the physical FPU pipeline
// types that actually executes it.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace tmemo {

/// Single-precision FP opcodes (Evergreen ALU-clause subset, 27 entries).
enum class FpOpcode : std::uint8_t {
  kAdd,      ///< d = a + b
  kSub,      ///< d = a - b
  kMul,      ///< d = a * b
  kMulAdd,   ///< d = a * b + c
  kMin,      ///< d = min(a, b)
  kMax,      ///< d = max(a, b)
  kFloor,    ///< d = floor(a)
  kCeil,     ///< d = ceil(a)
  kTrunc,    ///< d = trunc(a)
  kRndNe,    ///< d = round-to-nearest-even(a)
  kFract,    ///< d = a - floor(a)
  kAbs,      ///< d = |a|
  kNeg,      ///< d = -a
  kSqrt,     ///< d = sqrt(a)
  kRsqrt,    ///< d = 1 / sqrt(a)
  kRecip,    ///< d = 1 / a
  kSin,      ///< d = sin(a)
  kCos,      ///< d = cos(a)
  kExp2,     ///< d = 2^a
  kLog2,     ///< d = log2(a)
  kFp2Int,   ///< d = (float)(int32)a   (FLT_TO_INT; result kept in FP regs)
  kInt2Fp,   ///< d = (float)trunc(a)   (INT_TO_FLT of an integer-valued reg)
  kSetE,     ///< d = (a == b) ? 1.0f : 0.0f
  kSetGt,    ///< d = (a >  b) ? 1.0f : 0.0f
  kSetGe,    ///< d = (a >= b) ? 1.0f : 0.0f
  kSetNe,    ///< d = (a != b) ? 1.0f : 0.0f
  kCndGe,    ///< d = (a >= 0) ? b : c  (conditional move)
};

/// Total number of modeled FP opcodes.
inline constexpr int kNumFpOpcodes = 27;

/// Physical FPU pipeline types. Every stream core's ALU engine owns a pool
/// of these pipelined units; every instance carries its own EDS sensors and
/// its own temporal-memoization LUT.
enum class FpuType : std::uint8_t {
  kAdd,     ///< add/sub/compare/round datapath
  kMul,     ///< multiplier
  kMulAdd,  ///< fused multiply-add
  kSqrt,    ///< square root / reciprocal square root (T-unit)
  kRecip,   ///< reciprocal (T-unit, deep pipeline)
  kFp2Int,  ///< float -> int conversion
  kInt2Fp,  ///< int -> float conversion
  kTrig,    ///< sin / cos (T-unit)
  kExpLog,  ///< exp2 / log2 (T-unit)
};

/// Total number of physical FPU pipeline types.
inline constexpr int kNumFpuTypes = 9;

/// All FPU types, for iteration.
inline constexpr std::array<FpuType, kNumFpuTypes> kAllFpuTypes = {
    FpuType::kAdd,    FpuType::kMul,    FpuType::kMulAdd,
    FpuType::kSqrt,   FpuType::kRecip,  FpuType::kFp2Int,
    FpuType::kInt2Fp, FpuType::kTrig,   FpuType::kExpLog,
};

/// The six frequently exercised FPU types whose energy the paper reports
/// (Fig. 10 / Fig. 11 captions).
inline constexpr std::array<FpuType, 6> kReportedFpuTypes = {
    FpuType::kAdd,    FpuType::kMul,    FpuType::kSqrt,
    FpuType::kRecip,  FpuType::kMulAdd, FpuType::kFp2Int,
};

/// Number of float source operands the opcode consumes (1..3). Defined
/// here so the LUT comparators inline it.
[[nodiscard]] constexpr int opcode_arity(FpOpcode op) noexcept {
  switch (op) {
    case FpOpcode::kFloor:
    case FpOpcode::kCeil:
    case FpOpcode::kTrunc:
    case FpOpcode::kRndNe:
    case FpOpcode::kFract:
    case FpOpcode::kAbs:
    case FpOpcode::kNeg:
    case FpOpcode::kSqrt:
    case FpOpcode::kRsqrt:
    case FpOpcode::kRecip:
    case FpOpcode::kSin:
    case FpOpcode::kCos:
    case FpOpcode::kExp2:
    case FpOpcode::kLog2:
    case FpOpcode::kFp2Int:
    case FpOpcode::kInt2Fp:
      return 1;
    case FpOpcode::kMulAdd:
    case FpOpcode::kCndGe:
      return 3;
    default:
      return 2;
  }
}

/// Physical FPU type that executes the opcode. Defined here, like the
/// other per-op mappings below, so the issue path inlines it.
[[nodiscard]] inline FpuType opcode_unit(FpOpcode op) noexcept {
  switch (op) {
    case FpOpcode::kMul:
      return FpuType::kMul;
    case FpOpcode::kMulAdd:
      return FpuType::kMulAdd;
    case FpOpcode::kSqrt:
    case FpOpcode::kRsqrt:
      return FpuType::kSqrt;
    case FpOpcode::kRecip:
      return FpuType::kRecip;
    case FpOpcode::kFp2Int:
      return FpuType::kFp2Int;
    case FpOpcode::kInt2Fp:
      return FpuType::kInt2Fp;
    case FpOpcode::kSin:
    case FpOpcode::kCos:
      return FpuType::kTrig;
    case FpOpcode::kExp2:
    case FpOpcode::kLog2:
      return FpuType::kExpLog;
    default:
      // add/sub, compares, min/max, rounding, abs/neg, conditional move all
      // share the adder/compare datapath.
      return FpuType::kAdd;
  }
}

/// True when swapping the first two operands cannot change the result
/// (ADD, MUL, MIN, MAX, SETE, SETNE, and the multiplicand pair of MULADD).
/// The LUT comparators exploit this (paper §4.2: "allow commutativity of
/// the operands where applicable").
[[nodiscard]] inline bool opcode_commutative(FpOpcode op) noexcept {
  switch (op) {
    case FpOpcode::kAdd:
    case FpOpcode::kMul:
    case FpOpcode::kMulAdd: // the a*b multiplicand pair commutes
    case FpOpcode::kMin:
    case FpOpcode::kMax:
    case FpOpcode::kSetE:
    case FpOpcode::kSetNe:
      return true;
    default:
      return false;
  }
}

/// Mnemonic, e.g. "MULADD".
[[nodiscard]] std::string_view opcode_name(FpOpcode op) noexcept;

/// Unit-type name, e.g. "MULADD", "FP2INT".
[[nodiscard]] std::string_view fpu_type_name(FpuType t) noexcept;

/// True for units that live on the transcendental (T) processing element of
/// a stream core; all other units are replicated across the X/Y/Z/W PEs.
[[nodiscard]] inline bool fpu_type_is_transcendental(FpuType t) noexcept {
  switch (t) {
    case FpuType::kSqrt:
    case FpuType::kRecip:
    case FpuType::kTrig:
    case FpuType::kExpLog:
      return true;
    default:
      return false;
  }
}

/// Pipeline depth in cycles at the signoff frequency. Per the paper (§5.1):
/// every Evergreen ALU functional unit has a latency of four cycles and a
/// throughput of one instruction per cycle, except RECIP which is pipelined
/// to 16 stages to balance the clock across the FP pipelines.
[[nodiscard]] inline int fpu_latency_cycles(FpuType t) noexcept {
  // Paper §5.1: "the RECIP has a latency of 16 cycles, while the rest of the
  // FPU have four cycles latency."
  return t == FpuType::kRecip ? 16 : 4;
}

} // namespace tmemo
