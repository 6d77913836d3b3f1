#include "fpu/opcode.hpp"

namespace tmemo {

FpuType opcode_unit(FpOpcode op) noexcept {
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

std::string_view opcode_name(FpOpcode op) noexcept {
  switch (op) {
    case FpOpcode::kAdd:    return "ADD";
    case FpOpcode::kSub:    return "SUB";
    case FpOpcode::kMul:    return "MUL";
    case FpOpcode::kMulAdd: return "MULADD";
    case FpOpcode::kMin:    return "MIN";
    case FpOpcode::kMax:    return "MAX";
    case FpOpcode::kFloor:  return "FLOOR";
    case FpOpcode::kCeil:   return "CEIL";
    case FpOpcode::kTrunc:  return "TRUNC";
    case FpOpcode::kRndNe:  return "RNDNE";
    case FpOpcode::kFract:  return "FRACT";
    case FpOpcode::kAbs:    return "ABS";
    case FpOpcode::kNeg:    return "NEG";
    case FpOpcode::kSqrt:   return "SQRT";
    case FpOpcode::kRsqrt:  return "RSQRT";
    case FpOpcode::kRecip:  return "RECIP";
    case FpOpcode::kSin:    return "SIN";
    case FpOpcode::kCos:    return "COS";
    case FpOpcode::kExp2:   return "EXP2";
    case FpOpcode::kLog2:   return "LOG2";
    case FpOpcode::kFp2Int: return "FP2INT";
    case FpOpcode::kInt2Fp: return "INT2FP";
    case FpOpcode::kSetE:   return "SETE";
    case FpOpcode::kSetGt:  return "SETGT";
    case FpOpcode::kSetGe:  return "SETGE";
    case FpOpcode::kSetNe:  return "SETNE";
    case FpOpcode::kCndGe:  return "CNDGE";
  }
  return "?";
}

std::string_view fpu_type_name(FpuType t) noexcept {
  switch (t) {
    case FpuType::kAdd:    return "ADD";
    case FpuType::kMul:    return "MUL";
    case FpuType::kMulAdd: return "MULADD";
    case FpuType::kSqrt:   return "SQRT";
    case FpuType::kRecip:  return "RECIP";
    case FpuType::kFp2Int: return "FP2INT";
    case FpuType::kInt2Fp: return "INT2FP";
    case FpuType::kTrig:   return "TRIG";
    case FpuType::kExpLog: return "EXPLOG";
  }
  return "?";
}

bool fpu_type_is_transcendental(FpuType t) noexcept {
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

int fpu_latency_cycles(FpuType t) noexcept {
  // Paper §5.1: "the RECIP has a latency of 16 cycles, while the rest of the
  // FPU have four cycles latency."
  return t == FpuType::kRecip ? 16 : 4;
}

} // namespace tmemo
