#include "fpu/opcode.hpp"

namespace tmemo {

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

} // namespace tmemo
