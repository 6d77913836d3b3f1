// Matching constraints for the memoization LUT comparators (paper Eq. 1).
//
// The LUT's parallel combinational comparators check every FIFO entry
// against the incoming operands in a single cycle. Two constraints exist:
//
//  * exact matching      — threshold = 0: full bit-by-bit comparison; used
//    by error-intolerant applications (FWT, EigenValue);
//  * approximate matching — threshold > 0: the absolute numerical
//    difference of every operand pair must stay within the threshold; in
//    hardware this is realized by masking less-significant fraction bits
//    through a 32-bit memory-mapped masking-vector register.
//
// Both forms are modeled. MatchConstraint::approximate() implements the
// numeric-threshold view (Eq. 1 verbatim); MatchConstraint::masked()
// implements the bit-mask view the hardware comparators actually compute.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bits.hpp"
#include "common/require.hpp"
#include "fpu/instruction.hpp"
#include "fpu/opcode.hpp"

namespace tmemo {

/// One matching constraint, applied uniformly to all operands of an
/// instruction.
class MatchConstraint {
 public:
  enum class Kind : std::uint8_t {
    kExact,      ///< bit-for-bit equality of all operands
    kThreshold,  ///< |incoming - stored| <= threshold per operand (Eq. 1)
    kMask,       ///< (bits(incoming) ^ bits(stored)) & mask == 0 per operand
  };

  /// Exact matching constraint (threshold = 0).
  [[nodiscard]] static MatchConstraint exact() noexcept {
    return MatchConstraint{Kind::kExact, 0.0f, 0xffffffffu};
  }

  /// Approximate matching with a numeric threshold; threshold <= 0 decays
  /// to exact matching (as in the paper's Table 1, threshold = 0.0 rows).
  [[nodiscard]] static MatchConstraint approximate(float threshold) noexcept {
    if (threshold <= 0.0f) return exact();
    return MatchConstraint{Kind::kThreshold, threshold, 0xffffffffu};
  }

  /// Hardware-style constraint from a 32-bit masking vector.
  [[nodiscard]] static MatchConstraint masked(std::uint32_t mask) noexcept {
    if (mask == 0xffffffffu) return exact();
    return MatchConstraint{Kind::kMask, 0.0f, mask};
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] float threshold() const noexcept { return threshold_; }
  [[nodiscard]] std::uint32_t mask() const noexcept { return mask_; }
  [[nodiscard]] bool is_exact() const noexcept { return kind_ == Kind::kExact; }

  /// Commutativity handling: when enabled (default, paper §4.2), operand
  /// pairs of commutative opcodes may match in swapped order.
  void set_allow_commutativity(bool allow) noexcept { commutative_ = allow; }
  [[nodiscard]] bool allow_commutativity() const noexcept {
    return commutative_;
  }

  /// True when `incoming` matches `stored` for opcode `op` under this
  /// constraint. Both spans must hold at least opcode_arity(op) values.
  /// Defined in the header: the LUT evaluates it for every stored entry of
  /// every lookup, so it must inline into MemoLut::lookup_checked.
  [[nodiscard]] bool operands_match(FpOpcode op,
                                    std::span<const float> stored,
                                    std::span<const float> incoming) const {
    const int arity = opcode_arity(op);
    TM_REQUIRE(static_cast<int>(stored.size()) >= arity &&
                   static_cast<int>(incoming.size()) >= arity,
               "operand spans shorter than opcode arity");

    auto all_match = [&](bool swapped) {
      for (int i = 0; i < arity; ++i) {
        int j = i;
        if (swapped && i < 2) j = 1 - i; // swap the first operand pair only
        if (!value_match(incoming[static_cast<std::size_t>(i)],
                         stored[static_cast<std::size_t>(j)])) {
          return false;
        }
      }
      return true;
    };

    if (all_match(/*swapped=*/false)) return true;
    if (commutative_ && arity >= 2 && opcode_commutative(op)) {
      return all_match(/*swapped=*/true);
    }
    return false;
  }

 private:
  MatchConstraint(Kind kind, float threshold, std::uint32_t mask) noexcept
      : kind_(kind), threshold_(threshold), mask_(mask) {}

  [[nodiscard]] bool value_match(float a, float b) const noexcept {
    switch (kind_) {
      case Kind::kExact:
        return float_to_bits(a) == float_to_bits(b);
      case Kind::kThreshold:
        return within_threshold(a, b, threshold_);
      case Kind::kMask:
        if (std::isnan(a) || std::isnan(b)) return false;
        return masked_equal(a, b, mask_);
    }
    return false;
  }

  Kind kind_;
  float threshold_;
  std::uint32_t mask_;
  bool commutative_ = true;
};

} // namespace tmemo
