#include "memo/lut.hpp"

#include <algorithm>
#include <cstddef>

#include "common/bits.hpp"

namespace tmemo {

std::optional<float> MemoLut::lookup(const FpInstruction& ins,
                                     const MatchConstraint& constraint) {
  const LookupResult res = lookup_checked(ins, constraint);
  if (!res.hit) return std::nullopt;
  return res.value;
}

void MemoLut::drop_parity_failures() {
  // The comparator bank reads every line each lookup, so the per-entry
  // parity bit is checked on all of them; lines whose stored bits no
  // longer match parity (odd flip count) are invalidated before matching.
  // An even flip count restores parity and escapes, as in real hardware.
  const auto parity_fails = [](const LutEntry& e) {
    return e.seu_flips % 2 != 0;
  };
  if (std::none_of(ring_.begin(), ring_.end(), parity_fails)) return;
  // Unroll the ring oldest-first so the survivors keep their FIFO order.
  std::rotate(ring_.begin(),
              ring_.begin() + static_cast<std::ptrdiff_t>(slot(size() - 1)),
              ring_.end());
  stats_.parity_invalidations += std::erase_if(ring_, parity_fails);
  head_ = ring_.empty() ? 0 : ring_.size() - 1;
}

void MemoLut::preload(const LutEntry& entry) { push(entry); }

void MemoLut::corrupt_bit(int entry_index, int word, int bit) {
  TM_REQUIRE(entry_index >= 0 && entry_index < size(),
             "corrupt_bit entry index out of range");
  TM_REQUIRE(word >= 0 && word <= kMaxOperands,
             "corrupt_bit word out of range");
  TM_REQUIRE(bit >= 0 && bit < 32, "corrupt_bit bit out of range");
  LutEntry& entry = ring_[slot(entry_index)];
  const std::uint32_t mask = 1u << bit;
  if (word < kMaxOperands) {
    float& w = entry.operands[static_cast<std::size_t>(word)];
    w = bits_to_float(float_to_bits(w) ^ mask);
  } else {
    entry.result = bits_to_float(float_to_bits(entry.result) ^ mask);
  }
  if (entry.seu_flips < 255) ++entry.seu_flips;
}

} // namespace tmemo
