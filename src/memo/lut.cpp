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

MemoLut::LookupResult MemoLut::lookup_checked(
    const FpInstruction& ins, const MatchConstraint& constraint) {
  ++stats_.lookups;
  if (parity_protected_) drop_parity_failures();
  LookupResult res;
  const auto matches = [&](const LutEntry& entry) {
    if (entry.opcode != ins.opcode ||
        !constraint.operands_match(ins.opcode, entry.operands,
                                   ins.operands)) {
      return false;
    }
    ++stats_.hits;
    res.hit = true;
    res.value = entry.result;
    res.corrupted = entry.corrupted();
    if (res.corrupted) ++stats_.corrupt_hits;
    return true;
  };
  if (ring_.empty()) return res;
  // Newest first: slots head_ down to 0, then (full ring only) the wrapped
  // part from the last slot down to head_ + 1.
  for (std::size_t k = head_ + 1; k-- > 0;) {
    if (matches(ring_[k])) return res;
  }
  for (std::size_t k = ring_.size(); k-- > head_ + 1;) {
    if (matches(ring_[k])) return res;
  }
  return res;
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

void MemoLut::update(const FpInstruction& ins, float result) {
  LutEntry entry;
  entry.opcode = ins.opcode;
  entry.operands = ins.operands;
  entry.result = result;
  push(entry);
  ++stats_.updates;
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

void MemoLut::push(const LutEntry& entry) {
  const auto depth = static_cast<std::size_t>(depth_);
  if (ring_.size() < depth) {
    // Grow with occupancy, never past the depth.
    if (ring_.size() == ring_.capacity()) {
      ring_.reserve(std::min(depth, std::max<std::size_t>(
                                        2, 2 * ring_.capacity())));
    }
    ring_.push_back(entry);
    head_ = ring_.size() - 1;
  } else {
    head_ = head_ + 1 == depth ? 0 : head_ + 1;
    ring_[head_] = entry;
  }
}

} // namespace tmemo
