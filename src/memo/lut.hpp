// The single-cycle memoization lookup table (paper §4.2, Fig. 9 bottom).
//
// Structure: a small FIFO (two entries in the paper's final design) in
// which every entry holds a set of input operands together with the result
// computed by the FPU's last stage (Q_S), plus a bank of parallel
// combinational comparators that evaluate the matching constraint against
// all entries concurrently in one cycle.
//
// Replacement is strict FIFO (paper: "the FIFO will be updated by cleaning
// its last entry and inserting the new incoming operands accordingly") —
// not LRU: a hit does not reorder entries.
//
// Storage is a flat ring that grows with occupancy up to the depth, so a
// deep FIFO (bench/fifo_size_sweep goes to 4096) costs nothing until it is
// filled, and a full FIFO evicts by overwriting its oldest slot.
//
// lookup_checked(), update() and push() are defined in this header: the
// FPU transaction runs them for every lane, and they inline into it
// (lookup_checked() always: every compute-unit issue loop instantiation
// holds one copy).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/require.hpp"
#include "fpu/instruction.hpp"
#include "memo/match.hpp"

namespace tmemo {

/// One FIFO entry: memorized operands and the memorized result (Q_S of an
/// error-free execution).
struct LutEntry {
  FpOpcode opcode = FpOpcode::kAdd;
  std::array<float, kMaxOperands> operands{0.0f, 0.0f, 0.0f};
  float result = 0.0f;
  /// SEU bookkeeping (src/inject/): bit flips this entry has absorbed since
  /// it was written. The modeled parity bit catches odd counts only, like
  /// real single-parity SRAM. Saturates at 255 (far beyond any plausible
  /// accumulation before eviction).
  std::uint8_t seu_flips = 0;

  [[nodiscard]] bool corrupted() const noexcept { return seu_flips != 0; }
};

/// Cumulative LUT statistics.
struct LutStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t updates = 0;
  std::uint64_t parity_invalidations = 0;  ///< corrupt lines dropped on read
  std::uint64_t corrupt_hits = 0;          ///< hits served from flipped lines

  [[nodiscard]] double hit_rate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }

  LutStats& operator+=(const LutStats& o) noexcept {
    lookups += o.lookups;
    hits += o.hits;
    updates += o.updates;
    parity_invalidations += o.parity_invalidations;
    corrupt_hits += o.corrupt_hits;
    return *this;
  }
};

/// The per-FPU memoization LUT.
class MemoLut {
 public:
  /// `depth` is the number of FIFO entries; the paper settles on 2 after
  /// the sensitivity study in §4.1 (reproduced by bench/fifo_size_sweep).
  explicit MemoLut(int depth = 2) : depth_(depth) {
    TM_REQUIRE(depth >= 1 && depth <= 4096, "LUT depth out of range");
  }

  [[nodiscard]] int depth() const noexcept { return depth_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(ring_.size());
  }

  /// The entry at FIFO position `i`, 0 = newest .. size() - 1 = oldest
  /// (exposed for tests/inspection).
  [[nodiscard]] const LutEntry& entry(int i) const {
    TM_REQUIRE(i >= 0 && i < size(), "LUT entry index out of range");
    return ring_[slot(i)];
  }

  /// Outcome of one associative lookup, including whether the matched line
  /// had absorbed SEU flips (the consumer decides whether a corrupt reuse
  /// counts as silent data corruption).
  struct LookupResult {
    bool hit = false;
    float value = 0.0f;
    bool corrupted = false;
  };

  /// Single-cycle associative lookup: returns the memorized result of the
  /// first (newest-first) entry whose opcode matches exactly and whose
  /// operands satisfy `constraint`, or nullopt on a miss. Counts stats.
  [[nodiscard]] std::optional<float> lookup(const FpInstruction& ins,
                                            const MatchConstraint& constraint);

  /// lookup() plus fault metadata. When parity protection is on, every
  /// lookup first invalidates lines whose stored bits no longer match their
  /// parity bit (odd flip counts; the comparator bank reads all lines each
  /// cycle, so the check is free) and counts them in
  /// LutStats::parity_invalidations.
  [[nodiscard, gnu::always_inline]] LookupResult lookup_checked(
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

  /// Inserts an error-free execution context (operands -> result) at the
  /// head of the FIFO, evicting the oldest entry when full. This models the
  /// W_en-gated write driven by the error-free completion of the FPU's last
  /// stage.
  void update(const FpInstruction& ins, float result) {
    LutEntry entry;
    entry.opcode = ins.opcode;
    entry.operands = ins.operands;
    entry.result = result;
    push(entry);
    ++stats_.updates;
  }

  /// Preloads an entry (paper §4.2: compilers / domain experts "can also
  /// store pre-computed values in the LUT to use the most probable or
  /// critical results"). Identical to update() but not counted as one.
  void preload(const LutEntry& entry);

  /// Drops all entries (power-gating the module clears its state).
  void clear() noexcept {
    ring_.clear();
    head_ = 0;
  }

  /// Fault-injection seam (src/inject/lut_injector.hpp): flips one bit of
  /// one stored word of the entry at `entry_index` (0 = newest). `word`
  /// selects operand 0..kMaxOperands-1 or, at kMaxOperands, the result;
  /// `bit` is the IEEE-754 bit position 0..31.
  void corrupt_bit(int entry_index, int word, int bit);

  /// Hardening knob: per-entry parity checked on every lookup (see
  /// lookup_checked()). Off by default; zero cost while off.
  void set_parity_protected(bool on) noexcept { parity_protected_ = on; }
  [[nodiscard]] bool parity_protected() const noexcept {
    return parity_protected_;
  }

  [[nodiscard]] const LutStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  /// Ring slot of FIFO position `i` (0 = newest).
  [[nodiscard]] std::size_t slot(int i) const noexcept {
    const auto k = static_cast<std::size_t>(i);
    return k <= head_ ? head_ - k : head_ + ring_.size() - k;
  }

  void push(const LutEntry& entry) {
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
  void drop_parity_failures();

  int depth_;
  // While ring_.size() < depth_ the entries sit oldest-to-newest in slots
  // 0..size-1; once full, head_ advances modulo depth_ and overwrites the
  // oldest slot. Either way head_ is the newest entry's slot.
  std::vector<LutEntry> ring_;
  std::size_t head_ = 0;
  LutStats stats_;
  bool parity_protected_ = false;
};

} // namespace tmemo
