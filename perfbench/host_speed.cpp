#include "host_speed.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory_resource>
#include <new>
#include <stdexcept>
#include <thread>

#include "trace/trace.hpp"

namespace perfbench {

namespace {

constexpr std::uint16_t kComputeUnits = 20;
constexpr std::uint16_t kFpusPerUnit = 16 * 5 * 9; // cores x PEs x unit types
/// Timed device builds and stream replays per probe: 15-30 ms on the host
/// the benchmark was written on.
constexpr int kPasses = 8;

/// Bump allocator over anonymous mappings, all unmapped when it dies: the
/// probe's heap never lingers in a malloc arena, so it cannot inflate the
/// next repetition's peak_rss_mb. rewind() reuses the mappings from the
/// start, so passes after the first touch no fresh pages: page-fault cost
/// moves with the host's memory state, not with its core speed.
class MappedArena final : public std::pmr::memory_resource {
 public:
  MappedArena() = default;
  MappedArena(const MappedArena&) = delete;
  MappedArena& operator=(const MappedArena&) = delete;
  ~MappedArena() override {
    for (const auto& [base, length] : maps_) ::munmap(base, length);
  }

  void rewind() noexcept {
    current_ = 0;
    next_ = maps_.empty() ? nullptr : static_cast<char*>(maps_[0].first);
    left_ = maps_.empty() ? 0 : maps_[0].second;
  }

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override {
    std::size_t pad =
        (align - reinterpret_cast<std::uintptr_t>(next_) % align) % align;
    while (next_ == nullptr || pad + bytes > left_) {
      if (next_ != nullptr && current_ + 1 < maps_.size()) {
        ++current_; // reuse the next mapping made by an earlier pass
      } else {
        const std::size_t length =
            std::max<std::size_t>(bytes + align, 4u << 20);
        void* base = ::mmap(nullptr, length, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED) throw std::bad_alloc();
        maps_.emplace_back(base, length);
        current_ = maps_.size() - 1;
      }
      next_ = static_cast<char*>(maps_[current_].first);
      left_ = maps_[current_].second;
      pad = (align - reinterpret_cast<std::uintptr_t>(next_) % align) % align;
    }
    void* out = next_ + pad;
    next_ += pad + bytes;
    left_ -= pad + bytes;
    return out;
  }
  void do_deallocate(void*, std::size_t, std::size_t) override {}
  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  std::vector<std::pair<void*, std::size_t>> maps_;
  std::size_t current_ = 0;
  char* next_ = nullptr;
  std::size_t left_ = 0;
};

std::uint32_t bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

class Unit {
 public:
  virtual ~Unit() = default;
  virtual float execute(std::uint8_t opcode, float a, float b,
                        std::uint64_t& rng) = 0;
  double energy = 0.0;
};

/// An FPU with a two-entry memoization FIFO, matched under `mask`.
class Fpu final : public Unit {
 public:
  Fpu(std::uint32_t mask, std::pmr::memory_resource* heap)
      : fifo_(heap), mask_(mask) {}

  float execute(std::uint8_t opcode, float a, float b,
                std::uint64_t& rng) override {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const bool error = (rng >> 40) < (1ull << 24) / 50; // a 2 % error rate
    for (const Entry& e : fifo_) {
      if (e.opcode == opcode && ((bits(e.a) ^ bits(a)) & mask_) == 0 &&
          ((bits(e.b) ^ bits(b)) & mask_) == 0) {
        energy += 0.8;
        return e.result;
      }
    }
    const float result = a * b + 1.0f;
    energy += error ? 9.0 * 48.0 : 9.0;
    if (!error) {
      fifo_.push_front({opcode, a, b, result});
      if (fifo_.size() > 2) fifo_.pop_back();
    }
    return result;
  }

 private:
  struct Entry {
    std::uint8_t opcode = 0;
    float a = 0.0f;
    float b = 0.0f;
    float result = 0.0f;
  };
  std::pmr::deque<Entry> fifo_;
  std::uint32_t mask_;
};

volatile double g_probe_sink = 0.0;

} // namespace

HostSpeedProbe::HostSpeedProbe(const std::string& trace_path) {
  for (const tmemo::TraceEvent& ev : tmemo::load_trace(trace_path)) {
    Op op;
    op.cu = static_cast<std::uint16_t>((ev.work_item / 64) % kComputeUnits);
    op.fpu = static_cast<std::uint16_t>(
        ((ev.work_item % 16) * 5 + ev.static_id % 5) * 9 + ev.unit % 9);
    op.opcode = ev.opcode;
    op.a = ev.operands[0];
    op.b = ev.operands[1];
    ops_.push_back(op);
  }
  if (ops_.empty()) throw std::runtime_error("empty probe stream " + trace_path);
}

double HostSpeedProbe::run_once() const {
  MappedArena heap;
  double acc = 0.0;
  // Pass 0 faults the arena's pages in and is not timed.
  auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass <= kPasses; ++pass) {
    if (pass == 1) start = std::chrono::steady_clock::now();
    heap.rewind();
    // Objects are never destroyed: the arena unmaps their memory wholesale
    // and they hold nothing else.
    std::pmr::polymorphic_allocator<Fpu> alloc(&heap);
    std::pmr::vector<std::pmr::vector<Unit*>> device(kComputeUnits, &heap);
    for (auto& cu : device) {
      cu.reserve(kFpusPerUnit);
      for (std::uint16_t f = 0; f < kFpusPerUnit; ++f) {
        cu.push_back(alloc.new_object<Fpu>(
            f % 2 == 0 ? 0xffffffffu : 0xfffff000u, &heap));
      }
    }
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (const Op& op : ops_) {
      acc += device[op.cu][op.fpu]->execute(op.opcode, op.a, op.b, rng);
    }
    for (const auto& cu : device) {
      for (const Unit* unit : cu) acc += unit->energy;
    }
  }
  g_probe_sink = acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double HostSpeedProbe::measure(int threads) const {
  std::vector<double> seconds(static_cast<std::size_t>(threads), 0.0);
  {
    std::vector<std::jthread> pool;
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      pool.emplace_back([this, &seconds, i] { seconds[i] = run_once(); });
    }
  }
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum / static_cast<double>(seconds.size());
}

} // namespace perfbench
