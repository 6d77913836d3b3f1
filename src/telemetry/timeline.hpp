// Per-run event timeline, exportable as Chrome trace_event JSON.
//
// The timeline records what happened *when* in simulation time: one
// complete ("X") span per static vector instruction per compute unit,
// instant ("i") marks for EDS errors and ECU replays, and counter ("C")
// series for LUT hits/misses. Timestamps are simulation ticks (committed
// dynamic instructions), not wall time — the timeline of a run is as
// deterministic as its metrics.
//
// The exported file loads directly in chrome://tracing or
// https://ui.perfetto.dev (docs/OBSERVABILITY.md has the walkthrough):
// compute units render as processes, stream cores as threads.
//
// Recording an event allocates nothing. A TimelineEvent is a flat 96-byte
// value: its name is a std::string_view that must point at static storage
// (string literals, fpu_type_name()), its category and arg keys are
// one-byte indices into the fixed kTimelineKeys table, and its args live
// inline (at most TimelineArgs::kCapacity of them).
//
// Event storage is capped: past `max_events` new events are counted as
// dropped rather than accumulated, so tracing a multi-million-instruction
// run degrades gracefully instead of exhausting memory. The constructor
// reserves the full cap once, mapped straight from the OS (MappedAllocator)
// and unmapped on destruction: untouched pages of it never become
// resident, and no page of it outlives the timeline. Through malloc, a
// freed multi-MB block raises glibc's dynamic mmap threshold (up to 32 MB),
// so later timelines would come out of per-thread arenas and stay resident
// after they are freed.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/require.hpp"

namespace tmemo::telemetry {

/// The categories and arg keys a trace may use. A TimelineKey stores its
/// string as an index into this table, which keeps a TimelineEvent small.
inline constexpr std::array<std::string_view, 21> kTimelineKeys = {
    "",
    // categories
    "issue", "timing", "inject", "memo", "campaign",
    // arg keys of the device timeline
    "lanes", "lut_hits", "lut_misses", "eds_errors", "ecu_replays", "hits",
    "misses", "cycles", "recovery_cycles",
    // arg keys of the supervision timeline
    "attempt", "capabilities", "job", "mid_job", "pid", "status",
};

/// One string of kTimelineKeys, as its index. Converting any other string
/// fails TM_REQUIRE.
class TimelineKey {
 public:
  constexpr TimelineKey() = default;
  constexpr TimelineKey(std::string_view key) { // NOLINT: implicit
    while (index_ < kTimelineKeys.size() && kTimelineKeys[index_] != key) {
      ++index_;
    }
    TM_REQUIRE(index_ < kTimelineKeys.size(),
               "timeline key is not in kTimelineKeys");
  }
  constexpr TimelineKey(const char* key) // NOLINT: implicit
      : TimelineKey(std::string_view(key)) {}

  [[nodiscard]] constexpr std::string_view str() const noexcept {
    return kTimelineKeys[index_];
  }
  [[nodiscard]] constexpr bool empty() const noexcept { return index_ == 0; }

 private:
  std::uint8_t index_ = 0;
};

/// The (key, value) args of one trace event, stored inline. Supports the
/// subset of the vector interface the emitters use: emplace_back and
/// range-for (over (key, value) pairs).
class TimelineArgs {
 public:
  using value_type = std::pair<std::string_view, std::uint64_t>;
  static constexpr std::size_t kCapacity = 5;

  class const_iterator {
   public:
    const_iterator(const TimelineArgs& args, std::size_t i)
        : args_(&args), i_(i) {}
    value_type operator*() const {
      return {args_->keys_[i_].str(), args_->values_[i_]};
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const TimelineArgs* args_;
    std::size_t i_;
  };

  TimelineArgs() = default;
  TimelineArgs(std::initializer_list<value_type> args) {
    for (const value_type& a : args) emplace_back(a.first, a.second);
  }

  void emplace_back(TimelineKey key, std::uint64_t value) {
    TM_REQUIRE(size_ < kCapacity, "too many timeline event args");
    keys_[size_] = key;
    values_[size_++] = value;
  }

  [[nodiscard]] const_iterator begin() const { return {*this, 0}; }
  [[nodiscard]] const_iterator end() const { return {*this, size_}; }

 private:
  std::array<std::uint64_t, kCapacity> values_{};
  std::array<TimelineKey, kCapacity> keys_{};
  std::uint8_t size_ = 0;
};

/// One trace_event entry. Only the fields the repo emits are modeled.
/// `name` must point at static storage (see above); the category is one of
/// kTimelineKeys.
struct TimelineEvent {
  enum class Phase : char {
    kComplete = 'X', ///< span: ts + dur
    kInstant = 'i',  ///< point mark
    kCounter = 'C',  ///< counter sample (args hold the series values)
  };

  Phase phase = Phase::kInstant;
  TimelineKey category;
  std::string_view name;
  std::uint32_t pid = 0; ///< compute unit
  std::uint32_t tid = 0; ///< stream core (0 for CU-wide events)
  std::uint64_t ts = 0;  ///< simulation ticks
  std::uint64_t dur = 0; ///< kComplete only
  TimelineArgs args;
};
static_assert(sizeof(TimelineEvent) <= 96,
              "a capped timeline holds up to max_events of these");

/// An anonymous private mapping of `bytes` (throws std::bad_alloc), and
/// its release.
void* map_pages(std::size_t bytes);
void unmap_pages(void* p, std::size_t bytes) noexcept;

/// Allocates each block with its own anonymous mapping and unmaps it on
/// deallocation.
template <typename T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {} // NOLINT: rebind

  T* allocate(std::size_t n) {
    return static_cast<T*>(map_pages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    unmap_pages(p, n * sizeof(T));
  }
  friend bool operator==(const MappedAllocator&, const MappedAllocator&) {
    return true;
  }
};

class Timeline {
 public:
  using Events = std::vector<TimelineEvent, MappedAllocator<TimelineEvent>>;

  static constexpr std::size_t kDefaultMaxEvents = 250000;

  explicit Timeline(std::size_t max_events = kDefaultMaxEvents)
      : max_events_(max_events) {
    events_.reserve(max_events_);
  }

  /// Labels a pid (compute unit) in the trace viewer's process list.
  void set_process_name(std::uint32_t pid, std::string name);

  void complete(const TimelineEvent& event) { push(event); }
  void instant(const TimelineEvent& event) { push(event); }
  void counter(const TimelineEvent& event) { push(event); }

  [[nodiscard]] const Events& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::string>>&
  process_names() const noexcept {
    return process_names_;
  }
  /// Events discarded after the cap was reached.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t max_events() const noexcept { return max_events_; }

 private:
  void push(const TimelineEvent& event) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(event);
  }

  std::size_t max_events_;
  Events events_;
  std::vector<std::pair<std::uint32_t, std::string>> process_names_;
  std::uint64_t dropped_ = 0;
};

/// Serializes the timeline as a Chrome trace_event JSON object
/// (`{"traceEvents": [...], ...}` form). Output is deterministic: events in
/// recording order, metadata first.
void write_chrome_trace(const Timeline& timeline, std::ostream& os);

} // namespace tmemo::telemetry
