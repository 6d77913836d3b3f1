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
// Recording an event allocates nothing. A TimelineEvent is a flat value:
// its name, category and arg keys are std::string_views that must point at
// static storage (string literals, fpu_type_name()), and its args live
// inline (at most TimelineArgs::kCapacity of them).
//
// Event storage is capped: past `max_events` new events are counted as
// dropped rather than accumulated, so tracing a multi-million-instruction
// run degrades gracefully instead of exhausting memory. The constructor
// reserves the full cap once. Growing the buffer by doubling instead
// would free a chain of multi-MB blocks, which raises glibc's dynamic
// mmap threshold; later timelines then come out of per-thread arenas and
// stay resident after they are freed. One reservation is one mmapped
// block, returned to the OS on destruction, and untouched pages of it
// never become resident.
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

/// The (key, value) args of one trace event, stored inline. Keys must have
/// static storage. Supports the subset of the vector interface the
/// emitters use: emplace_back and range-for.
class TimelineArgs {
 public:
  using value_type = std::pair<std::string_view, std::uint64_t>;
  static constexpr std::size_t kCapacity = 5;

  TimelineArgs() = default;
  TimelineArgs(std::initializer_list<value_type> args) {
    for (const value_type& a : args) emplace_back(a.first, a.second);
  }

  void emplace_back(std::string_view key, std::uint64_t value) {
    TM_REQUIRE(size_ < kCapacity, "too many timeline event args");
    items_[size_++] = {key, value};
  }

  [[nodiscard]] const value_type* begin() const noexcept {
    return items_.data();
  }
  [[nodiscard]] const value_type* end() const noexcept {
    return items_.data() + size_;
  }

 private:
  std::array<value_type, kCapacity> items_{};
  std::uint8_t size_ = 0;
};

/// One trace_event entry. Only the fields the repo emits are modeled.
/// `name` and `category` must point at static storage (see above).
struct TimelineEvent {
  enum class Phase : char {
    kComplete = 'X', ///< span: ts + dur
    kInstant = 'i',  ///< point mark
    kCounter = 'C',  ///< counter sample (args hold the series values)
  };

  Phase phase = Phase::kInstant;
  std::string_view name;
  std::string_view category;
  std::uint32_t pid = 0; ///< compute unit
  std::uint32_t tid = 0; ///< stream core (0 for CU-wide events)
  std::uint64_t ts = 0;  ///< simulation ticks
  std::uint64_t dur = 0; ///< kComplete only
  TimelineArgs args;
};

class Timeline {
 public:
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

  [[nodiscard]] const std::vector<TimelineEvent>& events() const noexcept {
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
  std::vector<TimelineEvent> events_;
  std::vector<std::pair<std::uint32_t, std::string>> process_names_;
  std::uint64_t dropped_ = 0;
};

/// Serializes the timeline as a Chrome trace_event JSON object
/// (`{"traceEvents": [...], ...}` form). Output is deterministic: events in
/// recording order, metadata first.
void write_chrome_trace(const Timeline& timeline, std::ostream& os);

} // namespace tmemo::telemetry
