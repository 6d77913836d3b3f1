// In-memory spans for the traced run, written out as a Chrome/Perfetto
// JSON trace when the benchmark ends.
//
// Each span has a name, a start, an end, its parent (the span open when it
// began) and the trace id shared by every span of one workload run. Spans
// are recorded from the benchmark's own code around its calls into the
// library, on one thread, so they nest strictly.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  long parent = -1; ///< index into SpanRecorder::spans(), -1 for a root
};

class SpanRecorder {
 public:
  /// A disabled recorder hands out no-op scopes, so untraced runs pay one
  /// branch per would-be span.
  SpanRecorder(bool enabled, std::string trace_id);

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class SpanRecorder;
    Scope(SpanRecorder* recorder, long index) noexcept
        : recorder_(recorder), index_(index) {}
    SpanRecorder* recorder_;
    long index_;
  };

  /// Opens a span whose parent is the innermost open span.
  [[nodiscard]] Scope span(std::string name);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Chrome trace-event JSON ("X" complete events, one process, one
  /// thread); Perfetto's UI and chrome://tracing open it. The manifest JSON
  /// goes under the top-level "metadata" key.
  void write_perfetto(std::ostream& out,
                      const std::string& manifest_json) const;

 private:
  [[nodiscard]] double now_us() const;
  /// Duration minus the time covered by direct children, in ms.
  [[nodiscard]] double self_ms(std::size_t index) const;
  void close(long index);

  bool enabled_;
  std::string trace_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  long open_ = -1;
};

} // namespace perfbench
