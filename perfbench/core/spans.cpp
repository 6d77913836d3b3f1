#include "core/spans.hpp"

#include <ostream>

#include "core/report.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled, std::string trace_id)
    : enabled_(enabled),
      trace_id_(std::move(trace_id)),
      origin_(std::chrono::steady_clock::now()) {}

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->close(index_);
}

SpanRecorder::Scope SpanRecorder::span(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = std::move(name);
  s.parent = open_;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  open_ = static_cast<long>(spans_.size()) - 1;
  return Scope(this, open_);
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanRecorder::close(long index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us = now_us();
  open_ = s.parent;
}

double SpanRecorder::self_ms(std::size_t index) const {
  const Span& s = spans_[index];
  double covered = 0.0;
  for (const Span& c : spans_) {
    if (c.parent == static_cast<long>(index)) covered += c.end_us - c.start_us;
  }
  return (s.end_us - s.start_us - covered) / 1000.0;
}

void SpanRecorder::write_perfetto(std::ostream& out,
                                  const std::string& manifest_json) const {
  out << "{\"traceEvents\": [\n"
      << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 1, \"args\": {\"name\": "
      << json_string("tmemo_perfbench " + trace_id_) << "}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n  {\"name\": " << json_string(s.name)
        << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << json_number(s.start_us)
        << ", \"dur\": " << json_number(s.end_us - s.start_us)
        << ", \"args\": {\"trace_id\": " << json_string(trace_id_)
        << ", \"span_id\": " << i << ", \"parent_id\": " << s.parent
        << ", \"self_ms\": " << json_number(self_ms(i)) << "}}";
  }
  out << "\n],\n\"displayTimeUnit\": \"ms\",\n\"metadata\": " << manifest_json
      << "}\n";
}

} // namespace perfbench
