#include "telemetry/timeline.hpp"

#include <sys/mman.h>

#include <new>
#include <ostream>

namespace tmemo::telemetry {

void* map_pages(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept {
  ::munmap(p, bytes);
}

void Timeline::set_process_name(std::uint32_t pid, std::string name) {
  for (auto& [p, n] : process_names_) {
    if (p == pid) {
      n = std::move(name);
      return;
    }
  }
  process_names_.emplace_back(pid, std::move(name));
}

namespace {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (const auto uc = static_cast<unsigned char>(c); uc < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(uc >> 4) & 0xf] << hex[uc & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_args(std::ostream& os, const TimelineArgs& args) {
  os << "\"args\": {";
  bool first = true;
  for (const auto& [k, v] : args) {
    if (!first) os << ", ";
    first = false;
    write_json_string(os, k);
    os << ": " << v;
  }
  os << "}";
}

} // namespace

void write_chrome_trace(const Timeline& timeline, std::ostream& os) {
  os << "{\n  \"displayTimeUnit\": \"ms\",\n"
     << "  \"otherData\": {\"tool\": \"tmemo\", \"clock\": \"sim-ticks\", "
     << "\"dropped_events\": " << timeline.dropped() << "},\n"
     << "  \"traceEvents\": [\n";

  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata first: name the compute-unit "processes" and give every
  // process a stable sort order so the viewer lays CUs out in index order.
  for (const auto& [pid, name] : timeline.process_names()) {
    comma();
    os << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
       << ", \"tid\": 0, \"args\": {\"name\": ";
    write_json_string(os, name);
    os << "}}";
    comma();
    os << "    {\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": "
       << pid << ", \"tid\": 0, \"args\": {\"sort_index\": " << pid << "}}";
  }

  for (const TimelineEvent& e : timeline.events()) {
    comma();
    os << "    {\"name\": ";
    write_json_string(os, e.name);
    os << ", \"cat\": ";
    write_json_string(os, e.category.empty() ? std::string_view("tmemo")
                                             : e.category.str());
    os << ", \"ph\": \"" << static_cast<char>(e.phase) << "\""
       << ", \"pid\": " << e.pid << ", \"tid\": " << e.tid
       << ", \"ts\": " << e.ts;
    if (e.phase == TimelineEvent::Phase::kComplete) {
      os << ", \"dur\": " << e.dur;
    }
    if (e.phase == TimelineEvent::Phase::kInstant) {
      os << ", \"s\": \"t\""; // thread-scoped instant
    }
    os << ", ";
    write_args(os, e.args);
    os << "}";
  }

  os << "\n  ]\n}\n";
}

} // namespace tmemo::telemetry
