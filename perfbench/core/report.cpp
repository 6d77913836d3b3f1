#include "core/report.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

bool name_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

} // namespace

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') return false;
  for (const char c : name) {
    if (!name_char(c)) return false;
  }
  return true;
}

bool valid_metric_unit(std::string_view unit) noexcept {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    if (!name_char(c) && c != '/' && c != '%') return false;
  }
  return true;
}

void MetricSet::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("bad metric name '" + name + "'");
  }
  if (!valid_metric_unit(unit)) {
    throw std::invalid_argument("bad unit '" + unit + "' for " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  for (const Metric& m : items_) {
    if (m.name == name) {
      throw std::invalid_argument("duplicate metric " + name);
    }
  }
  items_.push_back({std::move(name), value, std::move(unit)});
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const Metric& m = items_[i];
    if (i != 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("JSON has no non-finite numbers");
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Manifest::to_json() const {
  std::string args = "[";
  for (std::size_t i = 0; i < argv.size(); ++i) {
    if (i != 0) args += ", ";
    args += json_string(argv[i]);
  }
  args += "]";
  return "{\"git_describe\": " + json_string(git_describe) +
         ", \"compiler\": " + json_string(compiler) +
         ", \"cxx_flags\": " + json_string(cxx_flags) +
         ", \"build_type\": " + json_string(build_type) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"seed\": " + std::to_string(seed) + ", \"argv\": " + args + "}";
}

Manifest make_manifest(std::string git_describe, std::uint64_t seed,
                       int argc, char** argv) {
  Manifest m;
  m.git_describe = std::move(git_describe);
  m.compiler = PERFBENCH_COMPILER;
  m.cxx_flags = PERFBENCH_CXX_FLAGS;
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  m.seed = seed;
  for (int i = 0; i < argc; ++i) m.argv.emplace_back(argv[i]);
  return m;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.to_json() + "}";
}

} // namespace perfbench
