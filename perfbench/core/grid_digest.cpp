#include "core/grid_digest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "sim/campaign.hpp"

namespace perfbench {

namespace {

bool dropped_column(const std::string& column) {
  return column == "wall_ms" || column == "attempts";
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

std::string csv_field(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

void fnv1a(std::uint64_t& h, const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  h ^= 0xff; // field separator
  h *= 0x100000001b3ull;
}

} // namespace

bool is_energy_column(const std::string& column) noexcept {
  return column == "e_memo_pj" || column == "e_base_pj" || column == "saving";
}

GridDigest GridDigest::from_csv(const std::string& text) {
  std::string body;
  {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty() && line.front() == '#') continue;
      body += line;
      body += '\n';
    }
  }
  std::istringstream in(body);
  std::vector<std::string> fields;
  if (!tmemo::read_csv_record(in, fields)) {
    throw std::runtime_error("grid CSV has no header");
  }
  std::vector<bool> keep;
  GridDigest d;
  for (const std::string& f : fields) {
    keep.push_back(!dropped_column(f));
    if (keep.back()) d.columns.push_back(f);
  }
  while (tmemo::read_csv_record(in, fields)) {
    if (fields.size() == 1 && fields[0].empty()) continue; // blank line
    if (fields.size() != keep.size()) {
      throw std::runtime_error("grid row " + std::to_string(d.rows.size()) +
                               " has " + std::to_string(fields.size()) +
                               " fields, header has " +
                               std::to_string(keep.size()));
    }
    std::vector<std::string> row;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (keep[i]) row.push_back(fields[i]);
    }
    d.rows.push_back(std::move(row));
  }
  return d;
}

std::string GridDigest::to_csv() const {
  std::string out;
  const auto emit = [&out](const std::vector<std::string>& fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i != 0) out += ',';
      out += csv_field(fields[i]);
    }
    out += '\n';
  };
  emit(columns);
  for (const auto& row : rows) emit(row);
  return out;
}

std::string GridDigest::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& c : columns) fnv1a(h, c);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      double v = 0.0;
      if (is_energy_column(columns[i]) && parse_double(row[i], v)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.8g", v);
        fnv1a(h, buf);
      } else {
        fnv1a(h, row[i]);
      }
    }
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

std::string compare_grids(const GridDigest& expected, const GridDigest& got,
                          double rel_tol) {
  if (expected.columns != got.columns) return "grid columns differ";
  if (expected.rows.size() != got.rows.size()) {
    return "grid has " + std::to_string(got.rows.size()) + " rows, expected " +
           std::to_string(expected.rows.size());
  }
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    const auto& want = expected.rows[r];
    const auto& have = got.rows[r];
    if (want.size() != have.size()) {
      return "row " + std::to_string(r) + " has the wrong field count";
    }
    for (std::size_t c = 0; c < have.size(); ++c) {
      const std::string& col = got.columns[c];
      bool same = want[c] == have[c];
      double a = 0.0;
      double b = 0.0;
      if (!same && is_energy_column(col) && parse_double(want[c], a) &&
          parse_double(have[c], b) && std::isfinite(a) && std::isfinite(b)) {
        const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
        same = std::fabs(a - b) <= rel_tol * scale;
      }
      if (!same) {
        return "row " + std::to_string(r) + " column " + col + ": got '" +
               have[c] + "', expected '" + want[c] + "'";
      }
    }
  }
  return {};
}

} // namespace perfbench
