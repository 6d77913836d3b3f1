#include "common/table.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/require.hpp"

namespace tmemo {

ResultTable::ResultTable(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {
  TM_REQUIRE(!headers_.empty(), "a table needs at least one column");
}

ResultTable& ResultTable::begin_row() {
  cells_.emplace_back();
  cells_.back().reserve(headers_.size());
  return *this;
}

ResultTable& ResultTable::add(std::string cell) {
  TM_REQUIRE(!cells_.empty(), "begin_row() before add()");
  TM_REQUIRE(cells_.back().size() < headers_.size(),
             "row has more cells than headers");
  cells_.back().push_back(std::move(cell));
  return *this;
}

ResultTable& ResultTable::add(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return add(os.str());
}

ResultTable& ResultTable::add(long long value) {
  return add(std::to_string(value));
}

ResultTable& ResultTable::add(unsigned long long value) {
  return add(std::to_string(value));
}

void ResultTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  os << "\n== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(widths[c])) << cell
         << " | ";
    }
    os << '\n';
  };
  print_row(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : cells_) print_row(row);
}

std::string csv_escape(std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string fmt_double(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  TM_REQUIRE(ec == std::errc{}, "double formatting");
  return std::string(buf, ptr);
}

void ResultTable::print_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) os << ',';
    os << csv_escape(headers_[c]);
  }
  os << '\n';
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c) os << ',';
      if (c < row.size()) os << csv_escape(row[c]);
    }
    os << '\n';
  }
}

} // namespace tmemo
