// Minimal result-table formatter used by the benchmark harness to print the
// rows/series of the paper's tables and figures in both human-readable
// (aligned text) and machine-readable (CSV) forms, plus the CSV field and
// number formatting every CSV artifact (tables, campaign CSV, journals)
// shares.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace tmemo {

/// RFC-4180 quoting: a field containing a comma, quote, LF or CR is wrapped
/// in quotes with embedded quotes doubled. CR matters: an error message
/// carrying "\r\n" written unquoted would split one row into two.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Shortest round-trippable decimal form of a double.
[[nodiscard]] std::string fmt_double(double v);

/// A rectangular results table with a title, column headers and string cells.
/// Numeric convenience adders format with a fixed precision.
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> headers);

  /// Starts a new row. Subsequent add_* calls append cells to it.
  ResultTable& begin_row();
  ResultTable& add(std::string cell);
  ResultTable& add(double value, int precision = 3);
  ResultTable& add(long long value);
  ResultTable& add(unsigned long long value);

  /// Number of completed + in-progress rows.
  [[nodiscard]] std::size_t rows() const noexcept { return cells_.size(); }
  [[nodiscard]] const std::string& title() const noexcept { return title_; }

  /// Renders an aligned text table (what the bench binaries print).
  void print(std::ostream& os) const;

  /// Renders RFC-4180 CSV (every cell through csv_escape).
  void print_csv(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

} // namespace tmemo
