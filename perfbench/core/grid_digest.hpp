// Grid digest: the simulated content of a campaign grid, for the
// benchmark's correctness gate.
//
// A digest is the grid CSV that write_campaign_csv produces with the two
// host-dependent columns removed (wall_ms and attempts). Every other column
// is compared as text, exactly, except the energy columns (e_memo_pj,
// e_base_pj, saving), which are compared as numbers within a relative
// tolerance: tight enough that any change to the energy model or to the
// simulated event counts fails, loose enough that re-associating the
// per-op float sums (a different summation order) passes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Relative tolerance of the energy columns. Re-summing ~1e7 terms in
/// double moves a total by at most ~1e-9 of itself; any model change moves
/// it by orders of magnitude more.
inline constexpr double kEnergyRelTol = 1e-9;

struct GridDigest {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;

  /// Parses write_campaign_csv output (or a digest CSV written by
  /// to_csv()). Lines starting with '#' are skipped; wall_ms and attempts
  /// are dropped. Throws std::runtime_error on malformed input.
  [[nodiscard]] static GridDigest from_csv(const std::string& text);

  /// The digest as CSV, header first; from_csv(to_csv()) round-trips.
  [[nodiscard]] std::string to_csv() const;

  /// A 64-bit FNV-1a fingerprint over every field, energy fields rounded
  /// to 8 significant digits, as 16 hex digits. Two commits with equal
  /// fingerprints produced the same grid; the field-wise compare_grids() is
  /// the authoritative check.
  [[nodiscard]] std::string fingerprint() const;
};

/// True for the columns compared within kEnergyRelTol.
[[nodiscard]] bool is_energy_column(const std::string& column) noexcept;

/// Empty when `got` matches `expected`; otherwise a one-line description
/// of the first mismatch. Energy columns use |a - b| <= rel_tol *
/// max(|a|, |b|, 1); the floor of 1 keeps the saving ratio near 0 from
/// tightening the check to nothing.
[[nodiscard]] std::string compare_grids(const GridDigest& expected,
                                        const GridDigest& got,
                                        double rel_tol = kEnergyRelTol);

} // namespace perfbench
