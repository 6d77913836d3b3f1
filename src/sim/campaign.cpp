#include "sim/campaign.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <iterator>
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <mutex>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "io/artifact_footer.hpp"
#include "io/atomic_file.hpp"
#include "net/transport.hpp"
#include "sim/worker_proc.hpp"

namespace tmemo {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Wall-clock reads are confined to wall_now() (lint rule R1): its values
// feed only the wall_ms reporting fields, never simulation results, which
// is why wall_ms is the one column the CI determinism check ignores.
std::chrono::steady_clock::time_point wall_now() {
  return std::chrono::steady_clock::now();
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(wall_now() - since)
      .count();
}

/// Shortest round-trippable decimal form of a double.
std::string fmt_double(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  TM_REQUIRE(ec == std::errc{}, "double formatting");
  return std::string(buf, ptr);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// RFC-4180 quoting: a field containing a comma, quote, LF or CR is wrapped
// in quotes with embedded quotes doubled. CR matters: an error message
// carrying "\r\n" written unquoted would split one row into two.
std::string csv_escape(std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
    return std::string(s);
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

// ---------------------------------------------------------------------------
// Campaign journal (crash-safe resume).
//
// The journal is a CSV file: one header record ("tmemo-journal-v2" plus the
// campaign fingerprint) followed by one record per finished job. Every
// numeric field uses the shortest round-trippable decimal form (fmt_double),
// so a journaled JobResult restores bit-identically.


/// FpuStats counters in journal order. One list serves both pack and
/// unpack, so the journal cannot drift from the struct.
constexpr std::uint64_t FpuStats::* kFpuStatFields[] = {
    &FpuStats::instructions,        &FpuStats::hits,
    &FpuStats::timing_errors,       &FpuStats::masked_errors,
    &FpuStats::recoveries,          &FpuStats::recovery_cycles,
    &FpuStats::active_stage_cycles, &FpuStats::gated_stage_cycles,
    &FpuStats::lut_updates,         &FpuStats::seu_flips,
    &FpuStats::parity_invalidations, &FpuStats::corrupt_reuses,
    &FpuStats::eds_false_negatives, &FpuStats::eds_false_positives,
    &FpuStats::sdc_ops};
constexpr std::size_t kFpuStatFieldCount = std::size(kFpuStatFields);

/// Journal record layout (field indices). kJournalFieldCount pins the
/// record width; parse_job_result rejects any other width.
enum JournalField : std::size_t {
  kJfIndex = 0,
  kJfAttempts,
  kJfTimedOut,
  kJfOk,
  kJfError,
  kJfKernel,
  kJfParam,
  kJfThreshold,
  kJfSupply,
  kJfErrorRate,
  kJfHitRate,
  kJfEnergyMemo,
  kJfEnergyBase,
  kJfOutputValues,
  kJfMaxAbsError,
  kJfMeanAbsError,
  kJfRelRmsError,
  kJfSdcValues,
  kJfPassed,
  kJfUnitStats,
  kJfWallMs,
  kJfEnd, // constant "end" sentinel: rejects records torn inside the
          // final value field, which would otherwise parse truncated
  kJournalFieldCount
};

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool parse_bool(const std::string& s, bool& out) {
  if (s == "0") {
    out = false;
  } else if (s == "1") {
    out = true;
  } else {
    return false;
  }
  return true;
}

/// 9 unit groups separated by ';', counters within a group by ':'.
std::string pack_unit_stats(const std::array<FpuStats, kNumFpuTypes>& units) {
  std::string out;
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (u != 0) out += ';';
    for (std::size_t f = 0; f < kFpuStatFieldCount; ++f) {
      if (f != 0) out += ':';
      out += std::to_string(units[u].*kFpuStatFields[f]);
    }
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t p = s.find(sep, start);
    out.push_back(s.substr(start, p - start));
    if (p == std::string::npos) return out;
    start = p + 1;
  }
}

bool unpack_unit_stats(const std::string& s,
                       std::array<FpuStats, kNumFpuTypes>& units) {
  const std::vector<std::string> groups = split(s, ';');
  if (groups.size() != units.size()) return false;
  for (std::size_t u = 0; u < units.size(); ++u) {
    const std::vector<std::string> counters = split(groups[u], ':');
    if (counters.size() != kFpuStatFieldCount) return false;
    for (std::size_t f = 0; f < kFpuStatFieldCount; ++f) {
      if (!parse_u64(counters[f], units[u].*kFpuStatFields[f])) return false;
    }
  }
  return true;
}

/// Byte length of the longest journal prefix made of complete, newline-
/// terminated CSV records. Each record is appended with a single write(),
/// so a crash tears at most the final one; everything past the last intact
/// record boundary is the torn tail. read_csv_record leaves the stream in
/// EOF state (tellg() == -1) exactly when the final record was cut short.
/// `header_bytes` (optional) receives the end of the first record — the
/// boundary journal compaction truncates back to.
std::uint64_t intact_journal_prefix(std::istream& in,
                                    std::uint64_t* header_bytes = nullptr) {
  std::vector<std::string> fields;
  std::streampos last_good = 0;
  bool first = true;
  while (read_csv_record(in, fields)) {
    const std::streampos pos = in.tellg();
    if (pos == std::streampos(-1)) break;
    if (first && header_bytes != nullptr) {
      *header_bytes = static_cast<std::uint64_t>(pos);
    }
    first = false;
    last_good = pos;
  }
  return static_cast<std::uint64_t>(last_good);
}

/// Write `size` bytes to `fd`, EINTR-safe, without fsync. Returns false on
/// a real write failure (errno preserved).
bool write_fd_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ::ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

} // namespace

CampaignJournalWriter::~CampaignJournalWriter() { close(); }

void CampaignJournalWriter::configure(
    std::size_t checkpoint_every,
    const std::optional<io::FsFaultSpec>& inject_fs) {
  TM_REQUIRE(fd_ < 0, "campaign journal must be configured before open()");
  checkpoint_every_ = checkpoint_every;
  inject_fs_ = inject_fs;
}

void CampaignJournalWriter::open(const std::string& path,
                                 const std::string& fingerprint) {
  TM_REQUIRE(fd_ < 0, "campaign journal is already open");
  path_ = path;
  fingerprint_ = fingerprint;
  header_bytes_ = 0;
  appends_since_checkpoint_ = 0;
  rows_.clear();
  injector_ = inject_fs_.has_value()
                  ? io::FsFaultInjector(*inject_fs_,
                                        io::fs_fault_path_salt(path))
                  : io::FsFaultInjector();
  bool fresh = true;
  {
    std::ifstream probe(path);
    fresh = !probe.good() ||
            std::ifstream::traits_type::eq_int_type(
                probe.peek(), std::ifstream::traits_type::eof());
  }
  std::uint64_t keep_bytes = 0;
  if (!fresh) {
    // Drop a torn trailing record (a crash mid-append) before appending,
    // so the next record starts on a record boundary instead of fusing
    // with the partial line.
    std::ifstream scan(path, std::ios::binary);
    keep_bytes = intact_journal_prefix(scan, &header_bytes_);
  }
  if (checkpoint_every_ > 0) {
    // Reload the completed-job set (checkpoint first, then the live tail,
    // later entries winning) so the next snapshot is complete rather than
    // a window of this session's appends.
    const std::string cpath = campaign_checkpoint_path(path);
    std::ifstream cp_in(cpath, std::ios::binary);
    if (cp_in.is_open() &&
        !std::ifstream::traits_type::eq_int_type(
            cp_in.peek(), std::ifstream::traits_type::eof())) {
      const CampaignJournal cp = read_campaign_journal(cp_in);
      TM_REQUIRE(cp.sealed, "journal checkpoint is not sealed: " + cpath);
      TM_REQUIRE(cp.fingerprint == fingerprint,
                 "journal checkpoint belongs to a different campaign: " +
                     cpath);
      for (const JobResult& e : cp.entries) {
        rows_[e.job.index] = serialize_job_result(e);
      }
    }
    if (!fresh && keep_bytes > header_bytes_) {
      std::ifstream tail(path, std::ios::binary);
      const CampaignJournal live = read_campaign_journal(tail);
      TM_REQUIRE(live.fingerprint == fingerprint,
                 "journal belongs to a different campaign: " + path);
      for (const JobResult& e : live.entries) {
        rows_[e.job.index] = serialize_job_result(e);
      }
    }
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  TM_REQUIRE(fd_ >= 0, "cannot open campaign journal for append: " + path);
  if (fresh) {
    const std::string header = std::string(kCampaignJournalSchema) + ',' +
                               csv_escape(fingerprint) + '\n';
    header_bytes_ = header.size();
    append_raw(header);
  } else {
    // With O_APPEND, writes land at the new end-of-file.
    TM_REQUIRE(::ftruncate(fd_, static_cast<::off_t>(keep_bytes)) == 0,
               "cannot truncate torn campaign journal tail");
  }
}

void CampaignJournalWriter::append(const JobResult& result) {
  TM_REQUIRE(fd_ >= 0, "campaign journal is not open");
  const std::string row = serialize_job_result(result);
  if (injector_.enabled()) {
    switch (injector_.next_action()) {
      case io::FsFaultAction::kPass:
        break;
      case io::FsFaultAction::kShortWrite:
      case io::FsFaultAction::kTornAtByte: {
        // The append tears mid-record: a prefix lands on disk (the torn
        // tail the tolerant reader already skips) and the failure
        // surfaces. The writer closes so nothing fuses with the tear.
        const std::size_t cut = injector_.cut_point(row.size());
        (void)write_fd_all(fd_, row.data(), cut);
        close();
        throw io::IoError(path_, "journal append torn (injected)", 0, true);
      }
      case io::FsFaultAction::kEnospc:
        close();
        throw io::IoError(path_, "journal append", ENOSPC, true);
      case io::FsFaultAction::kEio:
        close();
        throw io::IoError(path_, "journal append", EIO, true);
      case io::FsFaultAction::kFsyncFail:
        // The record was written but never made durable; whether it
        // survives is the filesystem's coin flip, which the tolerant
        // reader handles either way.
        (void)write_fd_all(fd_, row.data(), row.size());
        close();
        throw io::IoError(path_, "journal fsync", EIO, true);
      case io::FsFaultAction::kCrashBeforeRename:
        close();
        throw io::IoError(path_, "journal append crashed (injected)", 0,
                          true);
    }
  }
  append_raw(row);
  if (checkpoint_every_ > 0) {
    rows_[result.job.index] = row;
    if (++appends_since_checkpoint_ >= checkpoint_every_) {
      write_checkpoint();
    }
  }
}

void CampaignJournalWriter::write_checkpoint() {
  // Snapshot first, compact second: the live tail is only discarded once
  // the sealed checkpoint is durable at its final path, so a crash in any
  // window leaves checkpoint + tail resuming bit-identically.
  const std::string cpath = campaign_checkpoint_path(path_);
  io::AtomicFileWriter writer;
  if (inject_fs_.has_value()) {
    writer.open(cpath, *inject_fs_);
  } else {
    writer.open(cpath);
  }
  std::ostream& out = writer.stream();
  out << kCampaignJournalSchema << ',' << csv_escape(fingerprint_) << ','
      << kCampaignJournalSealedMark << '\n';
  for (const auto& [index, row] : rows_) {
    (void)index;
    out << row;
  }
  out << kCampaignJournalEndRecord << ',' << rows_.size() << '\n';
  writer.commit(); // throws io::IoError on real or injected failure
  ++checkpoints_written_;
  appends_since_checkpoint_ = 0;
  if (header_bytes_ > 0) {
    TM_REQUIRE(::ftruncate(fd_, static_cast<::off_t>(header_bytes_)) == 0,
               "cannot compact checkpointed journal: " + path_);
    TM_REQUIRE(::fsync(fd_) == 0 || errno == EINVAL || errno == EROFS,
               "journal compaction fsync failed");
  }
}

void CampaignJournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string campaign_checkpoint_path(const std::string& journal_path) {
  return journal_path + ".checkpoint";
}

void CampaignJournalWriter::append_raw(const std::string& row) {
  std::size_t off = 0;
  while (off < row.size()) {
    const ::ssize_t n = ::write(fd_, row.data() + off, row.size() - off);
    if (n < 0) {
      TM_REQUIRE(errno == EINTR, "campaign journal write failed");
      continue;
    }
    off += static_cast<std::size_t>(n);
  }
  // Flush + fsync per record: the journal exists precisely for the crash
  // case, so buffering rows would defeat it.
  TM_REQUIRE(::fsync(fd_) == 0 || errno == EINVAL || errno == EROFS,
             "campaign journal fsync failed");
}

std::string serialize_job_result(const JobResult& j) {
  std::string row;
  const auto add = [&row](std::string_view field) {
    if (!row.empty()) row += ',';
    row += csv_escape(field);
  };
  add(std::to_string(j.job.index));
  add(std::to_string(j.attempts));
  add(j.timed_out ? "1" : "0");
  add(j.ok ? "1" : "0");
  add(j.error);
  add(j.report.kernel);
  add(j.report.input_parameter);
  add(fmt_double(static_cast<double>(j.report.threshold)));
  add(fmt_double(j.report.supply));
  add(fmt_double(j.report.error_rate_configured));
  add(fmt_double(j.report.weighted_hit_rate));
  add(fmt_double(j.report.energy.memoized_pj));
  add(fmt_double(j.report.energy.baseline_pj));
  add(std::to_string(j.report.result.output_values));
  add(fmt_double(j.report.result.max_abs_error));
  add(fmt_double(j.report.result.mean_abs_error));
  add(fmt_double(j.report.result.rel_rms_error));
  add(std::to_string(j.report.result.sdc_values));
  add(j.report.result.passed ? "1" : "0");
  add(pack_unit_stats(j.report.unit_stats));
  add(fmt_double(j.wall_ms));
  add("end");
  row += '\n';
  return row;
}

// Restores a JobResult from one journal record (see campaign.hpp). Returns
// false (entry skipped) on any malformed field — the truncated-final-record
// torn-write case.
bool parse_job_result(const std::vector<std::string>& f, JobResult& out) {
  if (f.size() != kJournalFieldCount) return false;
  out = JobResult{};
  std::uint64_t u64 = 0;
  double d = 0.0;
  if (!parse_u64(f[kJfIndex], u64)) return false;
  out.job.index = static_cast<std::size_t>(u64);
  if (!parse_u64(f[kJfAttempts], u64) || u64 == 0) return false;
  out.attempts = static_cast<int>(u64);
  if (!parse_bool(f[kJfTimedOut], out.timed_out)) return false;
  if (!parse_bool(f[kJfOk], out.ok)) return false;
  out.error = f[kJfError];
  out.report.kernel = f[kJfKernel];
  out.report.input_parameter = f[kJfParam];
  if (!parse_double(f[kJfThreshold], d)) return false;
  out.report.threshold = static_cast<float>(d);
  if (!parse_double(f[kJfSupply], out.report.supply)) return false;
  if (!parse_double(f[kJfErrorRate], out.report.error_rate_configured)) {
    return false;
  }
  if (!parse_double(f[kJfHitRate], out.report.weighted_hit_rate)) return false;
  if (!parse_double(f[kJfEnergyMemo], out.report.energy.memoized_pj)) {
    return false;
  }
  if (!parse_double(f[kJfEnergyBase], out.report.energy.baseline_pj)) {
    return false;
  }
  if (!parse_u64(f[kJfOutputValues], u64)) return false;
  out.report.result.output_values = static_cast<std::size_t>(u64);
  if (!parse_double(f[kJfMaxAbsError], out.report.result.max_abs_error)) {
    return false;
  }
  if (!parse_double(f[kJfMeanAbsError], out.report.result.mean_abs_error)) {
    return false;
  }
  if (!parse_double(f[kJfRelRmsError], out.report.result.rel_rms_error)) {
    return false;
  }
  if (!parse_u64(f[kJfSdcValues], u64)) return false;
  out.report.result.sdc_values = static_cast<std::size_t>(u64);
  if (!parse_bool(f[kJfPassed], out.report.result.passed)) return false;
  if (!unpack_unit_stats(f[kJfUnitStats], out.report.unit_stats)) return false;
  if (!parse_double(f[kJfWallMs], out.wall_ms)) return false;
  if (f[kJfEnd] != "end") return false;
  return true;
}

SweepAxis SweepAxis::error_rate(double start, double stop, int count) {
  TM_REQUIRE(count >= 1, "sweep axis needs at least one point");
  TM_REQUIRE(start >= 0.0 && stop >= 0.0, "error rates must be >= 0");
  return SweepAxis{Kind::kErrorRate, start, stop, count};
}

SweepAxis SweepAxis::voltage(double start, double stop, int count) {
  TM_REQUIRE(count >= 1, "sweep axis needs at least one point");
  TM_REQUIRE(start > 0.0 && stop > 0.0, "supply voltages must be positive");
  return SweepAxis{Kind::kVoltage, start, stop, count};
}

std::vector<double> SweepAxis::points() const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  if (count == 1) {
    out.push_back(start);
    return out;
  }
  for (int i = 0; i < count; ++i) {
    out.push_back(start +
                  (stop - start) * static_cast<double>(i) /
                      static_cast<double>(count - 1));
  }
  return out;
}

std::optional<SweepAxis> SweepAxis::parse(std::string_view text) {
  const auto field = [&text]() -> std::optional<std::string_view> {
    if (text.empty()) return std::nullopt;
    const std::size_t colon = text.find(':');
    std::string_view f = text.substr(0, colon);
    text = colon == std::string_view::npos ? std::string_view{}
                                           : text.substr(colon + 1);
    return f;
  };
  const auto number = [&field]() -> std::optional<double> {
    const auto f = field();
    if (!f || f->empty()) return std::nullopt;
    // Null-terminate for strtod; axis fields are short.
    const std::string s(*f);
    char* end = nullptr;
    const double d = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size()) return std::nullopt;
    return d;
  };

  const auto kind = field();
  if (!kind) return std::nullopt;
  Kind k;
  if (*kind == "error-rate") {
    k = Kind::kErrorRate;
  } else if (*kind == "voltage") {
    k = Kind::kVoltage;
  } else {
    return std::nullopt;
  }
  const auto start = number();
  const auto stop = number();
  const auto count = number();
  if (!start || !stop || !count || !text.empty()) return std::nullopt;
  // strtod accepts "nan"/"inf"; neither is a meaningful axis endpoint, and
  // NaN would sail through the sign checks below (NaN < 0.0 is false).
  if (!std::isfinite(*start) || !std::isfinite(*stop)) return std::nullopt;
  // Range-check before the int cast: strtod accepts "nan", "inf" and
  // out-of-int-range values, and casting those is undefined behaviour
  // (found by tests/fuzz/fuzz_sweep_axis). 1e6 points is far beyond any
  // realistic sweep but far below allocation-failure territory.
  if (!(*count >= 1.0 && *count <= 1e6)) return std::nullopt;
  const int n = static_cast<int>(*count);
  if (static_cast<double>(n) != *count) return std::nullopt;
  if (k == Kind::kErrorRate && (*start < 0.0 || *stop < 0.0)) {
    return std::nullopt;
  }
  if (k == Kind::kVoltage && (*start <= 0.0 || *stop <= 0.0)) {
    return std::nullopt;
  }
  return SweepAxis{k, *start, *stop, n};
}

std::uint64_t derive_job_seed(std::uint64_t campaign_seed, std::size_t index) {
  return mix_seed(campaign_seed, static_cast<std::uint64_t>(index));
}

std::size_t CampaignResult::failed() const noexcept {
  std::size_t n = 0;
  for (const JobResult& j : jobs) n += j.ok ? 0 : 1;
  return n;
}

bool CampaignResult::all_passed() const noexcept {
  for (const JobResult& j : jobs) {
    if (!j.ok || !j.report.result.passed) return false;
  }
  return true;
}

CampaignEngine::CampaignEngine(int jobs) : jobs_(jobs) {
  if (jobs_ <= 0) {
    jobs_ = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs_ <= 0) jobs_ = 1;
  }
}

std::vector<CampaignJob> CampaignEngine::expand(const SweepSpec& spec) {
  const auto workloads =
      spec.factory ? spec.factory() : make_all_workloads(spec.scale);

  // Resolve the kernel filter against the factory's workload names.
  std::vector<std::string> filter;
  for (const std::string& k : spec.kernels) {
    const std::string l = lower(k);
    if (l == "all") {
      filter.clear();
      break;
    }
    filter.push_back(l);
  }
  std::vector<std::size_t> selected;
  if (filter.empty()) {
    for (std::size_t i = 0; i < workloads.size(); ++i) selected.push_back(i);
  } else {
    std::vector<bool> matched(filter.size(), false);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const std::string name = lower(workloads[i]->name());
      for (std::size_t f = 0; f < filter.size(); ++f) {
        if (filter[f] == name) {
          matched[f] = true;
          selected.push_back(i);
          break;
        }
      }
    }
    for (std::size_t f = 0; f < filter.size(); ++f) {
      if (!matched[f]) {
        throw std::invalid_argument("no kernel matches '" + filter[f] + "'");
      }
    }
  }

  const std::vector<double> points = spec.axis.points();
  const std::size_t variant_count =
      spec.variants.empty() ? 1 : spec.variants.size();
  const std::size_t threshold_count =
      spec.thresholds.empty() ? 1 : spec.thresholds.size();

  std::vector<CampaignJob> jobs;
  jobs.reserve(variant_count * selected.size() * threshold_count *
               points.size());
  for (std::size_t v = 0; v < variant_count; ++v) {
    for (std::size_t w : selected) {
      for (std::size_t t = 0; t < threshold_count; ++t) {
        for (double point : points) {
          CampaignJob job;
          job.index = jobs.size();
          job.workload_index = w;
          job.kernel = std::string(workloads[w]->name());
          job.variant_index = v;
          job.variant_label =
              spec.variants.empty() ? "base" : spec.variants[v].label;
          job.axis_value = point;
          job.fp_op_count = workloads[w]->fp_op_count();
          job.spec = spec.axis.kind == SweepAxis::Kind::kErrorRate
                         ? RunSpec::at_error_rate(point)
                         : RunSpec::at_voltage(point);
          if (!spec.thresholds.empty()) job.spec.threshold(spec.thresholds[t]);
          job.spec.seed(derive_job_seed(spec.campaign_seed, job.index));
          if (spec.metrics) job.spec.metrics(true);
          if (spec.timeline && job.index == 0) job.spec.timeline(true);
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

std::vector<std::size_t> dispatch_order(
    const std::vector<CampaignJob>& jobs) {
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&jobs](std::size_t a, std::size_t b) {
                     return jobs[a].fp_op_count > jobs[b].fp_op_count;
                   });
  return order;
}

std::string campaign_fingerprint(const SweepSpec& spec) {
  // Compose a canonical description of the grid identity, then hash it
  // (FNV-1a, 64-bit) into a short stable token for the journal header.
  std::string desc = "axis=";
  desc += spec.axis.kind_name();
  desc += ':';
  desc += fmt_double(spec.axis.start);
  desc += ':';
  desc += fmt_double(spec.axis.stop);
  desc += ':';
  desc += std::to_string(spec.axis.count);
  desc += ";scale=";
  desc += fmt_double(spec.scale);
  desc += ";seed=";
  desc += std::to_string(spec.campaign_seed);
  desc += ";kernels=";
  for (const std::string& k : spec.kernels) {
    desc += k;
    desc += '|';
  }
  desc += ";thresholds=";
  for (const float t : spec.thresholds) {
    desc += fmt_double(static_cast<double>(t));
    desc += '|';
  }
  desc += ";variants=";
  for (const ConfigVariant& v : spec.variants) {
    desc += v.label;
    desc += '|';
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : desc) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "v1-%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

std::uint64_t campaign_wire_digest(const SweepSpec& spec) {
  // The fingerprint covers the grid shape; the digest additionally covers
  // the variant configurations, because a remote worker rebuilds the spec
  // from its own command line and a drifted config knob (say --lut-depth)
  // would otherwise produce a silently different grid. Every config knob
  // reachable from the tmemo_sim/tmemo_workerd CLI enters the canonical
  // description below.
  std::string desc = campaign_fingerprint(spec);
  const auto add = [&desc](const std::string& field) {
    desc += ';';
    desc += field;
  };
  for (const ConfigVariant& v : spec.variants) {
    add(v.label);
    const ExperimentConfig& c = v.config;
    add(c.memoization ? "1" : "0");
    add(c.spatial ? "1" : "0");
    add(c.commutativity ? "1" : "0");
    add(std::to_string(c.device.compute_units));
    add(std::to_string(c.device.stream_cores_per_cu));
    add(std::to_string(c.device.wavefront_size));
    add(std::to_string(c.device.seed));
    add(std::to_string(c.device.fpu.lut_depth));
    add(std::to_string(static_cast<int>(c.device.fpu.recovery)));
    add(std::to_string(c.device.fpu.eds_seed));
    const inject::FaultInjectionConfig& inj = c.device.fpu.inject;
    add(fmt_double(inj.lut.seu_per_cycle));
    add(inj.lut.parity ? "1" : "0");
    add(fmt_double(inj.eds.false_negative_rate));
    add(fmt_double(inj.eds.false_positive_rate));
    add(std::to_string(inj.watchdog.recovery_cycle_budget));
    add(std::to_string(static_cast<int>(inj.watchdog.action)));
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : desc) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

bool read_csv_record(std::istream& in, std::vector<std::string>& fields) {
  fields.clear();
  using Traits = std::istream::traits_type;
  if (Traits::eq_int_type(in.peek(), Traits::eof())) return false;
  std::string field;
  bool quoted = false;
  for (;;) {
    const int c = in.get();
    if (Traits::eq_int_type(c, Traits::eof())) {
      // End of input terminates the record — including a quoted field cut
      // short by a crash; the caller's field-count check rejects it.
      fields.push_back(std::move(field));
      return true;
    }
    const char ch = Traits::to_char_type(c);
    if (quoted) {
      if (ch == '"') {
        if (in.peek() == Traits::to_int_type('"')) {
          in.get();
          field += '"';
        } else {
          quoted = false;
        }
      } else {
        field += ch;
      }
    } else if (ch == '"' && field.empty()) {
      quoted = true;
    } else if (ch == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (ch == '\n') {
      fields.push_back(std::move(field));
      return true;
    } else if (ch == '\r') {
      if (in.peek() == Traits::to_int_type('\n')) in.get();
      fields.push_back(std::move(field));
      return true;
    } else {
      field += ch;
    }
  }
}

CampaignJournal read_campaign_journal(std::istream& in) {
  CampaignJournal journal;
  std::vector<std::string> fields;
  if (!read_csv_record(in, fields) ||
      (fields.size() != 2 && fields.size() != 3) ||
      fields[0] != kCampaignJournalSchema ||
      (fields.size() == 3 && fields[2] != kCampaignJournalSealedMark)) {
    throw std::runtime_error("not a " + std::string(kCampaignJournalSchema) +
                             " journal");
  }
  // A header record cut short of its newline is a file with zero complete
  // records — and the byte position where truncating a sealed artifact
  // would otherwise demote it to a valid-looking empty append journal.
  if (in.tellg() == std::streampos(-1)) {
    throw std::runtime_error("torn journal header (file truncated)");
  }
  journal.fingerprint = fields[1];
  journal.sealed = fields.size() == 3;
  bool end_seen = false;
  std::uint64_t declared = 0;
  while (read_csv_record(in, fields)) {
    // tellg() == -1 means this record ran into EOF without a newline: the
    // torn-tail signature (see intact_journal_prefix).
    const bool newline_terminated = in.tellg() != std::streampos(-1);
    if (journal.sealed) {
      // Sealed artifacts (merge outputs, checkpoints) invert the
      // tolerance: they were written atomically and complete, so any tear
      // means the file was truncated *after* writing — exactly the silent
      // corruption the seal exists to catch.
      if (end_seen) {
        throw std::runtime_error(
            "sealed journal has records after its end sentinel");
      }
      if (fields.size() == 2 && fields[0] == kCampaignJournalEndRecord) {
        if (!newline_terminated || !parse_u64(fields[1], declared)) {
          throw std::runtime_error(
              "sealed journal end sentinel is torn or malformed");
        }
        end_seen = true;
        continue;
      }
      JobResult strict_entry;
      if (!newline_terminated || !parse_job_result(fields, strict_entry)) {
        throw std::runtime_error(
            "sealed journal record is torn or malformed "
            "(truncated artifact?)");
      }
      journal.entries.push_back(std::move(strict_entry));
      continue;
    }
    JobResult entry;
    if (parse_job_result(fields, entry)) {
      journal.entries.push_back(std::move(entry));
    } else {
      // A torn write: the campaign (or its host) died mid-append. The row
      // is unusable but the journal before it is intact, so count and move
      // on rather than failing the resume.
      ++journal.malformed_rows;
    }
  }
  if (journal.sealed) {
    if (!end_seen) {
      throw std::runtime_error(
          "sealed journal is missing its end sentinel (truncated artifact?)");
    }
    if (declared != journal.entries.size()) {
      throw std::runtime_error(
          "sealed journal end sentinel declares " + std::to_string(declared) +
          " records but " + std::to_string(journal.entries.size()) +
          " are present");
    }
  }
  return journal;
}

CampaignJournal read_campaign_journal_with_checkpoint(
    const std::string& path) {
  CampaignJournal merged;
  bool have_checkpoint = false;
  const std::string cpath = campaign_checkpoint_path(path);
  {
    std::ifstream cp_in(cpath, std::ios::binary);
    if (cp_in.is_open() &&
        !std::ifstream::traits_type::eq_int_type(
            cp_in.peek(), std::ifstream::traits_type::eof())) {
      CampaignJournal cp;
      try {
        cp = read_campaign_journal(cp_in);
      } catch (const std::exception& e) {
        throw std::runtime_error(cpath + ": " + e.what());
      }
      if (!cp.sealed) {
        throw std::runtime_error("journal checkpoint is not sealed: " +
                                 cpath);
      }
      merged = std::move(cp);
      // The combined state is resumable, not itself a sealed artifact.
      merged.sealed = false;
      have_checkpoint = true;
    }
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw std::runtime_error("cannot read campaign journal: " + path);
  }
  CampaignJournal live;
  try {
    live = read_campaign_journal(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  if (have_checkpoint && live.fingerprint != merged.fingerprint) {
    throw std::runtime_error(
        "journal checkpoint belongs to a different campaign: " + cpath +
        " vs " + path);
  }
  merged.fingerprint = live.fingerprint;
  merged.malformed_rows += live.malformed_rows;
  // Tail entries after checkpoint entries: resume's later-entry-wins rule
  // then reproduces full-journal replay bit-identically.
  for (JobResult& e : live.entries) {
    merged.entries.push_back(std::move(e));
  }
  return merged;
}

CampaignResult CampaignEngine::run(const SweepSpec& spec,
                                   const CampaignRunOptions& options) const {
  TM_REQUIRE(options.max_attempts >= 1, "max_attempts must be >= 1");
  const std::string fingerprint =
      (options.resume.has_value() || !options.journal_path.empty())
          ? campaign_fingerprint(spec)
          : std::string();
  if (options.resume.has_value()) {
    TM_REQUIRE(!spec.metrics && !spec.timeline,
               "metrics/timeline campaigns cannot be resumed "
               "(snapshots are not journaled)");
    TM_REQUIRE(options.resume->fingerprint == fingerprint,
               "journal fingerprint does not match this campaign");
  }

  const std::vector<CampaignJob> jobs = expand(spec);

  // Map journal entries onto job slots; a later duplicate (a job journaled
  // twice across interrupted runs) wins. Only ok entries are restored:
  // journaled failures (a crashed worker, an exhausted retry budget) are
  // re-executed, so resuming after fixing the environment heals the grid.
  std::vector<const JobResult*> restored(jobs.size(), nullptr);
  if (options.resume.has_value()) {
    for (const JobResult& e : options.resume->entries) {
      if (e.ok && e.job.index < restored.size()) restored[e.job.index] = &e;
    }
  }

  // Append-only journal: header only when the file is fresh, one written-
  // and-fsynced record per finished job (restored jobs are already
  // journaled).
  CampaignJournalWriter journal;
  std::mutex journal_mutex;
  std::string journal_error;
  if (!options.journal_path.empty()) {
    journal.configure(options.checkpoint_every, options.inject_fs);
    journal.open(options.journal_path, fingerprint);
  } else {
    TM_REQUIRE(options.checkpoint_every == 0,
               "checkpoint_every requires a journal path");
  }
  // A journal append that cannot be made durable (ENOSPC, EIO, an injected
  // --inject-fs fault) must not kill a worker thread — a throw would
  // std::terminate — and must not pass silently. Record the first failure,
  // stop journaling, and let the campaign finish in memory; callers
  // surface CampaignResult::artifact_error as a distinct nonzero exit.
  const auto safe_append = [&journal, &journal_error](const JobResult& done) {
    if (!journal.is_open()) return;
    try {
      journal.append(done);
    } catch (const std::exception& e) {
      if (journal_error.empty()) journal_error = e.what();
      journal.close();
    }
  };

  CampaignResult result;
  result.jobs.resize(jobs.size());
  const int workers = static_cast<int>(
      std::min(static_cast<std::size_t>(std::max(1, jobs_)),
               std::max<std::size_t>(jobs.size(), 1)));
  result.workers = workers;

  const std::vector<std::size_t> order = dispatch_order(jobs);
  const auto campaign_start = wall_now();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> resumed{0};

  // Each worker owns a private workload set, so jobs never share mutable
  // state; results land in distinct slots, so only the journal needs a lock.
  const auto worker = [&]() {
    std::vector<std::unique_ptr<Workload>> workloads;
    std::string setup_error;
    try {
      workloads =
          spec.factory ? spec.factory() : make_all_workloads(spec.scale);
    } catch (const std::exception& e) {
      setup_error = std::string("workload setup failed: ") + e.what();
    } catch (...) {
      setup_error = "workload setup failed: unknown exception";
    }

    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= jobs.size()) return;
      const std::size_t i = order[k];
      JobResult& out = result.jobs[i];
      if (restored[i] != nullptr) {
        out = *restored[i];
        out.job = jobs[i];
        resumed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      out.job = jobs[i];
      const auto job_start = wall_now();
      if (!setup_error.empty()) {
        // Setup failures are environmental, not per-job: never retried.
        out.error = setup_error;
      } else if (jobs[i].workload_index >= workloads.size()) {
        out.error = "workload factory returned fewer workloads than expected";
      } else {
        for (int attempt = 1;; ++attempt) {
          out.attempts = attempt;
          out.ok = false;
          out.error.clear();
          try {
            const ExperimentConfig& config =
                spec.variants.empty()
                    ? ExperimentConfig{}
                    : spec.variants[jobs[i].variant_index].config;
            const Simulation sim(config);
            out.report =
                sim.run(*workloads[jobs[i].workload_index], jobs[i].spec);
            out.ok = true;
          } catch (const std::exception& e) {
            out.error = e.what();
          } catch (...) {
            out.error = "unknown exception";
          }
          if (out.ok || attempt >= options.max_attempts) break;
        }
      }
      out.wall_ms = elapsed_ms(job_start);
      if (options.job_timeout_ms > 0.0 &&
          out.wall_ms > options.job_timeout_ms) {
        // Cooperative timeout: the run already finished (a worker thread
        // cannot be preempted safely), but its result is discarded so slow
        // outliers surface as failures rather than skewing the grid.
        out.ok = false;
        out.timed_out = true;
        out.report = KernelRunReport{};
        out.error = "job exceeded " + fmt_double(options.job_timeout_ms) +
                    " ms timeout";
      }
      if (journal.is_open()) {
        const std::lock_guard<std::mutex> lock(journal_mutex);
        safe_append(out);
      }
    }
  };

  std::shared_ptr<const telemetry::Timeline> supervisor_timeline;
  const bool supervised = options.isolation == IsolationMode::kProcess ||
                          options.isolation == IsolationMode::kRemote;
  net::Listener owned_listener;
  if (supervised) {
    // Fill restored slots up front; everything else goes to the supervisor.
    ProcessPoolRequest req;
    req.spec = &spec;
    req.jobs = &jobs;
    for (const std::size_t i : order) {
      if (restored[i] != nullptr) {
        result.jobs[i] = *restored[i];
        result.jobs[i].job = jobs[i];
        resumed.fetch_add(1, std::memory_order_relaxed);
      } else {
        req.pending.push_back(i);
      }
    }
    req.workers = workers;
    req.max_attempts = options.max_attempts;
    req.job_timeout_ms = options.job_timeout_ms;
    req.inject_crash = options.inject_worker_crash;
    req.want_metrics = spec.metrics || spec.timeline;
    req.want_timeline = spec.timeline;
    if (options.isolation == IsolationMode::kRemote) {
      // Socket workers do the heavy lifting; forked pipe workers join the
      // same loop only when explicitly asked for.
      req.workers = std::max(0, options.remote_local_workers);
      req.campaign_digest = campaign_wire_digest(spec);
      req.keepalive_interval_ms = options.keepalive_interval_ms;
      req.keepalive_timeout_ms = options.keepalive_timeout_ms;
      req.inject_net = options.inject_net;
      if (options.listener != nullptr) {
        req.listener = options.listener;
      } else {
        const std::optional<net::HostPort> at =
            net::parse_host_port(options.listen_address,
                                 /*allow_ephemeral=*/true);
        TM_REQUIRE(at.has_value(),
                   "remote isolation needs a listen address "
                   "(HOST:PORT), got '" +
                       options.listen_address + "'");
        owned_listener.open(*at); // throws with endpoint + errno on failure
        req.listener = &owned_listener;
      }
    }
    if (journal.is_open()) {
      // The supervisor is single-threaded, so no lock is needed.
      req.journal_append = safe_append;
    }
    ProcessPoolOutcome outcome = run_process_pool(req, result.jobs);
    result.worker_stats = outcome.stats;
    supervisor_timeline = std::move(outcome.timeline);
    if (options.isolation == IsolationMode::kRemote) {
      // "Workers used" = every registered remote worker plus the local
      // forked ones that shared the loop.
      result.workers =
          req.workers + static_cast<int>(outcome.stats.remote_connects);
    }
  } else if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  result.resumed_jobs = resumed.load(std::memory_order_relaxed);

  // Fold the per-job snapshots into the campaign aggregate. The fold runs
  // in job-index order after the pool joins, and the merge itself is
  // order-independent, so the aggregate never depends on the worker count.
  if (spec.metrics || spec.timeline) {
    telemetry::MetricRegistry campaign_reg;
    campaign_reg.counter("campaign.jobs").add(result.jobs.size());
    campaign_reg.counter("campaign.jobs_failed").add(result.failed());
    if (supervised) {
      // Supervision instruments exist only under process/remote isolation,
      // so a crash-free thread campaign's snapshot stays byte-identical to
      // its pre-supervision shape.
      campaign_reg.counter("campaign.worker_spawns")
          .add(result.worker_stats.spawns);
      campaign_reg.counter("campaign.worker_crashes")
          .add(result.worker_stats.crashes);
      campaign_reg.counter("campaign.worker_respawns")
          .add(result.worker_stats.respawns);
      campaign_reg.counter("campaign.worker_redispatches")
          .add(result.worker_stats.redispatches);
      campaign_reg.counter("campaign.worker_timeout_kills")
          .add(result.worker_stats.timeout_kills);
    }
    if (options.isolation == IsolationMode::kRemote) {
      campaign_reg.counter("campaign.remote_connects")
          .add(result.worker_stats.remote_connects);
      campaign_reg.counter("campaign.remote_disconnects")
          .add(result.worker_stats.remote_disconnects);
      campaign_reg.counter("campaign.remote_rejects")
          .add(result.worker_stats.remote_rejects);
      campaign_reg.counter("campaign.remote_keepalive_pings")
          .add(result.worker_stats.remote_keepalive_pings);
      campaign_reg.counter("campaign.remote_keepalive_drops")
          .add(result.worker_stats.remote_keepalive_drops);
      campaign_reg.counter("campaign.remote_drains")
          .add(result.worker_stats.remote_drains);
    }
    result.metrics = campaign_reg.snapshot();
    for (const JobResult& j : result.jobs) {
      if (j.ok) result.metrics.merge(j.report.metrics);
      if (j.ok && j.job.index == 0) result.timeline = j.report.timeline;
    }
    if (supervised && spec.timeline) {
      // A job's event timeline cannot cross the worker pipe (only metrics
      // snapshots do); the supervisor's own lifecycle timeline stands in.
      result.timeline = supervisor_timeline;
    }
  }

  result.artifact_error = journal_error;
  result.wall_ms = elapsed_ms(campaign_start);
  return result;
}

void write_campaign_csv(const CampaignResult& result, std::ostream& out) {
  out << "index,variant,kernel,param,axis,axis_value,threshold,supply_v,"
         "error_rate,seed,hit_rate,e_memo_pj,e_base_pj,saving,verify,"
         "max_abs_error,sdc_values,sdc_ops,attempts,wall_ms,status,error\n";
  for (const JobResult& j : result.jobs) {
    const RunSpec& spec = j.job.spec;
    const bool voltage = spec.axis() == RunSpec::Axis::kVoltage;
    out << j.job.index << ',' << csv_escape(j.job.variant_label) << ','
        << csv_escape(j.job.kernel) << ','
        << csv_escape(j.ok ? j.report.input_parameter : "") << ','
        << (voltage ? "voltage" : "error-rate") << ','
        << fmt_double(j.job.axis_value) << ','
        << (j.ok ? fmt_double(static_cast<double>(j.report.threshold)) : "")
        << ',' << (j.ok ? fmt_double(j.report.supply) : "") << ','
        << (j.ok ? fmt_double(j.report.error_rate_configured) : "") << ','
        << (spec.seed() ? std::to_string(*spec.seed()) : "") << ',';
    if (j.ok) {
      out << fmt_double(j.report.weighted_hit_rate) << ','
          << fmt_double(j.report.energy.memoized_pj) << ','
          << fmt_double(j.report.energy.baseline_pj) << ','
          << fmt_double(j.report.energy.saving()) << ','
          << (j.report.result.passed ? "passed" : "FAILED") << ','
          << fmt_double(j.report.result.max_abs_error) << ','
          << j.report.result.sdc_values << ',' << j.report.total_sdc_ops();
    } else {
      out << ",,,,,,,";
    }
    out << ',' << j.attempts << ',' << fmt_double(j.wall_ms) << ','
        << (j.ok ? "ok" : (j.timed_out ? "timeout" : "error")) << ','
        << csv_escape(j.error) << '\n';
  }
  // Self-describing artifact: a '#'-comment footer declaring the record
  // count, so a truncated copy of the grid is detectable on read
  // (io::verify_artifact_footer) instead of parsing as a smaller grid.
  // Line-oriented consumers (awk/cut pipelines) skip it as a comment.
  io::write_artifact_footer(out, result.jobs.size());
}

void write_campaign_json(const CampaignResult& result, std::ostream& out) {
  out << "{\n"
      << "  \"schema\": \"tmemo-campaign-v1\",\n"
      << "  \"workers\": " << result.workers << ",\n"
      << "  \"wall_ms\": " << fmt_double(result.wall_ms) << ",\n"
      << "  \"jobs\": [";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const JobResult& j = result.jobs[i];
    const RunSpec& spec = j.job.spec;
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"index\": " << j.job.index << ", \"variant\": \""
        << json_escape(j.job.variant_label) << "\", \"kernel\": \""
        << json_escape(j.job.kernel) << "\", \"axis\": \""
        << (spec.axis() == RunSpec::Axis::kVoltage ? "voltage" : "error-rate")
        << "\", \"axis_value\": " << fmt_double(j.job.axis_value)
        << ", \"seed\": "
        << (spec.seed() ? std::to_string(*spec.seed()) : "null")
        << ", \"ok\": " << (j.ok ? "true" : "false")
        << ", \"attempts\": " << j.attempts << ", \"timed_out\": "
        << (j.timed_out ? "true" : "false") << ", \"wall_ms\": "
        << fmt_double(j.wall_ms);
    if (j.ok) {
      const KernelRunReport& r = j.report;
      out << ", \"report\": {\"param\": \"" << json_escape(r.input_parameter)
          << "\", \"threshold\": "
          << fmt_double(static_cast<double>(r.threshold))
          << ", \"supply\": " << fmt_double(r.supply)
          << ", \"error_rate\": " << fmt_double(r.error_rate_configured)
          << ", \"weighted_hit_rate\": " << fmt_double(r.weighted_hit_rate)
          << ", \"e_memo_pj\": " << fmt_double(r.energy.memoized_pj)
          << ", \"e_base_pj\": " << fmt_double(r.energy.baseline_pj)
          << ", \"saving\": " << fmt_double(r.energy.saving())
          << ", \"passed\": " << (r.result.passed ? "true" : "false")
          << ", \"output_values\": " << r.result.output_values
          << ", \"max_abs_error\": " << fmt_double(r.result.max_abs_error)
          << ", \"mean_abs_error\": " << fmt_double(r.result.mean_abs_error)
          << ", \"rel_rms_error\": " << fmt_double(r.result.rel_rms_error)
          << ", \"sdc_values\": " << r.result.sdc_values
          << ", \"sdc_ops\": " << r.total_sdc_ops() << "}";
    } else {
      out << ", \"error\": \"" << json_escape(j.error) << "\"";
    }
    out << "}";
  }
  out << "\n  ],\n"
      << "  \"resumed_jobs\": " << result.resumed_jobs << ",\n"
      << "  \"failed_jobs\": [";
  // Failure manifest: the rows an operator triages (and a resume re-runs
  // by deleting them from the journal) without scanning the full grid.
  bool first_failed = true;
  for (const JobResult& j : result.jobs) {
    if (j.ok) continue;
    out << (first_failed ? "\n" : ",\n");
    first_failed = false;
    out << "    {\"index\": " << j.job.index << ", \"kernel\": \""
        << json_escape(j.job.kernel) << "\", \"attempts\": " << j.attempts
        << ", \"timed_out\": " << (j.timed_out ? "true" : "false")
        << ", \"error\": \"" << json_escape(j.error) << "\"}";
  }
  out << (first_failed ? "]\n}\n" : "\n  ]\n}\n");
}

} // namespace tmemo
