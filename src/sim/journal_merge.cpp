#include "sim/journal_merge.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/table.hpp"
#include "io/atomic_file.hpp"

namespace tmemo {

JournalMergeReport merge_campaign_journals(
    const std::vector<std::string>& shard_paths,
    const std::string& output_path,
    const JournalMergeOptions& options) {
  if (shard_paths.empty()) {
    throw std::runtime_error("journal merge: no shards given");
  }
  if (!options.force) {
    // A merged journal is a finished artifact; clobbering one should take
    // explicit intent (--force), not a retyped output path.
    std::ifstream existing(output_path, std::ios::binary);
    if (existing.is_open() &&
        existing.peek() != std::ifstream::traits_type::eof()) {
      throw std::runtime_error(
          "journal merge: output exists and is not empty: " + output_path +
          " (pass --force to overwrite)");
    }
  }

  JournalMergeReport report;
  std::string fingerprint_source; // shard the fingerprint came from
  // Job index -> (winning entry, ok flag). std::map keeps the output in
  // job-index order for free.
  std::map<std::size_t, JobResult> best;

  for (const std::string& path : shard_paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      throw std::runtime_error("journal merge: cannot read shard: " + path);
    }
    if (in.peek() == std::ifstream::traits_type::eof()) {
      // A workerd killed before its first append leaves a zero-byte file;
      // that is an empty contribution, not a broken one.
      ++report.empty_shards;
      continue;
    }
    in.close();
    CampaignJournal shard;
    try {
      // Checkpoint-aware: a compacted shard's completed set lives in its
      // sealed `<shard>.checkpoint` plus the live tail — exactly what a
      // --resume of that shard would see.
      shard = read_campaign_journal_with_checkpoint(path);
    } catch (const std::exception& e) {
      throw std::runtime_error("journal merge: " + std::string(e.what()));
    }
    if (report.shards_read == 0) {
      report.fingerprint = shard.fingerprint;
      fingerprint_source = path;
    } else if (shard.fingerprint != report.fingerprint) {
      throw std::runtime_error(
          "journal merge: campaign fingerprint mismatch: " + path +
          " was written for a different campaign than " + fingerprint_source +
          " (refusing to merge journals of different campaigns)");
    }
    ++report.shards_read;
    report.malformed_rows += shard.malformed_rows;
    for (JobResult& entry : shard.entries) {
      ++report.entries_in;
      const auto it = best.find(entry.job.index);
      if (it == best.end()) {
        best.emplace(entry.job.index, std::move(entry));
        continue;
      }
      // An ok result always beats a failure (the crashed attempt and the
      // successful redispatch live in different shards); otherwise the
      // later-listed shard wins.
      if (!entry.ok && it->second.ok) {
        ++report.duplicates_dropped;
        continue;
      }
      it->second = std::move(entry);
      ++report.duplicates_dropped;
    }
  }

  if (report.shards_read == 0) {
    throw std::runtime_error(
        "journal merge: every shard is empty; nothing to merge");
  }

  // The merge output is a *complete* artifact, so it gets the full
  // durability treatment: buffered, committed atomically (temp → fsync →
  // rename → parent-dir fsync), and sealed with a record-count end
  // sentinel so any later truncation is rejected on read.
  io::AtomicFileWriter writer;
  if (options.inject_fs.has_value()) {
    writer.open(output_path, *options.inject_fs);
  } else {
    writer.open(output_path);
  }
  std::ostream& out = writer.stream();
  out << std::string(kCampaignJournalSchema) << ','
      << csv_escape(report.fingerprint) << ','
      << std::string(kCampaignJournalSealedMark) << '\n';
  for (const auto& [index, entry] : best) {
    out << serialize_job_result(entry);
    ++report.entries_out;
  }
  out << std::string(kCampaignJournalEndRecord) << ',' << report.entries_out
      << '\n';
  writer.commit(); // throws io::IoError with path/op/errno on failure
  return report;
}

} // namespace tmemo
