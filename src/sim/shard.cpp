#include "sim/shard.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "common/atomic_file.h"
#include "common/parse.h"
#include "sim/journal.h"

namespace mmr::sim {
namespace {

constexpr const char* kJournalSuffix = ".journal";
constexpr const char* kShardPrefix = "shard-";

bool order_by_plan(const std::pair<ShardPlan, std::string>& a,
                   const std::pair<ShardPlan, std::string>& b) {
  if (a.first.count != b.first.count) return a.first.count < b.first.count;
  if (a.first.index != b.first.index) return a.first.index < b.first.index;
  return a.second < b.second;
}

/// "BASE.<campaign>": the name every journal of the campaign starts with.
std::string campaign_stem(const std::string& base,
                          const std::string& campaign) {
  std::string safe;
  safe.reserve(campaign.size());
  for (char c : campaign) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    safe.push_back(ok ? c : '_');
  }
  return base + "." + safe;
}

}  // namespace

std::size_t ShardPlan::owned_of(std::size_t total) const {
  if (count <= 1) return total;
  return total / count + (index < total % count ? 1 : 0);
}

std::string ShardPlan::suffix() const {
  return std::string(kShardPrefix) + std::to_string(index) + "-of-" +
         std::to_string(count);
}

std::optional<ShardPlan> ShardPlan::parse(const std::string& text) {
  // parse_size reads a C string: an embedded NUL would end the number
  // early and let trailing bytes through.
  if (text.find('\0') != std::string::npos) return std::nullopt;
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return std::nullopt;
  }
  std::size_t index = 0, count = 0;
  if (!mmr::parse_size(text.substr(0, slash).c_str(), index)) {
    return std::nullopt;
  }
  if (!mmr::parse_size(text.substr(slash + 1).c_str(), count)) {
    return std::nullopt;
  }
  if (count == 0 || index >= count) return std::nullopt;
  return ShardPlan{index, count};
}

std::optional<ShardPlan> ShardPlan::parse_suffix(const std::string& name) {
  const std::size_t prefix_len = std::strlen(kShardPrefix);
  if (name.compare(0, prefix_len, kShardPrefix) != 0) return std::nullopt;
  const std::size_t of = name.find("-of-", prefix_len);
  if (of == std::string::npos) return std::nullopt;
  return parse(name.substr(prefix_len, of - prefix_len) + "/" +
               name.substr(of + 4));
}

// ---------------------------------------------------------------------------
// Merge.

MergeStats merge_journals(const std::vector<std::string>& shard_paths,
                          const std::string& merged_path,
                          const CampaignKey& key) {
  if (shard_paths.empty()) {
    throw JournalMismatchError(
        "shard merge: no shard journals to merge (missing shard journals "
        "for every shard index)");
  }
  const auto mismatch = [](const std::string& what, const std::string& path) {
    throw JournalMismatchError("shard journal '" + path +
                               "' cannot be merged (" + what + ")");
  };
  std::size_t count = 0;
  std::size_t sealed_shards = 0;
  std::string count_origin;
  std::map<std::size_t, std::string> seen;  // shard index -> journal path
  std::map<std::size_t, JournalTrial> trials;
  for (const std::string& path : shard_paths) {
    LoadedJournal lj = read_journal_file(path);
    if (!lj.shard.enabled()) {
      mismatch("not a shard journal: its header carries no shard field",
               path);
    }
    if (lj.key.name != key.name) mismatch("name differs", path);
    if (lj.key.base_seed != key.base_seed) mismatch("base seed differs", path);
    if (lj.key.trials != key.trials) mismatch("trial count differs", path);
    if (lj.key.seed_policy != key.seed_policy) {
      mismatch("seed policy differs", path);
    }
    if (lj.key.fingerprint != key.fingerprint) {
      mismatch("config fingerprint differs", path);
    }
    if (!lj.shard.valid()) mismatch("shard index out of range", path);
    // A seal footer, when present, must vouch exactly for the records in
    // the file. A mismatch is transport damage (e.g. the file was
    // truncated at a record boundary, which record parsing alone cannot
    // see) -- merging it as "crashed early" would silently re-run trials
    // the worker in fact completed. Unsealed journals (in-progress,
    // crashed, or pre-seal-format) merge exactly as before.
    if (lj.seal.has_value() && !lj.seal_intact()) {
      std::string why = "seal footer does not match its records: seal says " +
                        std::to_string(lj.seal->trials) +
                        " trials, file holds " +
                        std::to_string(lj.trials.size()) + " intact";
      if (lj.torn_tail) why += ", with a torn line";
      if (lj.content_after_seal) why += ", with content after the seal";
      mismatch(why, path);
    }
    if (lj.seal_intact()) ++sealed_shards;
    if (count == 0) {
      count = lj.shard.count;
      count_origin = path;
    } else if (lj.shard.count != count) {
      mismatch("shard count differs: " + std::to_string(lj.shard.count) +
                   " here vs " + std::to_string(count) + " in '" +
                   count_origin + "'",
               path);
    }
    const auto [it, inserted] = seen.emplace(lj.shard.index, path);
    if (!inserted) {
      throw JournalMismatchError(
          "overlapping shard journals: shard index " +
          std::to_string(lj.shard.index) + " of " + std::to_string(count) +
          " is claimed by both '" + it->second + "' and '" + path + "'");
    }
    for (JournalTrial& t : lj.trials) {
      // read_journal_file already stops at foreign lines; these guards are
      // belt-and-braces against a hand-edited journal.
      if (t.index >= key.trials || !lj.shard.owns(t.index)) {
        mismatch("trial index " + std::to_string(t.index) +
                     " is outside the shard's ownership",
                 path);
      }
      trials.emplace(t.index, std::move(t));
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (seen.find(i) == seen.end()) {
      throw JournalMismatchError(
          "missing shard journal: shard index " + std::to_string(i) +
          " of " + std::to_string(count) + " has no journal in the merge "
          "set (run or resume that shard first)");
    }
  }

  std::string contents = journal_header_line(key);
  for (const auto& [index, trial] : trials) {
    contents += journal_trial_line(trial);
  }
  AtomicFile::write(merged_path, contents);

  MergeStats stats;
  stats.shard_count = count;
  stats.merged_trials = trials.size();
  stats.missing_trials = key.trials - trials.size();
  stats.sealed_shards = sealed_shards;
  return stats;
}

std::string journal_path(const std::string& base,
                         const std::string& campaign) {
  return campaign_stem(base, campaign) + kJournalSuffix;
}

std::string shard_journal_path(const std::string& base,
                               const std::string& campaign,
                               const ShardPlan& plan) {
  return campaign_stem(base, campaign) + "." + plan.suffix() +
         kJournalSuffix;
}

std::vector<std::string> discover_shard_journals(
    const std::string& merged_path) {
  namespace fs = std::filesystem;
  std::string stem = merged_path;
  const std::size_t suffix_len = std::strlen(kJournalSuffix);
  if (stem.size() > suffix_len &&
      stem.compare(stem.size() - suffix_len, suffix_len, kJournalSuffix) ==
          0) {
    stem.resize(stem.size() - suffix_len);
  }
  const fs::path stem_path(stem);
  const fs::path dir =
      stem_path.has_parent_path() ? stem_path.parent_path() : fs::path(".");
  const std::string base = stem_path.filename().string() + ".";
  std::vector<std::pair<ShardPlan, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= base.size() + suffix_len) continue;
    if (name.compare(0, base.size(), base) != 0) continue;
    if (name.compare(name.size() - suffix_len, suffix_len, kJournalSuffix) !=
        0) {
      continue;
    }
    const std::string middle =
        name.substr(base.size(), name.size() - base.size() - suffix_len);
    const std::optional<ShardPlan> plan = ShardPlan::parse_suffix(middle);
    if (!plan.has_value()) continue;
    found.emplace_back(*plan, (dir / name).string());
  }
  std::sort(found.begin(), found.end(), order_by_plan);
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [plan, path] : found) paths.push_back(std::move(path));
  return paths;
}

}  // namespace mmr::sim
