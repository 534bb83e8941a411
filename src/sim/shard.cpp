#include "sim/shard.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#ifdef __unix__
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

#include "common/atomic_file.h"
#include "common/error.h"
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

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
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

std::vector<std::string> watch_shard_journals(const std::string& merged_path,
                                              const std::string& campaign,
                                              double poll_s) {
  std::map<std::string, std::size_t> seen_trials;  // progress cursors
  std::map<std::string, bool> reported_sealed;
  int polls_since_change = 0;
  bool waiting_note_printed = false;
  for (;;) {
    const std::vector<std::string> paths =
        discover_shard_journals(merged_path);
    if (paths.empty()) {
      if (!waiting_note_printed) {
        std::fprintf(stderr,
                     "watch: no shard journals for campaign '%s' yet; "
                     "waiting for the fleet...\n",
                     campaign.c_str());
        waiting_note_printed = true;
      }
      sleep_s(poll_s);
      continue;
    }
    bool changed = false;
    bool all_sealed = true;
    std::size_t shard_count = 0;
    std::set<std::size_t> sealed_indices;
    std::vector<std::string> unsealed;
    for (const std::string& path : paths) {
      LoadedJournal lj;
      try {
        lj = read_journal_file(path);
      } catch (const std::exception&) {
        // Unreadable mid-copy/mid-create: in-progress, next poll.
        all_sealed = false;
        unsealed.push_back(path);
        continue;
      }
      if (lj.seal.has_value() && !lj.seal_intact()) {
        // Confirm before failing: an append can land between our read of
        // the records and of the footer region only on a live file, and
        // a live file re-reads differently.
        sleep_s(poll_s);
        const LoadedJournal confirm = read_journal_file(path);
        if (confirm.seal.has_value() && !confirm.seal_intact()) {
          throw JournalMismatchError(
              "watch: shard journal '" + path +
              "' has a seal footer that does not match its records (seal "
              "says " + std::to_string(confirm.seal->trials) +
              " trials, file holds " + std::to_string(confirm.trials.size()) +
              " intact); the file was damaged in transport -- refusing to "
              "merge");
        }
        all_sealed = false;
        unsealed.push_back(path);
        continue;
      }
      const bool sealed = lj.seal_intact();
      const std::size_t count = lj.trials.size();
      if (seen_trials[path] != count || reported_sealed[path] != sealed) {
        std::fprintf(stderr, "watch: %s: %zu/%zu trials%s\n", path.c_str(),
                     count, lj.shard.owned_of(lj.key.trials),
                     sealed ? ", sealed" : "");
        seen_trials[path] = count;
        reported_sealed[path] = sealed;
        changed = true;
      }
      if (sealed && lj.shard.enabled()) {
        shard_count = lj.shard.count;
        sealed_indices.insert(lj.shard.index);
      } else {
        all_sealed = false;
        unsealed.push_back(path);
      }
    }
    if (all_sealed && shard_count > 0 &&
        sealed_indices.size() == shard_count) {
      std::fprintf(stderr,
                   "watch: all %zu shards sealed for campaign '%s'; "
                   "finalizing merge\n",
                   shard_count, campaign.c_str());
      return paths;
    }
    polls_since_change = changed ? 0 : polls_since_change + 1;
    // ~10s of silence while others already sealed: name the stragglers.
    if (polls_since_change > 0 &&
        polls_since_change % std::max(1, static_cast<int>(10.0 / poll_s)) ==
            0) {
      for (const std::string& path : unsealed) {
        std::fprintf(stderr,
                     "watch: still waiting on '%s' (%zu trials, no seal "
                     "yet)\n",
                     path.c_str(), seen_trials[path]);
      }
    }
    sleep_s(poll_s);
  }
}

// ---------------------------------------------------------------------------
// Work queue (POSIX).

#ifdef __unix__

namespace {

std::string join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

void ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) return;
  throw std::runtime_error("shard queue: cannot create directory '" + path +
                           "': " + std::strerror(errno));
}

/// O_CREAT|O_EXCL marker creation: true iff WE created it.
bool create_exclusive(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd >= 0) {
    ::close(fd);
    return true;
  }
  if (errno == EEXIST) return false;
  throw std::runtime_error("shard queue: cannot create '" + path +
                           "': " + std::strerror(errno));
}

bool path_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// Ticket names under `dir`, sorted by (count, index). With
/// `allow_missing`, a nonexistent directory reads as empty (queues made
/// before the done/ directory existed).
std::vector<std::string> list_tickets(const std::string& dir,
                                      bool allow_missing = false) {
  std::vector<std::pair<ShardPlan, std::string>> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (allow_missing && errno == ENOENT) return {};
    throw std::runtime_error("shard queue: cannot list '" + dir +
                             "': " + std::strerror(errno));
  }
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    const std::optional<ShardPlan> plan = ShardPlan::parse_suffix(name);
    if (plan.has_value()) found.emplace_back(*plan, name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end(), order_by_plan);
  std::vector<std::string> names;
  names.reserve(found.size());
  for (auto& [plan, name] : found) names.push_back(std::move(name));
  return names;
}

// ---------------------------------------------------------------------------
// Leases.

std::string self_host() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown-host";
  return buf;
}

std::string lease_content(const std::string& host, long pid,
                          std::uint64_t renewals) {
  return "host " + host + "\npid " + std::to_string(pid) + "\nrenewals " +
         std::to_string(renewals) + "\n";
}

std::optional<LeaseInfo> read_lease(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  LeaseInfo info;
  std::string key;
  if (!(in >> key) || key != "host" || !(in >> info.host)) return std::nullopt;
  if (!(in >> key) || key != "pid" || !(in >> info.pid)) return std::nullopt;
  if (!(in >> key) || key != "renewals" || !(in >> info.renewals)) {
    return std::nullopt;
  }
  return info;
}

/// Age of `path` measured against a probe file freshly rewritten in the
/// queue directory: both mtimes come from the queue filesystem's clock,
/// so a worker on a machine with a skewed wall clock still ages (or
/// stays fresh) correctly. Negative ages (a lease stamped in the probe's
/// future, e.g. by a fast-clocked machine) read as fresh. nullopt when
/// `path` vanished mid-check (a racing rename).
std::optional<double> age_vs_probe(const std::string& dir,
                                   const std::string& path) {
  const std::string probe = join(dir, "probe");
  AtomicFile::write(probe, "probe\n");
  struct stat probe_st, lease_st;
  if (::stat(probe.c_str(), &probe_st) != 0) {
    throw std::runtime_error("shard queue: cannot stat probe '" + probe +
                             "': " + std::strerror(errno));
  }
  if (::stat(path.c_str(), &lease_st) != 0) {
    if (errno == ENOENT) return std::nullopt;
    throw std::runtime_error("shard queue: cannot stat '" + path +
                             "': " + std::strerror(errno));
  }
  const auto seconds_of = [](const struct stat& st) {
    return static_cast<double>(st.st_mtim.tv_sec) +
           static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
  };
  return seconds_of(probe_st) - seconds_of(lease_st);
}

bool lease_is_stale(std::optional<double> age, const LeaseOptions& opts) {
  return age.has_value() && *age > opts.ttl_s + opts.effective_grace_s();
}

}  // namespace

void ShardQueue::init(const std::string& dir, std::size_t count) {
  MMR_EXPECTS(!dir.empty());
  MMR_EXPECTS(count >= 1);
  ensure_dir(dir);
  ensure_dir(join(dir, "tickets"));
  ensure_dir(join(dir, "todo"));
  ensure_dir(join(dir, "claimed"));
  ensure_dir(join(dir, "done"));
  // A queue is permanently bound to its shard count: mixing counts would
  // mix ownership partitions.
  const std::string meta = join(dir, "shard-count");
  {
    std::ifstream in(meta);
    std::string text;
    if (in >> text) {
      std::size_t existing = 0;
      if (!mmr::parse_size(text.c_str(), existing) || existing != count) {
        throw std::runtime_error(
            "shard queue '" + dir + "' was initialized for " + text +
            " shards; refusing to re-initialize for " +
            std::to_string(count));
      }
    } else {
      AtomicFile::write(meta, std::to_string(count) + "\n");
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::string name = ShardPlan{i, count}.suffix();
    // The tickets/ marker is PERMANENT: whoever creates it owns the one
    // and only offer of the shard in todo/. A late initializer loses the
    // O_EXCL race and must not re-offer a shard someone may already have
    // claimed.
    if (create_exclusive(join(join(dir, "tickets"), name))) {
      (void)create_exclusive(join(join(dir, "todo"), name));
    }
  }
}

std::optional<ShardPlan> ShardQueue::claim(const std::string& dir,
                                           const LeaseOptions& opts) {
  const std::string todo = join(dir, "todo");
  const std::string claimed = join(dir, "claimed");
  for (;;) {
    bool raced = false;
    for (const std::string& name : list_tickets(todo)) {
      // Freshen the ticket's mtime BEFORE the claiming rename: rename(2)
      // preserves mtime, so a ticket that sat in todo/ longer than the
      // TTL would otherwise look instantly stale in claimed/ during the
      // gap before the lease content lands.
      (void)::utimensat(AT_FDCWD, join(todo, name).c_str(), nullptr, 0);
      if (::rename(join(todo, name).c_str(), join(claimed, name).c_str()) ==
          0) {
        // We own the shard; stamp the lease (AtomicFile gives the file a
        // fresh inode and mtime from the queue filesystem's clock).
        AtomicFile::write(join(claimed, name),
                          lease_content(self_host(), ::getpid(), 0));
        return ShardPlan::parse_suffix(name);
      }
      if (errno == ENOENT) {
        // Another worker won this ticket between listing and rename.
        raced = true;
        continue;
      }
      throw std::runtime_error("shard queue: cannot claim '" +
                               join(todo, name) +
                               "': " + std::strerror(errno));
    }
    if (raced) continue;
    // Nothing claimable: reclaim any claimed/ shard whose lease has gone
    // stale (its worker died without running destructors) and loop to
    // claim it through the normal rename race.
    bool reclaimed = false;
    for (const std::string& name : list_tickets(claimed)) {
      if (!lease_is_stale(age_vs_probe(dir, join(claimed, name)), opts)) {
        continue;
      }
      if (::rename(join(claimed, name).c_str(), join(todo, name).c_str()) ==
          0) {
        reclaimed = true;
      } else if (errno != ENOENT) {
        throw std::runtime_error("shard queue: cannot reclaim '" +
                                 join(claimed, name) +
                                 "': " + std::strerror(errno));
      }
    }
    if (!reclaimed) return std::nullopt;
  }
}

bool ShardQueue::renew(const std::string& dir, const ShardPlan& plan) {
  MMR_EXPECTS(plan.enabled() && plan.valid());
  const std::string path = join(join(dir, "claimed"), plan.suffix());
  const std::optional<LeaseInfo> info = read_lease(path);
  if (!info.has_value() || info->host != self_host() ||
      info->pid != static_cast<long>(::getpid())) {
    // Gone or renamed to another holder: the shard was reclaimed out
    // from under us. (The residual window -- reclaim landing between
    // this check and the write below -- is excluded by the queue
    // contract: leases only go stale after ttl + grace, and renewals
    // run every ttl/4.)
    return false;
  }
  AtomicFile::write(path,
                    lease_content(info->host, info->pid, info->renewals + 1));
  return true;
}

void ShardQueue::complete(const std::string& dir, const ShardPlan& plan) {
  MMR_EXPECTS(plan.enabled() && plan.valid());
  const std::string name = plan.suffix();
  if (!path_exists(join(join(dir, "tickets"), name))) {
    throw std::runtime_error("shard queue '" + dir +
                             "' has no ticket for shard " + name);
  }
  const std::string done = join(join(dir, "done"), name);
  if (path_exists(done)) return;  // already complete
  const std::string claimed = join(join(dir, "claimed"), name);
  const std::optional<LeaseInfo> info = read_lease(claimed);
  if (info.has_value() && (info->host != self_host() ||
                           info->pid != static_cast<long>(::getpid()))) {
    // The shard was reclaimed and is someone else's now; completion is
    // their call, not ours.
    return;
  }
  if (::rename(claimed.c_str(), done.c_str()) == 0) return;
  if (errno != ENOENT) {
    throw std::runtime_error("shard queue: cannot complete '" + claimed +
                             "': " + std::strerror(errno));
  }
  // Not claimed, not done: the ticket is back in todo/ (reclaimed) or
  // mid-rename; either way, nothing for us to mark.
}

void ShardQueue::requeue(const std::string& dir, const ShardPlan& plan,
                         const LeaseOptions& opts) {
  MMR_EXPECTS(plan.enabled() && plan.valid());
  const std::string name = plan.suffix();
  if (!path_exists(join(join(dir, "tickets"), name))) {
    throw std::runtime_error("shard queue '" + dir +
                             "' has no ticket for shard " + name);
  }
  // Idempotent exits first: already claimable, or already finished (a
  // done shard has nothing left to re-run).
  const std::string to = join(join(dir, "todo"), name);
  if (path_exists(to)) return;
  if (path_exists(join(join(dir, "done"), name))) return;
  const std::string from = join(join(dir, "claimed"), name);
  // Refuse to pull a live worker's shard: a lease fresher than
  // ttl + grace means its holder is still heartbeating, and re-offering
  // the shard would run the same trials twice.
  if (!lease_is_stale(age_vs_probe(dir, from), opts) && path_exists(from)) {
    const std::optional<LeaseInfo> info = read_lease(from);
    throw LeaseHeldError(
        "shard " + name + " in queue '" + dir + "' is held by live worker " +
        (info.has_value() ? info->describe() : std::string("(unknown)")) +
        "; its lease is fresher than ttl+grace (" +
        std::to_string(opts.ttl_s + opts.effective_grace_s()) +
        "s) -- wait for the lease to lapse or stop that worker first");
  }
  if (::rename(from.c_str(), to.c_str()) == 0) return;
  if (errno != ENOENT) {
    throw std::runtime_error("shard queue: cannot requeue '" + from +
                             "': " + std::strerror(errno));
  }
  // Not in claimed/: lost to a crash between renames. The permanent
  // ticket proves the shard belongs to this queue, so ensure exactly one
  // offer exists.
  (void)create_exclusive(to);
}

std::optional<LeaseInfo> ShardQueue::holder(const std::string& dir,
                                            const ShardPlan& plan) {
  MMR_EXPECTS(plan.enabled() && plan.valid());
  return read_lease(join(join(dir, "claimed"), plan.suffix()));
}

ShardQueue::Counts ShardQueue::counts(const std::string& dir) {
  Counts c;
  c.todo = list_tickets(join(dir, "todo"), /*allow_missing=*/true).size();
  c.claimed =
      list_tickets(join(dir, "claimed"), /*allow_missing=*/true).size();
  c.done = list_tickets(join(dir, "done"), /*allow_missing=*/true).size();
  return c;
}

#else  // !__unix__

namespace {

[[noreturn]] void throw_posix_only() {
  throw std::runtime_error(
      "ShardQueue requires a POSIX filesystem (O_EXCL create + atomic "
      "rename); use explicit --shard i/N on this platform");
}

}  // namespace

void ShardQueue::init(const std::string&, std::size_t) { throw_posix_only(); }

std::optional<ShardPlan> ShardQueue::claim(const std::string&,
                                           const LeaseOptions&) {
  throw_posix_only();
}

bool ShardQueue::renew(const std::string&, const ShardPlan&) {
  throw_posix_only();
}

void ShardQueue::complete(const std::string&, const ShardPlan&) {
  throw_posix_only();
}

void ShardQueue::requeue(const std::string&, const ShardPlan&,
                         const LeaseOptions&) {
  throw_posix_only();
}

std::optional<LeaseInfo> ShardQueue::holder(const std::string&,
                                            const ShardPlan&) {
  throw_posix_only();
}

ShardQueue::Counts ShardQueue::counts(const std::string&) {
  throw_posix_only();
}

#endif  // __unix__

// ---------------------------------------------------------------------------
// Lease keeper (platform-agnostic: built on the queue calls above).

ShardLeaseKeeper::ShardLeaseKeeper(std::string dir, ShardPlan plan,
                                   LeaseOptions opts)
    : dir_(std::move(dir)), plan_(plan), opts_(opts) {
  MMR_EXPECTS(plan_.enabled() && plan_.valid());
  heartbeat_ = std::thread([this] {
    // Renew every ttl/4: several heartbeats must fit inside ttl + grace
    // so one slow renewal never loses the lease.
    const auto interval =
        std::chrono::duration<double>(std::max(opts_.ttl_s / 4.0, 0.001));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
      lock.unlock();
      bool renewed = true;
      try {
        renewed = ShardQueue::renew(dir_, plan_);
      } catch (...) {
        // Transient queue I/O trouble: keep the thread alive and retry
        // next beat -- the lease only lapses after ttl + grace.
      }
      if (!renewed) lost_.store(true, std::memory_order_relaxed);
      lock.lock();
      if (lost_.load(std::memory_order_relaxed)) return;
    }
  });
}

ShardLeaseKeeper::~ShardLeaseKeeper() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  // Normal destruction == the worker finished its pass: mark the shard
  // done so it is never reclaimed. A lost lease belongs to its new
  // holder, and a process that dies without destructors (SIGKILL,
  // _exit) never reaches this line -- its lease goes stale instead.
  if (!lost()) {
    try {
      ShardQueue::complete(dir_, plan_);
    } catch (...) {
      // Completion failure leaves the shard claimed; it will be
      // reclaimed after the TTL and its journal resumed -- safe.
    }
  }
}

}  // namespace mmr::sim
