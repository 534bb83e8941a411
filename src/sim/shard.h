// Sharded distributed campaigns over the PR-5 CampaignJournal.
//
// A campaign's trial index space can be partitioned across N worker
// processes (or machines): worker i runs the trials it OWNS under a
// ShardPlan and checkpoints them into its own shard journal
// (BASE.<campaign>.shard-i-of-N.journal) whose header extends the
// campaign fingerprint with the shard spec. Because every trial's
// randomness derives purely from (base_seed, index) -- never from which
// trials ran before it -- shard k's trial j is bit-identical to the
// single-process trial j, and merging the shard journals back into one
// unsharded journal reconstitutes the exact single-process campaign.
//
// The pieces:
//   * ShardPlan: "which trials does worker i of N own" (strided
//     round-robin, so heterogeneous trial costs balance across workers).
//   * merge_journals(): validate a set of shard journals (same campaign
//     key field-for-field, one consistent shard count, disjoint and
//     covering shard indices) and write the merged UNSHARDED journal
//     atomically. Trials a shard never completed (crash before
//     checkpoint, or quarantined -- quarantined trials are never
//     journaled) are simply absent; replaying the merged journal through
//     Engine::run re-runs exactly those, re-quarantining deterministic
//     failures, so the merged JSON is byte-identical to the 1-process
//     run under --freeze-timing.
//
// Workers on other machines copy their shard journals next to the
// merger's BASE once they finish. A finished shard journal ends in a
// seal footer (sim/journal.h) that vouches for its records, so a copy
// truncated at a record boundary is refused at merge time instead of
// being merged as a shard that crashed early.
//
// Validation failures throw JournalMismatchError naming the offending
// field (and file), mirroring the journal's own refuse-to-resume
// contract.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace mmr::sim {

struct CampaignKey;  // sim/journal.h

/// A strided partition of the trial index space: worker `index` of
/// `count` owns trial t iff t % count == index. count == 0 means "not
/// sharded" (owns everything); count == 1 is a valid single-shard plan
/// (owns everything, but journals carry the shard header).
struct ShardPlan {
  std::size_t index = 0;
  std::size_t count = 0;

  bool enabled() const { return count > 0; }
  bool valid() const { return count == 0 || index < count; }
  bool owns(std::size_t trial) const {
    return count <= 1 || trial % count == index;
  }
  /// Trials of `total` this shard owns.
  std::size_t owned_of(std::size_t total) const;

  /// "shard-<i>-of-<N>": the journal-filename infix.
  std::string suffix() const;

  /// Strict "i/N" (e.g. "0/3"): base-10 only, i < N, N >= 1.
  static std::optional<ShardPlan> parse(const std::string& text);
  /// Strict "shard-<i>-of-<N>" (the suffix() format).
  static std::optional<ShardPlan> parse_suffix(const std::string& name);

  friend bool operator==(const ShardPlan&, const ShardPlan&) = default;
};

/// What merge_journals() did.
struct MergeStats {
  std::size_t shard_count = 0;
  /// Completed trials carried into the merged journal.
  std::size_t merged_trials = 0;
  /// Trials of key.trials no shard had checkpointed (they re-run when the
  /// merged journal is replayed).
  std::size_t missing_trials = 0;
  /// Shard journals carrying an intact seal footer (finished workers);
  /// the rest were in-progress or crashed and their missing trials re-run.
  std::size_t sealed_shards = 0;
};

/// Validate `shard_paths` as a complete shard set for `key` and write the
/// merged UNSHARDED journal to `merged_path` (atomically; an existing file
/// is replaced). Throws JournalMismatchError naming the offending field
/// and file when a journal is unsharded, belongs to a different campaign
/// (name / base seed / trial count / seed policy / config fingerprint),
/// disagrees on the shard count, duplicates a shard index (overlap), or
/// leaves a shard index uncovered (missing); throws std::runtime_error on
/// I/O failure.
MergeStats merge_journals(const std::vector<std::string>& shard_paths,
                          const std::string& merged_path,
                          const CampaignKey& key);

/// The per-campaign journal under a --resume/--merge BASE:
/// "BASE.<campaign>.journal". A process may run several campaigns, and
/// each checkpoints into its own journal. Campaign-name characters
/// outside [A-Za-z0-9_.-] become '_'.
std::string journal_path(const std::string& base,
                         const std::string& campaign);

/// A shard worker's journal: "BASE.<campaign>.shard-I-of-N.journal",
/// exactly what discover_shard_journals(journal_path(base, campaign))
/// scans for at merge time.
std::string shard_journal_path(const std::string& base,
                               const std::string& campaign,
                               const ShardPlan& plan);

/// Discover the shard journals next to an unsharded journal path
/// ("<stem>.journal" -> every "<stem>.shard-<i>-of-<N>.journal" in the
/// same directory), sorted by (count, index). Purely lexical + directory
/// scan; merge_journals() does the real validation.
std::vector<std::string> discover_shard_journals(
    const std::string& merged_path);

}  // namespace mmr::sim
