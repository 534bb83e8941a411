#include "sim/journal.h"

#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/atomic_file.h"
#include "common/error.h"
#ifdef __unix__
#include "common/fs_ops.h"
#endif

namespace mmr::sim {
namespace {

constexpr int kJournalFormat = 1;

// ---------------------------------------------------------------------------
// Serialization helpers. Doubles round-trip as raw IEEE-754 bit patterns so
// a replayed trial is the exact bits the original run produced.

std::string bits_of(double v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, std::bit_cast<std::uint64_t>(v));
  return buf;
}

const char* seed_policy_name(SeedPolicy policy) {
  return policy == SeedPolicy::kFixed ? "fixed" : "per_trial_stream";
}

// ---------------------------------------------------------------------------
// A strict positional scanner for the journal's own line format. Any
// deviation flips `ok` and stays false: the caller treats the line as torn.

struct Cursor {
  const std::string& s;
  std::size_t pos = 0;
  bool ok = true;

  bool lit(const char* text) {
    if (!ok) return false;
    const std::size_t n = std::strlen(text);
    if (s.compare(pos, n, text) != 0) return ok = false;
    pos += n;
    return true;
  }

  bool u64(std::uint64_t& out) {
    if (!ok) return false;
    std::size_t start = pos;
    std::uint64_t value = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      const std::uint64_t digit = static_cast<std::uint64_t>(s[pos] - '0');
      if (value > (UINT64_MAX - digit) / 10) return ok = false;
      value = value * 10 + digit;
      ++pos;
    }
    if (pos == start) return ok = false;
    out = value;
    return true;
  }

  /// Quoted string with the writer's escaping undone.
  bool quoted(std::string& out) {
    if (!ok || !lit("\"")) return false;
    out.clear();
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c == '\\') {
        if (pos >= s.size()) return ok = false;
        const char e = s[pos++];
        if (e == 'n') {
          c = '\n';
        } else if (e == '"' || e == '\\') {
          c = e;
        } else {
          return ok = false;
        }
      }
      out.push_back(c);
    }
    return lit("\"");
  }

  /// Quoted "0x%016x" double bit pattern.
  bool bits(double& out) {
    if (!ok || !lit("\"0x")) return false;
    std::uint64_t value = 0;
    std::size_t digits = 0;
    while (pos < s.size() && digits < 16) {
      const char c = s[pos];
      int nibble;
      if (c >= '0' && c <= '9') {
        nibble = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        nibble = c - 'a' + 10;
      } else {
        break;
      }
      value = (value << 4) | static_cast<std::uint64_t>(nibble);
      ++digits;
      ++pos;
    }
    if (digits != 16) return ok = false;
    if (!lit("\"")) return false;
    out = std::bit_cast<double>(value);
    return true;
  }

  /// Quoted "0x%016x" 64-bit hex value (the fingerprint encoding).
  bool hex16(std::uint64_t& out) {
    if (!ok || !lit("\"0x")) return false;
    std::uint64_t value = 0;
    std::size_t digits = 0;
    while (pos < s.size() && digits < 16) {
      const char c = s[pos];
      int nibble;
      if (c >= '0' && c <= '9') {
        nibble = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        nibble = c - 'a' + 10;
      } else {
        break;
      }
      value = (value << 4) | static_cast<std::uint64_t>(nibble);
      ++digits;
      ++pos;
    }
    if (digits != 16) return ok = false;
    if (!lit("\"")) return false;
    out = value;
    return true;
  }

  bool boolean(bool& out) {
    if (!ok) return false;
    if (s.compare(pos, 4, "true") == 0) {
      out = true;
      pos += 4;
      return true;
    }
    if (s.compare(pos, 5, "false") == 0) {
      out = false;
      pos += 5;
      return true;
    }
    return ok = false;
  }

  bool done() const { return ok && pos == s.size(); }
};

bool parse_fault_kind(const std::string& name, core::FaultEventKind& out) {
  using K = core::FaultEventKind;
  for (K kind : {K::kProbeDropped, K::kStaleEpoch, K::kNonFiniteTap,
                 K::kProbeFailure, K::kFallbackLastGood, K::kBackoff,
                 K::kEstimateRejected, K::kSanitizedReport,
                 K::kRetrainTriggered}) {
    if (name == core::to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::string header_line(const CampaignKey& key, const ShardPlan& shard) {
  std::ostringstream os;
  os << "{\"campaign_header\": {\"format\": " << kJournalFormat
     << ", \"name\": \"" << json_escape(key.name)
     << "\", \"base_seed\": " << key.base_seed
     << ", \"trials\": " << key.trials << ", \"seed_policy\": \""
     << seed_policy_name(key.seed_policy) << "\", \"fingerprint\": \"";
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, key.fingerprint);
  os << buf << "\"";
  // The shard field exists only in shard-worker journals: an unsharded
  // header is byte-identical to the pre-shard format, so old journals
  // resume and the merged journal reproduces a 1-process journal exactly.
  if (shard.enabled()) {
    os << ", \"shard\": {\"index\": " << shard.index
       << ", \"count\": " << shard.count << "}";
  }
  os << "}}\n";
  return os.str();
}

bool parse_header_line(const std::string& line, CampaignKey& out,
                       ShardPlan& shard) {
  Cursor c{line};
  std::uint64_t format = 0, trials = 0, fingerprint = 0;
  std::string policy;
  c.lit("{\"campaign_header\": {\"format\": ");
  c.u64(format);
  c.lit(", \"name\": ");
  c.quoted(out.name);
  c.lit(", \"base_seed\": ");
  c.u64(out.base_seed);
  c.lit(", \"trials\": ");
  c.u64(trials);
  c.lit(", \"seed_policy\": ");
  c.quoted(policy);
  c.lit(", \"fingerprint\": ");
  c.hex16(fingerprint);
  shard = ShardPlan{};
  if (c.ok && c.pos < line.size() && line[c.pos] == ',') {
    std::uint64_t shard_index = 0, shard_count = 0;
    c.lit(", \"shard\": {\"index\": ");
    c.u64(shard_index);
    c.lit(", \"count\": ");
    c.u64(shard_count);
    c.lit("}");
    // A shard field must describe a real shard: count >= 1, index < count.
    if (!c.ok || shard_count == 0 || shard_index >= shard_count) {
      return false;
    }
    shard.index = static_cast<std::size_t>(shard_index);
    shard.count = static_cast<std::size_t>(shard_count);
  }
  c.lit("}}");
  if (!c.done() || format != kJournalFormat) return false;
  out.trials = static_cast<std::size_t>(trials);
  if (policy == "fixed") {
    out.seed_policy = SeedPolicy::kFixed;
  } else if (policy == "per_trial_stream") {
    out.seed_policy = SeedPolicy::kPerTrialStream;
  } else {
    return false;
  }
  out.fingerprint = fingerprint;
  return true;
}

std::string trial_line(const JournalTrial& t) {
  std::ostringstream os;
  os << "{\"trial\": {\"index\": " << t.index << ", \"wall_bits\": "
     << "\"" << bits_of(t.wall_s) << "\", \"cpu_bits\": \""
     << bits_of(t.cpu_s) << "\", \"label\": \"" << json_escape(t.label)
     << "\", \"summary_bits\": [\"" << bits_of(t.summary.reliability)
     << "\", \"" << bits_of(t.summary.mean_throughput_bps) << "\", \""
     << bits_of(t.summary.mean_spectral_efficiency) << "\", \""
     << bits_of(t.summary.throughput_reliability_product)
     << "\"], \"num_samples\": " << t.summary.num_samples
     << ", \"faults\": [";
  for (std::size_t i = 0; i < t.faults.size(); ++i) {
    const core::FaultEvent& ev = t.faults[i];
    if (i > 0) os << ", ";
    os << "{\"kind\": \"" << core::to_string(ev.kind) << "\", \"t_bits\": \""
       << bits_of(ev.t_s) << "\", \"beam\": " << ev.beam
       << ", \"value_bits\": \"" << bits_of(ev.value) << "\"}";
  }
  os << "]}}\n";
  return os.str();
}

bool parse_trial_line(const std::string& line, JournalTrial& out) {
  Cursor c{line};
  std::uint64_t index = 0, num_samples = 0;
  c.lit("{\"trial\": {\"index\": ");
  c.u64(index);
  c.lit(", \"wall_bits\": ");
  c.bits(out.wall_s);
  c.lit(", \"cpu_bits\": ");
  c.bits(out.cpu_s);
  c.lit(", \"label\": ");
  c.quoted(out.label);
  c.lit(", \"summary_bits\": [");
  c.bits(out.summary.reliability);
  c.lit(", ");
  c.bits(out.summary.mean_throughput_bps);
  c.lit(", ");
  c.bits(out.summary.mean_spectral_efficiency);
  c.lit(", ");
  c.bits(out.summary.throughput_reliability_product);
  c.lit("], \"num_samples\": ");
  c.u64(num_samples);
  c.lit(", \"faults\": [");
  out.faults.clear();
  if (c.ok && c.pos < line.size() && line[c.pos] != ']') {
    while (c.ok) {
      core::FaultEvent ev;
      std::string kind;
      std::uint64_t beam = 0;
      c.lit("{\"kind\": ");
      c.quoted(kind);
      c.lit(", \"t_bits\": ");
      c.bits(ev.t_s);
      c.lit(", \"beam\": ");
      c.u64(beam);
      c.lit(", \"value_bits\": ");
      c.bits(ev.value);
      c.lit("}");
      if (!c.ok || !parse_fault_kind(kind, ev.kind)) return false;
      ev.beam = static_cast<std::size_t>(beam);
      out.faults.push_back(ev);
      if (c.pos < line.size() && line[c.pos] == ',') {
        c.lit(", ");
        continue;
      }
      break;
    }
  }
  c.lit("]}}");
  if (!c.done()) return false;
  out.index = static_cast<std::size_t>(index);
  out.summary.num_samples = static_cast<std::size_t>(num_samples);
  return true;
}

std::string seal_line(const JournalSeal& seal) {
  std::ostringstream os;
  os << "{\"campaign_seal\": {\"format\": " << kJournalFormat
     << ", \"trials\": " << seal.trials << ", \"fingerprint\": \"";
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, seal.fingerprint);
  os << buf << "\"}}\n";
  return os.str();
}

bool parse_seal_line(const std::string& line, JournalSeal& out) {
  Cursor c{line};
  std::uint64_t format = 0, trials = 0, fingerprint = 0;
  c.lit("{\"campaign_seal\": {\"format\": ");
  c.u64(format);
  c.lit(", \"trials\": ");
  c.u64(trials);
  c.lit(", \"fingerprint\": ");
  c.hex16(fingerprint);
  c.lit("}}");
  if (!c.done() || format != kJournalFormat) return false;
  out.trials = static_cast<std::size_t>(trials);
  out.fingerprint = fingerprint;
  return true;
}

// The one journal reader: header, then every intact trial record with its
// verbatim line, then the seal state. nullopt when the header line is
// missing, blank or unreadable.
std::optional<LoadedJournal> scan_journal(std::istream& in) {
  LoadedJournal out;
  std::string line;
  if (!std::getline(in, line) ||
      !parse_header_line(line, out.key, out.shard)) {
    return std::nullopt;
  }
  while (std::getline(in, line)) {
    if (out.seal.has_value()) {
      if (!line.empty()) out.content_after_seal = true;
      continue;
    }
    JournalSeal seal;
    if (parse_seal_line(line, seal)) {
      out.seal = seal;
      continue;
    }
    if (out.torn_tail) continue;
    JournalTrial trial;
    if (!parse_trial_line(line, trial)) {
      // Record loading stops at the first torn line, but the scan keeps
      // looking for a seal: a seal over records that are no longer all
      // there is transport damage, and seal_intact() must see it.
      out.torn_tail = true;
      continue;
    }
    // Intact records are returned even when out of range / outside the
    // shard's ownership: the merge validator rejects those loudly, and
    // the resume path stops loading at the first one.
    out.records_fnv = journal_fnv1a(line, out.records_fnv);
    out.records_fnv = journal_fnv1a("\n", out.records_fnv);
    out.trials.push_back(std::move(trial));
    out.lines.push_back(std::move(line));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprinting: FNV-1a 64 over a canonical serialization of the spec's
// declarative state (doubles as bit patterns, fields in fixed order).

struct Fnv {
  std::uint64_t h = kJournalFnvOffset;
  void feed(std::string_view text) { h = journal_fnv1a(text, h); }
  void u64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ";", v);
    feed(buf);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    feed(s);
    feed("\0;", 2);
  }
  void feed(const char* data, std::size_t n) {
    feed(std::string_view(data, n));
  }
};

}  // namespace

std::uint64_t journal_fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fingerprint_spec(const ExperimentSpec& spec) {
  Fnv f;
  f.str(spec.name);
  // Scenario.
  f.str(spec.scenario.name);
  f.u64(spec.scenario.config.tx_elements);
  f.u64(spec.scenario.config.codebook_size);
  f.u64(spec.scenario.config.seed);
  f.u64(spec.scenario.config.sparse_room ? 1 : 0);
  f.f64(spec.scenario.config.tx_power_dbm);
  f.f64(spec.scenario.ue_velocity.x);
  f.f64(spec.scenario.ue_velocity.y);
  f.f64(spec.scenario.ue_rotation_rate_rad_s);
  f.f64(spec.scenario.ue_start.x);
  f.f64(spec.scenario.ue_start.y);
  f.f64(spec.scenario.link_distance_m);
  f.f64(spec.scenario.irs_gain_db);
  f.f64(spec.scenario.irs_position.x);
  f.f64(spec.scenario.irs_position.y);
  f.u64(spec.scenario.blockers.size());
  for (const BlockerSpec& b : spec.scenario.blockers) {
    f.f64(b.crossing_time_s);
    f.f64(b.speed_mps);
    f.f64(b.depth_db);
  }
  // Controller.
  f.str(spec.controller.name);
  f.u64(spec.controller.max_beams);
  f.u64(spec.controller.enable_tracking ? 1 : 0);
  f.u64(spec.controller.enable_cc_refresh ? 1 : 0);
  // RunConfig (incl. the full fault plan).
  f.f64(spec.run.duration_s);
  f.f64(spec.run.tick_s);
  f.f64(spec.run.outage_snr_db);
  f.f64(spec.run.protocol_overhead);
  f.f64(spec.run.faults.probe_drop_prob);
  f.f64(spec.run.faults.stale_epoch_prob);
  f.u64(spec.run.faults.stale_epoch_ticks);
  f.f64(spec.run.faults.csi_phase_noise_rad);
  f.f64(spec.run.faults.csi_amp_noise_db);
  f.u64(spec.run.faults.csi_quant_bits);
  f.f64(spec.run.faults.nan_tap_prob);
  f.f64(spec.run.faults.snr_bias_db);
  f.u64(spec.run.faults.seed);
  // Sweep shape.
  f.u64(spec.trials);
  f.u64(spec.seed);
  f.u64(spec.seed_policy == SeedPolicy::kFixed ? 1 : 0);
  f.u64(spec.record_samples ? 1 : 0);
  return f.h;
}

CampaignKey campaign_key(const ExperimentSpec& spec) {
  CampaignKey key;
  key.name = spec.name;
  key.base_seed = spec.seed;
  key.trials = spec.trials;
  key.seed_policy = spec.seed_policy;
  key.fingerprint = fingerprint_spec(spec);
  return key;
}

CampaignJournal::CampaignJournal(std::string path, CampaignKey key,
                                 ShardPlan shard)
    : path_(std::move(path)), key_(std::move(key)), shard_(shard) {
  MMR_EXPECTS(!path_.empty());
  MMR_EXPECTS(shard_.valid());
  std::ifstream in(path_);
  // A missing or empty file is a fresh campaign; anything else must be
  // this campaign's journal (a blank first line is an unreadable header,
  // never a licence to overwrite the file).
  if (!in || in.peek() == std::ifstream::traits_type::eof()) {
    in.close();
    AtomicFile::write(path_, header_line(key_, shard_));
  } else {
    std::optional<LoadedJournal> loaded = scan_journal(in);
    in.close();
    if (!loaded.has_value()) {
      throw JournalMismatchError("campaign journal '" + path_ +
                                 "' has an unreadable header; refusing "
                                 "to resume (delete it to start over)");
    }
    const auto mismatch = [&](const std::string& what) {
      throw JournalMismatchError(
          "campaign journal '" + path_ + "' belongs to a different " +
          "campaign (" + what + " differs); refusing to resume");
    };
    if (const char* what = campaign_key_mismatch(loaded->key, key_)) {
      mismatch(what);
    }
    if (loaded->shard.count != shard_.count) mismatch("shard count");
    if (loaded->shard.index != shard_.index) mismatch("shard index");
    // Loading stops at the first torn line (the scan already did) or the
    // first record outside this campaign's range or this shard's
    // ownership -- a crash can only tear the tail.
    std::size_t intact = 0;
    while (intact < loaded->trials.size() &&
           loaded->trials[intact].index < key_.trials &&
           (!shard_.enabled() || shard_.owns(loaded->trials[intact].index))) {
      ++intact;
    }
    const bool foreign = intact < loaded->trials.size();
    // A seal that does not vouch for exactly the records kept means the
    // file lost or gained bytes in transport, not that a worker crashed
    // early.
    if (loaded->seal.has_value() && (foreign || !loaded->seal_intact())) {
      throw JournalMismatchError(
          "campaign journal '" + path_ + "' has a seal footer that does " +
          "not match its records (seal says " +
          std::to_string(loaded->seal->trials) + " trials, file holds " +
          std::to_string(intact) +
          " intact); the file was damaged in transport, not crashed "
          "mid-write -- refusing to resume");
    }
    // The seal fingerprints the verbatim bytes of every record line, and
    // the rewrite below must keep them: the scanner accepts forms (such
    // as leading-zero integers) that re-serializing would not reproduce.
    std::string kept;
    for (std::size_t i = 0; i < intact; ++i) {
      kept += loaded->lines[i];
      kept += '\n';
      completed_.emplace(loaded->trials[i].index,
                         std::move(loaded->trials[i]));
    }
    records_fnv_ = journal_fnv1a(kept, records_fnv_);
    record_count_ = intact;
    // Re-opening for append must never concatenate onto torn bytes or a
    // seal footer: atomically rewrite the file back to header + intact
    // records (the seal, if any, was just proven honest and is
    // re-stamped when this pass completes).
    if (loaded->torn_tail || foreign || loaded->seal.has_value()) {
      AtomicFile::write(path_, header_line(key_, shard_) + kept);
    }
  }
#ifdef __unix__
  out_fd_ = fsio::open_retry(path_, O_WRONLY | O_APPEND, 0644);
#else
  out_ = std::fopen(path_.c_str(), "ab");
  if (out_ == nullptr) {
    throw std::runtime_error("cannot open campaign journal for append: '" +
                             path_ + "': " + std::strerror(errno));
  }
#endif
}

CampaignJournal::~CampaignJournal() {
#ifdef __unix__
  if (out_fd_ >= 0) (void)fsio::ops().close_fn(out_fd_);
#else
  if (out_ != nullptr) std::fclose(out_);
#endif
}

void CampaignJournal::record(const JournalTrial& trial) {
  // A shard journal must never hold a trial its shard does not own --
  // the merge validator would (rightly) reject the whole journal.
  MMR_EXPECTS(!shard_.enabled() || shard_.owns(trial.index));
  const std::string line = trial_line(trial);
  std::lock_guard<std::mutex> lock(mutex_);
  // The seal is the "nothing more will be written" promise; recording
  // past it would silently invalidate the fingerprint.
  MMR_EXPECTS(!sealed_);
#ifdef __unix__
  fsio::write_all(out_fd_, line.data(), line.size(), path_);
  // One fsync per completed trial: the durability point of the journal.
  fsio::fsync_retry(out_fd_, path_);
#else
  if (std::fwrite(line.data(), 1, line.size(), out_) != line.size() ||
      std::fflush(out_) != 0) {
    throw std::runtime_error("campaign journal append failed: '" + path_ +
                             "': " + std::strerror(errno));
  }
#endif
  records_fnv_ = journal_fnv1a(line, records_fnv_);
  ++record_count_;
}

void CampaignJournal::seal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sealed_) return;
  const std::string line =
      seal_line(JournalSeal{record_count_, records_fnv_});
#ifdef __unix__
  fsio::write_all(out_fd_, line.data(), line.size(), path_);
  fsio::fsync_retry(out_fd_, path_);
#else
  if (std::fwrite(line.data(), 1, line.size(), out_) != line.size() ||
      std::fflush(out_) != 0) {
    throw std::runtime_error("campaign journal seal failed: '" + path_ +
                             "': " + std::strerror(errno));
  }
#endif
  sealed_ = true;
}

LoadedJournal read_journal_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open journal: '" + path +
                             "': " + std::strerror(errno));
  }
  std::optional<LoadedJournal> loaded = scan_journal(in);
  if (!loaded.has_value()) {
    throw JournalMismatchError("journal '" + path +
                               "' has an unreadable header");
  }
  return std::move(*loaded);
}

const char* campaign_key_mismatch(const CampaignKey& found,
                                  const CampaignKey& expected) {
  if (found.name != expected.name) return "name";
  if (found.base_seed != expected.base_seed) return "base seed";
  if (found.trials != expected.trials) return "trial count";
  if (found.seed_policy != expected.seed_policy) return "seed policy";
  if (found.fingerprint != expected.fingerprint) return "config fingerprint";
  return nullptr;
}

std::string journal_header_line(const CampaignKey& key,
                                const ShardPlan& shard) {
  return header_line(key, shard);
}

std::string journal_trial_line(const JournalTrial& trial) {
  return trial_line(trial);
}

std::string journal_seal_line(const JournalSeal& seal) {
  return seal_line(seal);
}

}  // namespace mmr::sim
