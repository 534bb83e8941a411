// Byte mutators for the reader mutation sweeps: the damage a copy between
// machines, a crash mid-write or a mistyped argument does to bytes another
// process wrote. Every mutator draws from the Rng it is given, so a sweep
// over Rng::fork streams is deterministic and each failing case can be
// replayed from its stream id alone. journal_trial() is the record the
// journal sweeps start from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/journal.h"

namespace mmr::mutation {

/// A trial record with every field the parser reads: escaped label
/// characters and fault events, so mutations reach each sub-parser.
inline sim::JournalTrial journal_trial(std::size_t index) {
  sim::JournalTrial t;
  t.index = index;
  t.wall_s = 0.5 + 0.125 * static_cast<double>(index);
  t.cpu_s = 0.25 + 0.0625 * static_cast<double>(index);
  t.label = "rep" + std::to_string(index) + " \"q\\\n";
  t.summary.reliability = 0.9 - 0.01 * static_cast<double>(index);
  t.summary.mean_throughput_bps = 1.5e9 + static_cast<double>(index);
  t.summary.mean_spectral_efficiency = 4.0;
  t.summary.throughput_reliability_product = 1.2e9;
  t.summary.num_samples = 40 + index;
  for (std::size_t f = 0; f < index % 3; ++f) {
    core::FaultEvent ev;
    ev.kind = f == 0 ? core::FaultEventKind::kProbeDropped
                     : core::FaultEventKind::kRetrainTriggered;
    ev.t_s = 0.001 * static_cast<double>(f + 1);
    ev.beam = f;
    ev.value = -3.5 * static_cast<double>(f);
    t.faults.push_back(ev);
  }
  return t;
}

inline std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

inline void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The file's lines, each with its trailing newline (a final line without
/// one is kept as is).
inline std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < bytes.size()) {
    const std::size_t nl = bytes.find('\n', start);
    const std::size_t end = nl == std::string::npos ? bytes.size() : nl + 1;
    lines.push_back(bytes.substr(start, end - start));
    start = end;
  }
  return lines;
}

inline std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

/// A prefix of `bytes` of uniformly drawn length (possibly empty).
inline std::string truncate(const std::string& bytes, Rng& rng) {
  return bytes.substr(0, rng.uniform_index(bytes.size() + 1));
}

/// `bytes` with 1-3 single-bit flips (`bytes` must be non-empty).
inline std::string flip_bits(const std::string& bytes, Rng& rng) {
  std::string out = bytes;
  const std::uint64_t flips = 1 + rng.uniform_index(3);
  for (std::uint64_t f = 0; f < flips; ++f) {
    const std::size_t at = rng.uniform_index(out.size());
    out[at] = static_cast<char>(out[at] ^ (1u << rng.uniform_index(8)));
  }
  return out;
}

/// The head of `a` joined to the tail of `b`, both cut at drawn offsets.
inline std::string splice(const std::string& a, const std::string& b,
                          Rng& rng) {
  const std::size_t head = rng.uniform_index(a.size() + 1);
  const std::size_t tail = rng.uniform_index(b.size() + 1);
  return a.substr(0, head) + b.substr(tail);
}

/// One line of `bytes` inserted again at a drawn position.
inline std::string duplicate_line(const std::string& bytes, Rng& rng) {
  std::vector<std::string> lines = split_lines(bytes);
  const std::string copy = lines[rng.uniform_index(lines.size())];
  lines.insert(lines.begin() +
                   static_cast<std::ptrdiff_t>(
                       rng.uniform_index(lines.size() + 1)),
               copy);
  return join_lines(lines);
}

/// Replace one line by the head of a line and the tail of another, drawn
/// from `bytes` or from `other` (what an interleaved copy produces).
inline std::string splice_lines(const std::string& bytes,
                                const std::string& other, Rng& rng) {
  std::vector<std::string> lines = split_lines(bytes);
  const std::vector<std::string> donors = split_lines(other);
  const std::string& head = lines[rng.uniform_index(lines.size())];
  const std::string& tail = rng.bernoulli(0.5)
                                ? donors[rng.uniform_index(donors.size())]
                                : lines[rng.uniform_index(lines.size())];
  const std::string spliced = splice(head, tail, rng);
  lines[rng.uniform_index(lines.size())] = spliced;
  return join_lines(lines);
}

}  // namespace mmr::mutation
