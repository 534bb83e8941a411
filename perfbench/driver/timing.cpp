#include "driver/timing.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <complex>

namespace perfbench {
namespace {

volatile double g_sink = 0.0;

/// One pass of fixed reference work (about 0.65 ms on the reference
/// host). The phase step is read from a volatile so nothing is folded.
double reference_pass() {
  constexpr int kLen = 64;
  constexpr int kReps = 240;
  std::array<std::complex<double>, kLen> a{}, b{};
  const double phase0 = g_sink * 0.0 + 0.001;
  double acc = 0.0;
  for (int r = 0; r < kReps; ++r) {
    for (int i = 0; i < kLen; ++i) {
      a[i] = std::polar(1.0, phase0 * i * (r + 1));
      b[i] = std::polar(0.5, 0.02 * i + phase0 * r);
    }
    std::complex<double> s = 0.0;
    for (int i = 0; i < kLen; ++i) s += a[i] * std::conj(b[i]);
    acc += std::abs(s) + std::log1p(std::norm(s));
  }
  return acc;
}

}  // namespace

void TimedLoop::add(double wall_s, std::span<const double> op_s,
                    std::uint64_t ticks) {
  Block& block = blocks_.back();
  block.wall_s += wall_s;
  block.op_s.insert(block.op_s.end(), op_s.begin(), op_s.end());
  ticks_ += ticks;
  raw_loop_s_ += wall_s;
  for (const double s : op_s) raw_op_ms_.push_back(s * 1e3);
  if (block.wall_s >= kBlockS) {
    close_block();
    blocks_.emplace_back();
  }
}

void TimedLoop::close_block() {
  Block& block = blocks_.back();
  const auto passes = std::max<std::uint64_t>(
      3, static_cast<std::uint64_t>(
             std::ceil(kShare * block.wall_s / kNominalPassS)));
  for (std::uint64_t p = 0; p < passes; ++p) {
    const auto t0 = std::chrono::steady_clock::now();
    g_sink = g_sink + reference_pass();
    block.pass_s += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  }
  block.passes = passes;
  passes_ += passes;
}

void TimedLoop::finish() {
  if (blocks_.empty()) return;  // already finished
  if (blocks_.back().wall_s > 0.0) {
    close_block();
  } else {
    blocks_.pop_back();
  }
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const std::size_t lo = b > kNeighbours ? b - kNeighbours : 0;
    const std::size_t hi = std::min(blocks_.size(), b + kNeighbours + 1);
    double pass_s = 0.0;
    std::uint64_t passes = 0;
    for (std::size_t n = lo; n < hi; ++n) {
      pass_s += blocks_[n].pass_s;
      passes += blocks_[n].passes;
    }
    const double scale =
        kNominalPassS / (pass_s / static_cast<double>(passes));
    for (const double s : blocks_[b].op_s) op_ms_.push_back(s * 1e3 * scale);
    loop_s_ += blocks_[b].wall_s * scale;
  }
  blocks_.clear();
}

}  // namespace perfbench
