// Timed-loop bookkeeping with machine-speed calibration.
//
// On shared hosts the CPU speed a process gets drifts by 20% and more,
// over seconds and over minutes (neighbouring load on the same cores),
// which swamps real changes of a few percent. The timed loop is therefore
// cut into blocks of about kBlockS of measured time. After each block the
// driver runs a fixed reference kernel for kShare of the block's time, and
// each block's timings are scaled to a machine on which one kernel pass
// takes kNominalPassS:
//   reported = measured x kNominalPassS / mean pass time
// with the mean taken over the passes of the block and of kNeighbours
// blocks on either side (about +-1 s). The local window follows the
// host's speed as it drifts within a run; the mean (not the median)
// weighs short slow spells as the ops themselves felt them. Offline on
// recorded runs this gave the smallest run-to-run spread of the variants
// tried (run-wide mean, windowed medians, +-0.25 s to +-4 s windows).
//
// The kernel is benchmark-owned code that calls nothing from the program:
// stack buffers, libm phasors and complex multiply-adds, the mix the
// simulation spends its time in. A change to the program therefore moves
// the reported timings by exactly its own effect, while host drift
// cancels. The raw wall-clock values are kept beside the calibrated ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

class TimedLoop {
 public:
  /// One kernel pass on the reference host, calm [s].
  static constexpr double kNominalPassS = 0.65e-3;
  /// Kernel time as a share of measured time.
  static constexpr double kShare = 0.03;
  /// Measured time per calibration block [s].
  static constexpr double kBlockS = 0.25;
  /// Blocks on either side whose passes calibrate a block.
  static constexpr std::size_t kNeighbours = 4;

  /// Account `wall_s` of timed work that completed ops with latencies
  /// `op_s` [s] and scored `ticks` link-ticks. Runs the reference passes
  /// once the current block holds kBlockS of measured time.
  void add(double wall_s, std::span<const double> op_s, std::uint64_t ticks);
  /// Close the last, partial block and compute the calibrated timings.
  /// Call once after the loop.
  void finish();

  /// Op latencies [ms] and loop time [s] at the reference speed (valid
  /// after finish()).
  const std::vector<double>& op_ms() const { return op_ms_; }
  double loop_s() const { return loop_s_; }
  /// The same, raw wall clock.
  const std::vector<double>& raw_op_ms() const { return raw_op_ms_; }
  double raw_loop_s() const { return raw_loop_s_; }
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t passes() const { return passes_; }

 private:
  struct Block {
    std::vector<double> op_s;
    double wall_s = 0.0;
    double pass_s = 0.0;  ///< summed kernel pass time
    std::uint64_t passes = 0;
  };
  void close_block();

  std::vector<Block> blocks_{1};
  std::vector<double> op_ms_, raw_op_ms_;
  double loop_s_ = 0.0;
  double raw_loop_s_ = 0.0;
  std::uint64_t ticks_ = 0;
  std::uint64_t passes_ = 0;
};

}  // namespace perfbench
