// Tracer transparency: a traced run must compute exactly what the
// untraced run computes. Each workload's traced mode re-runs every op
// through the traced registry entries (and, for campaign_fig18 and
// network_handover, through the benchmark's mirror loops) and compares the
// outputs bit for bit with the untraced op; any difference is a failed op.
//
// Build and run (from the repository root):
//   cmake -S perfbench -B build-perfbench -DPERFBENCH_TESTS=ON
//   cmake --build build-perfbench -j && build-perfbench/perfbench_tests
#include <gtest/gtest.h>

#include <string>

#include "driver/trace.h"
#include "driver/workloads.h"

namespace {

class Transparency : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() { perfbench::init_process(); }
};

TEST_P(Transparency, TracedOutputsEqualUntracedOutputs) {
  auto workload = perfbench::make_workload(GetParam());
  ASSERT_NE(workload, nullptr);
  perfbench::RunOptions opts;
  opts.seed = 7;
  opts.seconds = 1e-3;  // the outcome horizon alone
  opts.trace = true;
  workload->setup(opts.seed);
  perfbench::tracer().reset();
  perfbench::Report report;
  workload->run(opts, report);
  for (const std::string& p : report.problems) ADD_FAILURE() << p;
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.attempted, 0u);
  EXPECT_GT(report.traced_ops, 0u);
  EXPECT_GT(perfbench::tracer().top_level_ns(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Transparency, ::testing::ValuesIn(perfbench::workload_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(Tracer, SelfTimeExcludesChildSpans) {
  perfbench::Tracer t;
  const std::size_t outer = t.intern("outer");
  const std::size_t inner = t.intern("inner");
  t.begin(outer);
  t.begin(inner);
  t.end();
  t.begin(inner);
  t.end();
  t.end();
  const auto o = t.totals("outer");
  const auto i = t.totals("inner");
  EXPECT_EQ(o.calls, 1u);
  EXPECT_EQ(i.calls, 2u);
  EXPECT_EQ(i.self_ns, i.busy_ns);
  EXPECT_EQ(o.self_ns, o.busy_ns - i.busy_ns);
  EXPECT_EQ(t.top_level_ns(), o.busy_ns);
  EXPECT_EQ(t.stored_spans(), 3u);
  EXPECT_EQ(t.totals("never").calls, 0u);
}

}  // namespace
