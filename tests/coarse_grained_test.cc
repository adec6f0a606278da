#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "coproc/pipeline_runner.h"
#include "coproc/coarse_grained.h"

namespace apujoin::coproc {
namespace {

data::Workload MakeWorkload(uint64_t n) {
  data::WorkloadSpec spec;
  spec.build_tuples = n;
  spec.probe_tuples = n;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

TEST(CoarseGrainedTest, MatchesReference) {
  const data::Workload w = MakeWorkload(1 << 12);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.engine.partitions = 16;
  auto report = ExecuteCoarsePhj(&ctx, w, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, w.expected_matches);
  EXPECT_FALSE(report->overflowed);
}

TEST(CoarseGrainedTest, SlowerThanFineGrainedPl) {
  // Table 3: PHJ-PL' loses to PHJ-PL.
  const data::Workload w = MakeWorkload(1 << 14);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kPHJ;
  spec.scheme = Scheme::kPipelined;
  auto fine = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  auto coarse = ExecuteCoarsePhj(&ctx, w, spec);
  ASSERT_TRUE(fine.ok() && coarse.ok());
  EXPECT_GT(coarse->elapsed_ns, fine->elapsed_ns);
}

TEST(CoarseGrainedTest, MoreCacheMissesThanFineGrained) {
  // Table 3: the coarse definition's private tables and deep pair
  // concurrency roughly double the L2 misses. Needs pairs large enough
  // that the in-flight set exceeds the 4 MB L2.
  const data::Workload w = MakeWorkload(1 << 19);
  simcl::ContextOptions copts;
  copts.trace_cache = true;
  JoinSpec spec;
  spec.algorithm = Algorithm::kPHJ;
  spec.scheme = Scheme::kPipelined;
  spec.engine.partitions = 16;
  simcl::SimContext ctx_fine(copts);
  auto fine = ExecutePlan(&ctx_fine, MakeSingleJoinPlan(w, spec));
  simcl::SimContext ctx_coarse(copts);
  auto coarse = ExecuteCoarsePhj(&ctx_coarse, w, spec);
  ASSERT_TRUE(fine.ok() && coarse.ok());
  const double fine_ratio = static_cast<double>(fine->l2_misses) /
                            static_cast<double>(fine->l2_accesses);
  const double coarse_ratio = static_cast<double>(coarse->l2_misses) /
                              static_cast<double>(coarse->l2_accesses);
  EXPECT_GT(coarse_ratio, fine_ratio * 1.15);
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

TEST(CoarseGrainedTest, SimFingerprintPinned) {
  // Hexfloat-exact virtual-time fingerprint of the coarse lowering (the
  // partition passes plus the pair-join sweep), recorded before the
  // partition-pass loop was shared with the out-of-core executor.
  const data::Workload w = MakeWorkload(1 << 12);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.engine.partitions = 16;
  auto report = ExecuteCoarsePhj(&ctx, w, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->elapsed_ns,
            std::strtod("0x1.4954315323e52p+19", nullptr))
      << "now " << Hex(report->elapsed_ns);
  EXPECT_EQ(report->estimated_ns,
            std::strtod("0x1.0811d161be224p+19", nullptr))
      << "now " << Hex(report->estimated_ns);
  EXPECT_EQ(report->matches, 4096u);
}

TEST(CoarseGrainedTest, PairRatioReported) {
  const data::Workload w = MakeWorkload(1 << 12);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.engine.partitions = 32;
  auto report = ExecuteCoarsePhj(&ctx, w, spec);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->steps.size(), 1u);
  EXPECT_GT(report->steps[0].ratio, 0.0);
  EXPECT_LT(report->steps[0].ratio, 1.0);
}

}  // namespace
}  // namespace apujoin::coproc
