// Backend parity: SHJ and PHJ must produce exactly the reference match
// count on every workload shape under BOTH execution backends — the
// analytic simulator and the real thread pool. This is the acceptance gate
// for swapping execution substrates without touching join logic.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "coproc/join_driver.h"
#include "coproc/pipeline_runner.h"
#include "coproc/step_series.h"
#include "data/generator.h"
#include "exec/backend.h"
#include "exec/backend_kind.h"
#include "join/partitioned_hash_join.h"
#include "join/reference_join.h"
#include "join/simple_hash_join.h"

namespace apujoin::coproc {
namespace {

struct WorkloadCase {
  const char* name;
  data::Distribution dist;
  double selectivity;
};

const WorkloadCase kCases[] = {
    {"uniform", data::Distribution::kUniform, 1.0},
    {"skewed", data::Distribution::kHighSkew, 1.0},
    {"high-selectivity", data::Distribution::kUniform, 0.125},
};

data::Workload MakeWorkload(const WorkloadCase& c) {
  data::WorkloadSpec spec;
  spec.build_tuples = 1 << 12;
  spec.probe_tuples = 1 << 14;
  spec.distribution = c.dist;
  spec.selectivity = c.selectivity;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

class BackendParityTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, exec::BackendKind>> {};

TEST_P(BackendParityTest, MatchesReferenceOnAllWorkloads) {
  const auto [algo, backend] = GetParam();
  for (const WorkloadCase& c : kCases) {
    SCOPED_TRACE(c.name);
    const data::Workload w = MakeWorkload(c);
    const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
    ASSERT_EQ(reference, w.expected_matches);

    simcl::SimContext ctx;
    JoinSpec spec;
    spec.algorithm = algo;
    spec.scheme = Scheme::kPipelined;
    spec.engine.backend = backend;
    spec.engine.threads = 4;
    const auto t0 = std::chrono::steady_clock::now();
    auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
    const double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, reference);
    EXPECT_FALSE(report->overflowed);
    EXPECT_GT(report->elapsed_ns, 0.0);
    if (backend == exec::BackendKind::kThreadPool) {
      // Wall-clock semantics: the reported time covers step execution
      // only, so it cannot exceed the whole call's real duration.
      EXPECT_LE(report->elapsed_ns, wall_ns);
    }
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<Algorithm, exec::BackendKind>>&
        info) {
  return std::string(AlgorithmName(std::get<0>(info.param))) + "_" +
         exec::BackendKindName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, BackendParityTest,
    ::testing::Combine(::testing::Values(Algorithm::kSHJ, Algorithm::kPHJ),
                       ::testing::Values(exec::BackendKind::kSim,
                                         exec::BackendKind::kThreadPool)),
    ParamName);

// The two backends must agree with each other too (not only with the
// reference), across schemes.
TEST(BackendParitySchemes, SameMatchesUnderEveryScheme) {
  const data::Workload w = MakeWorkload(kCases[0]);
  for (Scheme scheme : {Scheme::kCpuOnly, Scheme::kGpuOnly, Scheme::kOffload,
                        Scheme::kDataDivide, Scheme::kPipelined,
                        Scheme::kBasicUnit}) {
    SCOPED_TRACE(SchemeName(scheme));
    uint64_t matches[2] = {0, 0};
    int i = 0;
    for (exec::BackendKind backend :
         {exec::BackendKind::kSim, exec::BackendKind::kThreadPool}) {
      simcl::SimContext ctx;
      JoinSpec spec;
      spec.algorithm = Algorithm::kPHJ;
      spec.scheme = scheme;
      spec.engine.backend = backend;
      spec.engine.threads = 3;
      auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      matches[i++] = report->matches;
    }
    EXPECT_EQ(matches[0], matches[1]);
    EXPECT_EQ(matches[0], w.expected_matches);
  }
}

// The sim backend must report identical virtual times whether a join is
// driven through the Backend seam or not — the refactor moved scheduling,
// not arithmetic. Two runs through the seam must agree bit-for-bit.
TEST(BackendParityDeterminism, SimElapsedIsReproducible) {
  const data::Workload w = MakeWorkload(kCases[0]);
  double elapsed[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    simcl::SimContext ctx;
    JoinSpec spec;
    spec.algorithm = Algorithm::kPHJ;
    spec.scheme = Scheme::kPipelined;
    auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
    ASSERT_TRUE(report.ok());
    elapsed[i] = report->elapsed_ns;
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
}

// Cache tracing requires the analytic backend; the driver must say so
// instead of racing the CacheSim.
TEST(BackendParityGuards, ThreadPoolRejectsCacheTracing) {
  const data::Workload w = MakeWorkload(kCases[0]);
  simcl::ContextOptions copts;
  copts.trace_cache = true;
  simcl::SimContext ctx(copts);
  JoinSpec spec;
  spec.engine.backend = exec::BackendKind::kThreadPool;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Allocator accounting parity: the op counts the sim backend prices must be
// the counts the threads backend actually performs. Every step runs at a
// fixed ratio on both backends, so each device gets the same items; the
// counts drained after each step must then agree.
// ---------------------------------------------------------------------------

struct StepCounts {
  std::string name;
  alloc::AllocCounts counts;
};

/// Runs `steps` at `ratio` on `backend`, recording each step's drained
/// counts.
void RunLogged(exec::Backend* backend, std::vector<join::StepDef> steps,
               double ratio, std::function<alloc::AllocCounts()> drain,
               std::vector<StepCounts>* log) {
  SeriesOptions opts;
  opts.ratios.assign(steps.size(), ratio);
  const size_t first = log->size();
  opts.drain_alloc = [&]() {
    const alloc::AllocCounts c = drain();
    log->push_back({steps[log->size() - first].name, c});
    return c;
  };
  RunSeries(backend, steps, opts);
}

/// The per-step counts of one whole join (PHJ: partition passes first).
std::vector<StepCounts> JoinCounts(Algorithm algo, exec::HashLayout layout,
                                   exec::BackendKind kind,
                                   const data::Workload& w) {
  simcl::SimContext ctx;
  const auto backend = exec::MakeBackend(kind, &ctx, /*threads=*/4);
  join::EngineOptions opts;
  opts.layout = layout;
  join::ResultWriter writer(w.expected_matches + (1 << 20),
                            alloc::AllocatorKind::kOptimized, 2048);
  const auto drain_writer = [&writer]() { return writer.TakeCounts(); };
  std::vector<StepCounts> log;
  if (algo == Algorithm::kSHJ) {
    join::ShjEngine engine(&ctx, &w.build, &w.probe, opts);
    EXPECT_TRUE(engine.Prepare().ok());
    const auto drain_pools = [&engine]() { return engine.pools().TakeCounts(); };
    RunLogged(backend.get(), engine.BuildSteps(), 0.4, drain_pools, &log);
    RunLogged(backend.get(), engine.ProbeSteps(&writer), 0.6, drain_writer,
              &log);
  } else {
    join::PhjEngine engine(&ctx, &w.build, &w.probe, opts);
    EXPECT_TRUE(engine.Prepare().ok());
    for (join::RadixPartitioner* part :
         {engine.build_partitioner(), engine.probe_partitioner()}) {
      for (int pass = 0; pass < part->passes(); ++pass) {
        part->BeginPass(pass);
        RunLogged(backend.get(), part->PassSteps(pass), 0.3,
                  [part]() { return part->TakeCounts(); }, &log);
        part->EndPass(pass);
      }
    }
    EXPECT_TRUE(engine.PrepareJoinPhase().ok());
    const auto drain_pools = [&engine]() { return engine.pools().TakeCounts(); };
    RunLogged(backend.get(), engine.BuildSteps(), 0.4, drain_pools, &log);
    RunLogged(backend.get(), engine.ProbeSteps(&writer), 0.6, drain_writer,
              &log);
  }
  EXPECT_EQ(writer.count(), w.expected_matches);
  EXPECT_EQ(writer.dropped(), 0u);
  return log;
}

class AllocCountParityTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, exec::HashLayout>> {
};

TEST_P(AllocCountParityTest, ThreadsBackendDrainsSimCounts) {
  const auto [algo, layout] = GetParam();
  data::WorkloadSpec spec;
  spec.build_tuples = 1 << 13;
  spec.probe_tuples = 1 << 16;
  spec.distribution = data::Distribution::kLowSkew;
  auto w = data::GenerateWorkload(spec);
  ASSERT_TRUE(w.ok());
  const std::vector<StepCounts> sim =
      JoinCounts(algo, layout, exec::BackendKind::kSim, *w);
  const std::vector<StepCounts> threads =
      JoinCounts(algo, layout, exec::BackendKind::kThreadPool, *w);
  ASSERT_EQ(sim.size(), threads.size());
  bool saw_result_site = false;
  for (size_t i = 0; i < sim.size(); ++i) {
    const std::string& step = sim[i].name;
    SCOPED_TRACE(step);
    ASSERT_EQ(step, threads[i].name);
    const alloc::AllocCounts& a = sim[i].counts;
    const alloc::AllocCounts& b = threads[i].counts;
    EXPECT_EQ(a.failed, b.failed);
    // Key nodes (chained b3) leak on a lost insertion race, which only
    // real concurrency produces: their counts are not order-independent.
    if (step == "b3") continue;
    for (int d = 0; d < simcl::kNumDevices; ++d) {
      SCOPED_TRACE(d);
      EXPECT_EQ(a.requests[d], b.requests[d]);
      if (step == "n2") continue;  // compared on device totals below
      // Single-element requests: refills per slot are ceil(T / block)
      // whatever order the slot's requests arrive in.
      EXPECT_EQ(a.global_atomics[d], b.global_atomics[d]);
      EXPECT_EQ(a.local_atomics[d], b.local_atomics[d]);
    }
    // A radix sub-region can be claimed from both devices; which device
    // takes a chunk's first (global) claim depends on the order.
    EXPECT_EQ(a.global_atomics[0] + a.global_atomics[1],
              b.global_atomics[0] + b.global_atomics[1]);
    EXPECT_EQ(a.local_atomics[0] + a.local_atomics[1],
              b.local_atomics[0] + b.local_atomics[1]);
    if (step == "p4") {
      saw_result_site = a.requests[0] > 0 && a.requests[1] > 0;
    }
  }
  EXPECT_TRUE(saw_result_site);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndLayouts, AllocCountParityTest,
    ::testing::Combine(::testing::Values(Algorithm::kSHJ, Algorithm::kPHJ),
                       ::testing::Values(exec::HashLayout::kChained,
                                         exec::HashLayout::kOpenAddressing)),
    [](const auto& info) {
      return std::string(AlgorithmName(std::get<0>(info.param))) + "_" +
             exec::HashLayoutName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace apujoin::coproc
