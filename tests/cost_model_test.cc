#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>

#include "cost/abstract_model.h"
#include "cost/calibration.h"
#include "cost/optimizer.h"
#include "data/generator.h"
#include "join/simple_hash_join.h"

namespace apujoin::cost {
namespace {

StepCosts ToyCosts() {
  // Step 0: GPU 10x faster (hash-like). Step 1: CPU 2x faster (list-like).
  return {{"s1", 10.0, 1.0}, {"s2", 5.0, 10.0}};
}

TEST(AbstractModelTest, UniformRatiosHaveNoDelaysOrComm) {
  const auto est = EstimateSeries(ToyCosts(), 1000, {0.5, 0.5});
  EXPECT_DOUBLE_EQ(est.comm_ns, 0.0);
  for (double d : est.delay_cpu_ns) EXPECT_DOUBLE_EQ(d, 0.0);
  for (double d : est.delay_gpu_ns) EXPECT_DOUBLE_EQ(d, 0.0);
  EXPECT_DOUBLE_EQ(est.cpu_ns, 0.5 * 1000 * (10.0 + 5.0));
  EXPECT_DOUBLE_EQ(est.gpu_ns, 0.5 * 1000 * (1.0 + 10.0));
  EXPECT_DOUBLE_EQ(est.elapsed_ns, est.cpu_ns);
}

TEST(AbstractModelTest, CpuOnlyAndGpuOnly) {
  const auto cpu = EstimateSeries(ToyCosts(), 100, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(cpu.elapsed_ns, 100 * 15.0);
  const auto gpu = EstimateSeries(ToyCosts(), 100, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(gpu.elapsed_ns, 100 * 11.0);
}

TEST(AbstractModelTest, OffloadHandoffSerialises) {
  // Step 0 on GPU, step 1 on CPU: the CPU's step 1 cannot start before the
  // GPU finishes step 0 (Eq. 4 with r=1 > rp=0).
  const auto est = EstimateSeries(ToyCosts(), 1000, {0.0, 1.0});
  const double t0_gpu = 1000 * 1.0;
  const double t1_cpu = 1000 * 5.0;
  EXPECT_DOUBLE_EQ(est.delay_cpu_ns[1], t0_gpu - t1_cpu > 0 ? t0_gpu : 0.0);
  // elapsed >= serial sum when the GPU step dominates; here t1 > t0, so the
  // pipeline hides the GPU time entirely except the crossing comm.
  EXPECT_GE(est.elapsed_ns, t1_cpu);
}

TEST(AbstractModelTest, CrossingItemsPayCommunication) {
  CommSpec comm;
  comm.bytes_per_item = 8.0;
  comm.bandwidth_gbps = 8.0;
  const auto est = EstimateSeries(ToyCosts(), 1000, {0.0, 0.5}, comm);
  EXPECT_DOUBLE_EQ(est.comm_ns, 0.5 * 1000 * 8.0 / 8.0);
}

TEST(AbstractModelTest, PcieLatencyAddsPerTransfer) {
  CommSpec pcie;
  pcie.bytes_per_item = 8.0;
  pcie.bandwidth_gbps = 3.0;
  pcie.per_transfer_latency_ns = 15000.0;
  const auto est = EstimateSeries(ToyCosts(), 1000, {0.0, 1.0}, pcie);
  EXPECT_GT(est.comm_ns, 15000.0);
}

TEST(AbstractModelTest, ComposeAgreesWithEstimate) {
  const StepCosts costs = ToyCosts();
  const std::vector<double> ratios = {0.2, 0.8};
  const uint64_t n = 5000;
  std::vector<double> t_cpu = {costs[0].cpu_ns_per_item * 0.2 * n,
                               costs[1].cpu_ns_per_item * 0.8 * n};
  std::vector<double> t_gpu = {costs[0].gpu_ns_per_item * 0.8 * n,
                               costs[1].gpu_ns_per_item * 0.2 * n};
  const auto a = EstimateSeries(costs, n, ratios);
  const auto b = ComposePipelinedTiming(t_cpu, t_gpu, ratios, n, CommSpec());
  EXPECT_DOUBLE_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_DOUBLE_EQ(a.cpu_ns, b.cpu_ns);
}

TEST(OptimizerTest, DataDividingBalancesThroughput) {
  // Single step, CPU 10 ns, GPU 30 ns per item: optimum r = 0.75.
  StepCosts costs = {{"s", 10.0, 30.0}};
  const RatioPlan plan = OptimizeDataDividing(costs, 10000);
  EXPECT_NEAR(plan.ratios[0], 0.75, 0.021);
  EXPECT_LE(plan.predicted_ns,
            EstimateSeries(costs, 10000, {1.0}).elapsed_ns);
}

TEST(OptimizerTest, OffloadPicksCheaperDevicePerStep) {
  const RatioPlan plan = OptimizeOffloading(ToyCosts(), 10000);
  // A serial handoff costs more than leaving both steps on one device when
  // per-device sums are close; whatever it picks must beat single-device.
  const double cpu_only = EstimateSeries(ToyCosts(), 10000, {1.0, 1.0}).elapsed_ns;
  const double gpu_only = EstimateSeries(ToyCosts(), 10000, {0.0, 0.0}).elapsed_ns;
  EXPECT_LE(plan.predicted_ns, std::min(cpu_only, gpu_only));
  for (double r : plan.ratios) {
    EXPECT_TRUE(r == 0.0 || r == 1.0);
  }
}

TEST(OptimizerTest, PipelinedAtLeastAsGoodAsDDAndOL) {
  const StepCosts costs = ToyCosts();
  const uint64_t n = 10000;
  const double pl = OptimizePipelined(costs, n).predicted_ns;
  EXPECT_LE(pl, OptimizeDataDividing(costs, n).predicted_ns + 1e-6);
  EXPECT_LE(pl, OptimizeOffloading(costs, n).predicted_ns + 1e-6);
}

TEST(OptimizerTest, PipelinedFourStepsViaCoordinateDescent) {
  StepCosts costs = {{"a", 10.0, 1.0},
                     {"b", 4.0, 4.0},
                     {"c", 3.0, 9.0},
                     {"d", 6.0, 2.0}};
  const RatioPlan plan = OptimizePipelined(costs, 100000);
  EXPECT_EQ(plan.ratios.size(), 4u);
  EXPECT_LE(plan.predicted_ns,
            OptimizeDataDividing(costs, 100000).predicted_ns + 1e-6);
}

TEST(ObserveStepTest, HashStepsAreUniform) {
  WorkloadStats ws;
  ws.buckets = 1024;
  ws.distinct_keys = 1024;
  const StepObservation obs = ObserveStep("b1", ws);
  EXPECT_DOUBLE_EQ(obs.avg_work, 1.0);
  EXPECT_DOUBLE_EQ(obs.gpu_divergence, 1.0);
}

TEST(ObserveStepTest, KeyListStepsSeeLoadFactor) {
  WorkloadStats ws;
  ws.buckets = 512;
  ws.distinct_keys = 1024;  // load factor 2 -> avg extra traversal 1
  const StepObservation obs = ObserveStep("p3", ws);
  EXPECT_NEAR(obs.avg_work, 2.0, 1e-9);
  EXPECT_GT(obs.gpu_divergence, 1.0);
}

TEST(ObserveStepTest, EmitStepSeesMatchRate) {
  WorkloadStats ws;
  ws.buckets = 1024;
  ws.distinct_keys = 1024;
  ws.match_rate = 0.5;
  const StepObservation obs = ObserveStep("p4", ws);
  EXPECT_NEAR(obs.avg_work, 1.5, 1e-9);
}

TEST(CalibrateTest, HashStepGpuWinsBig) {
  simcl::SimContext ctx;
  data::WorkloadSpec spec;
  // Paper scale matters: the b3/p3 parity holds for tables beyond the L2.
  spec.build_tuples = 1 << 20;
  spec.probe_tuples = 1 << 20;
  auto w = data::GenerateWorkload(spec);
  join::ShjEngine engine(&ctx, &w->build, &w->probe, join::EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  auto steps = engine.BuildSteps();
  WorkloadStats ws;
  ws.build_tuples = spec.build_tuples;
  ws.probe_tuples = spec.probe_tuples;
  ws.buckets = engine.options().num_buckets;
  ws.distinct_keys = spec.build_tuples;
  const StepCosts costs = CalibrateSeries(ctx, steps, ws);
  ASSERT_EQ(costs.size(), 4u);
  EXPECT_EQ(costs[0].name, "b1");
  // Figure 4's headline: hash computation >= 15x faster on the GPU.
  EXPECT_GT(costs[0].cpu_ns_per_item / costs[0].gpu_ns_per_item, 10.0);
  // Key-list traversal: near parity (within 3x either way).
  const double p3_ratio = costs[2].cpu_ns_per_item / costs[2].gpu_ns_per_item;
  EXPECT_GT(p3_ratio, 1.0 / 3.0);
  EXPECT_LT(p3_ratio, 3.0);
}

// The vector-based model and ratio search as they were before the search
// went allocation-free: every point is one EstimateSeries call over fresh
// vectors. The equivalence test below pins the new search to it.
namespace reference {

SeriesEstimate Compose(const std::vector<double>& t_cpu,
                       const std::vector<double>& t_gpu,
                       const std::vector<double>& ratios, uint64_t n,
                       const CommSpec& comm) {
  const size_t steps = ratios.size();
  const double items = static_cast<double>(n);
  SeriesEstimate est;
  est.delay_cpu_ns.assign(steps, 0.0);
  est.delay_gpu_ns.assign(steps, 0.0);
  double cum_cpu = 0.0;
  double cum_gpu = 0.0;
  for (size_t i = 0; i < steps; ++i) {
    const double r = std::clamp(ratios[i], 0.0, 1.0);
    if (i > 0) {
      const double rp = std::clamp(ratios[i - 1], 0.0, 1.0);
      if (r > rp && t_cpu[i] > 0.0) {
        const double frac = (1.0 - rp) > 0.0 ? (1.0 - r) / (1.0 - rp) : 0.0;
        const double gpu_pipelined = cum_gpu - t_gpu[i - 1] * frac;
        const double d = gpu_pipelined - (cum_cpu + t_cpu[i]);
        if (d > 0.0) est.delay_cpu_ns[i] = d;
      } else if (r < rp && t_gpu[i] > 0.0) {
        const double frac = (1.0 - r) > 0.0 ? (1.0 - rp) / (1.0 - r) : 0.0;
        const double d = cum_cpu - (cum_gpu + t_gpu[i] - t_gpu[i] * frac);
        if (d > 0.0) est.delay_gpu_ns[i] = d;
      }
      const double crossing = std::abs(r - rp) * items;
      if (crossing > 0.0) {
        est.comm_ns += comm.per_transfer_latency_ns +
                       crossing * comm.bytes_per_item / comm.bandwidth_gbps;
      }
    }
    cum_cpu += t_cpu[i] + est.delay_cpu_ns[i];
    cum_gpu += t_gpu[i] + est.delay_gpu_ns[i];
  }
  est.cpu_ns = cum_cpu;
  est.gpu_ns = cum_gpu;
  est.elapsed_ns = std::max(cum_cpu, cum_gpu) + est.comm_ns;
  return est;
}

SeriesEstimate Estimate(const StepCosts& costs, uint64_t n,
                        const std::vector<double>& ratios,
                        const CommSpec& comm) {
  const double items = static_cast<double>(n);
  std::vector<double> t_cpu(costs.size(), 0.0);
  std::vector<double> t_gpu(costs.size(), 0.0);
  for (size_t i = 0; i < costs.size(); ++i) {
    const double r = std::clamp(ratios[i], 0.0, 1.0);
    t_cpu[i] = costs[i].cpu_ns_per_item * r * items;
    t_gpu[i] = costs[i].gpu_ns_per_item * (1.0 - r) * items;
  }
  return Compose(t_cpu, t_gpu, ratios, n, comm);
}

double Evaluate(const StepCosts& costs, uint64_t n,
                const std::vector<double>& ratios, const CommSpec& comm) {
  return Estimate(costs, n, ratios, comm).elapsed_ns;
}

std::vector<double> Grid(double delta) {
  std::vector<double> grid;
  for (double r = 0.0; r < 1.0 + 1e-9; r += delta) {
    grid.push_back(std::min(r, 1.0));
  }
  if (grid.back() < 1.0) grid.push_back(1.0);
  return grid;
}

RatioPlan DataDividing(const StepCosts& costs, uint64_t n,
                       const CommSpec& comm, double delta) {
  RatioPlan best;
  best.ratios.assign(costs.size(), 0.0);
  best.predicted_ns = Evaluate(costs, n, best.ratios, comm);
  for (double r : Grid(delta)) {
    std::vector<double> ratios(costs.size(), r);
    const double t = Evaluate(costs, n, ratios, comm);
    if (t < best.predicted_ns) {
      best.predicted_ns = t;
      best.ratios = ratios;
    }
  }
  return best;
}

RatioPlan Offloading(const StepCosts& costs, uint64_t n,
                     const CommSpec& comm) {
  const size_t steps = costs.size();
  RatioPlan best;
  best.ratios.assign(steps, 0.0);
  best.predicted_ns = Evaluate(costs, n, best.ratios, comm);
  for (uint32_t mask = 1; mask < (1u << steps); ++mask) {
    std::vector<double> ratios(steps, 0.0);
    for (size_t i = 0; i < steps; ++i) {
      ratios[i] = (mask >> i) & 1u ? 1.0 : 0.0;
    }
    const double t = Evaluate(costs, n, ratios, comm);
    if (t < best.predicted_ns) {
      best.predicted_ns = t;
      best.ratios = ratios;
    }
  }
  return best;
}

RatioPlan Descend(const StepCosts& costs, uint64_t n, const CommSpec& comm,
                  double delta, std::vector<double> start) {
  const std::vector<double> grid = Grid(delta);
  RatioPlan best{start, Evaluate(costs, n, start, comm)};
  bool improved = true;
  int rounds = 0;
  while (improved && rounds++ < 32) {
    improved = false;
    for (size_t i = 0; i < best.ratios.size(); ++i) {
      std::vector<double> trial = best.ratios;
      for (double r : grid) {
        trial[i] = r;
        const double t = Evaluate(costs, n, trial, comm);
        if (t < best.predicted_ns - 1e-9) {
          best.predicted_ns = t;
          best.ratios = trial;
          improved = true;
        }
      }
    }
  }
  return best;
}

RatioPlan Pipelined(const StepCosts& costs, uint64_t n, const CommSpec& comm,
                    double delta) {
  const size_t steps = costs.size();
  if (steps <= 3) {
    const std::vector<double> grid = Grid(delta);
    RatioPlan best;
    best.ratios.assign(steps, 0.0);
    best.predicted_ns = Evaluate(costs, n, best.ratios, comm);
    std::vector<double> ratios(steps, 0.0);
    const size_t g = grid.size();
    std::vector<size_t> idx(steps, 0);
    while (true) {
      for (size_t i = 0; i < steps; ++i) ratios[i] = grid[idx[i]];
      const double t = Evaluate(costs, n, ratios, comm);
      if (t < best.predicted_ns) {
        best.predicted_ns = t;
        best.ratios = ratios;
      }
      size_t k = 0;
      while (k < steps && ++idx[k] == g) idx[k++] = 0;
      if (k == steps) break;
    }
    return best;
  }
  RatioPlan best = Descend(costs, n, comm, delta,
                           DataDividing(costs, n, comm, delta).ratios);
  const RatioPlan from_ol =
      Descend(costs, n, comm, delta, Offloading(costs, n, comm).ratios);
  if (from_ol.predicted_ns < best.predicted_ns) best = from_ol;
  const RatioPlan from_mid = Descend(costs, n, comm, delta,
                                     std::vector<double>(steps, 0.5));
  if (from_mid.predicted_ns < best.predicted_ns) best = from_mid;
  return best;
}

}  // namespace reference

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void ExpectBitEqual(const RatioPlan& got, const RatioPlan& want,
                    const std::string& what) {
  EXPECT_EQ(Bits(got.predicted_ns), Bits(want.predicted_ns)) << what;
  ASSERT_EQ(got.ratios.size(), want.ratios.size()) << what;
  for (size_t i = 0; i < got.ratios.size(); ++i) {
    EXPECT_EQ(Bits(got.ratios[i]), Bits(want.ratios[i]))
        << what << " ratio " << i;
  }
}

/// Seeded random series of 1–6 steps: unit costs in [0, 40) ns, a quarter
/// of them exactly zero (zero-cost steps make whole planes of the grid tie,
/// which exercises the first-strict-improvement tie-break).
StepCosts RandomCosts(std::mt19937_64& rng, size_t steps) {
  std::uniform_real_distribution<double> unit(0.0, 40.0);
  std::bernoulli_distribution zero(0.25);
  StepCosts costs;
  for (size_t i = 0; i < steps; ++i) {
    StepCost c;
    c.name = "s" + std::to_string(i);
    c.cpu_ns_per_item = zero(rng) ? 0.0 : unit(rng);
    c.gpu_ns_per_item = zero(rng) ? 0.0 : unit(rng);
    costs.push_back(c);
  }
  return costs;
}

TEST(RatioSearchTest, MatchesVectorBasedSearchBitForBit) {
  std::mt19937_64 rng(20131026);
  CommSpec pcie;
  pcie.bandwidth_gbps = 6.0;
  pcie.per_transfer_latency_ns = 15000.0;
  const CommSpec comms[] = {CommSpec(), pcie};
  std::uniform_int_distribution<uint64_t> items(1, 1u << 24);
  std::uniform_real_distribution<double> ratio(-0.1, 1.1);  // clamped
  for (size_t steps = 1; steps <= 6; ++steps) {
    // Exhaustive searches (<= 3 steps) visit 51^steps points each.
    const int searches = steps == 3 ? 4 : 8;
    for (int s = 0; s < searches; ++s) {
      const StepCosts costs = RandomCosts(rng, steps);
      const uint64_t n = items(rng);
      const CommSpec& comm = comms[s % 2];
      const std::string what = std::to_string(steps) + " steps, search " +
                               std::to_string(s);
      ExpectBitEqual(OptimizePipelined(costs, n, comm),
                     reference::Pipelined(costs, n, comm, kDefaultDelta),
                     "PL " + what);
      ExpectBitEqual(OptimizeDataDividing(costs, n, comm),
                     reference::DataDividing(costs, n, comm, kDefaultDelta),
                     "DD " + what);
      ExpectBitEqual(OptimizeOffloading(costs, n, comm),
                     reference::Offloading(costs, n, comm), "OL " + what);
      // Point evaluations, including the per-step delays.
      for (int k = 0; k < 16; ++k) {
        std::vector<double> r(steps);
        for (double& x : r) x = ratio(rng);
        const SeriesEstimate got = EstimateSeries(costs, n, r, comm);
        const SeriesEstimate want = reference::Estimate(costs, n, r, comm);
        EXPECT_EQ(Bits(got.elapsed_ns), Bits(want.elapsed_ns)) << what;
        EXPECT_EQ(Bits(got.cpu_ns), Bits(want.cpu_ns)) << what;
        EXPECT_EQ(Bits(got.gpu_ns), Bits(want.gpu_ns)) << what;
        EXPECT_EQ(Bits(got.comm_ns), Bits(want.comm_ns)) << what;
        for (size_t i = 0; i < steps; ++i) {
          EXPECT_EQ(Bits(got.delay_cpu_ns[i]), Bits(want.delay_cpu_ns[i]));
          EXPECT_EQ(Bits(got.delay_gpu_ns[i]), Bits(want.delay_gpu_ns[i]));
        }
      }
    }
  }
}

}  // namespace
}  // namespace apujoin::cost
