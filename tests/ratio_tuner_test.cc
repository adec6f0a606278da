// RatioTuner tests: feedback-loop mechanics on synthetic reports (mode
// semantics, serial overrides, freeze-after-first for kOnce) and the end--
// to-end convergence property on the thread-pool backend — a session of
// identical joins must swap measured unit costs in for analytic ones and
// converge on stable one-lane-per-step ratios.

#include <gtest/gtest.h>

#include <vector>

#include "coproc/pipeline_runner.h"
#include "coproc/ratio_tuner.h"
#include "core/coupled_joiner.h"
#include "exec/thread_pool_backend.h"

namespace apujoin::coproc {
namespace {

using cost::TuneMode;
using simcl::DeviceId;

data::Workload MakeWorkload(uint64_t nb, uint64_t np) {
  data::WorkloadSpec spec;
  spec.build_tuples = nb;
  spec.probe_tuples = np;
  spec.distribution = data::Distribution::kHighSkew;  // deterministic seed 42
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

/// One synthetic measured step: `items` per device at the given unit costs.
StepReport SynthStep(const std::string& phase, const std::string& name,
                     double ratio, uint64_t items, double cpu_unit_ns,
                     double gpu_unit_ns) {
  StepReport s;
  s.phase = phase;
  s.name = name;
  s.ratio = ratio;
  s.cpu_items = static_cast<uint64_t>(ratio * static_cast<double>(items));
  s.gpu_items = items - s.cpu_items;
  s.cpu_modeled_ns = cpu_unit_ns * static_cast<double>(s.cpu_items);
  s.gpu_modeled_ns = gpu_unit_ns * static_cast<double>(s.gpu_items);
  s.cpu_ns = s.cpu_modeled_ns;
  s.gpu_ns = s.gpu_modeled_ns;
  s.unit_cpu_ns = 100.0;  // the analytic guesses the tuner should replace
  s.unit_gpu_ns = 100.0;
  return s;
}

TEST(RatioTunerTest, OffModeIsInert) {
  RatioTuner tuner(TuneMode::kOff);
  JoinReport report;
  report.steps.push_back(SynthStep("build", "b1", 0.5, 10000, 1.0, 2.0));
  tuner.Absorb(report);
  EXPECT_EQ(tuner.runs(), 0);
  EXPECT_TRUE(tuner.calibrator().empty());

  JoinSpec spec;
  tuner.Prepare(&spec);
  EXPECT_EQ(spec.measured_costs, nullptr);
  EXPECT_TRUE(spec.build_ratios.empty());
}

TEST(RatioTunerTest, PrepareBeforeFirstRunIsANoop) {
  RatioTuner tuner(TuneMode::kOnline);
  JoinSpec spec;
  tuner.Prepare(&spec);
  EXPECT_EQ(spec.measured_costs, nullptr);
}

TEST(RatioTunerTest, OnceFreezesTheTableAfterTheFirstRun) {
  RatioTuner tuner(TuneMode::kOnce);
  JoinReport first;
  first.steps.push_back(SynthStep("build", "b1", 0.5, 10000, 1.0, 2.0));
  tuner.Absorb(first);
  EXPECT_DOUBLE_EQ(tuner.calibrator().UnitCostNs("b1", DeviceId::kCpu), 1.0);

  JoinReport second;
  second.steps.push_back(SynthStep("build", "b1", 0.5, 10000, 9.0, 2.0));
  tuner.Absorb(second);
  EXPECT_EQ(tuner.runs(), 2);
  // Frozen: the second run's 9 ns/item never entered the table.
  EXPECT_DOUBLE_EQ(tuner.calibrator().UnitCostNs("b1", DeviceId::kCpu), 1.0);

  RatioTuner online(TuneMode::kOnline);
  online.Absorb(first);
  online.Absorb(second);
  // EWMA (alpha 0.5): 0.5 * 9 + 0.5 * 1 = 5.
  EXPECT_DOUBLE_EQ(online.calibrator().UnitCostNs("b1", DeviceId::kCpu),
                   5.0);
}

TEST(RatioTunerTest, SerialOverridesRunStepsOnTheirCheaperLane) {
  RatioTuner tuner(TuneMode::kOnline);
  JoinReport report;
  report.steps.push_back(SynthStep("build", "b1", 0.5, 20000, 1.0, 3.0));
  report.steps.push_back(SynthStep("build", "b2", 0.5, 20000, 4.0, 2.0));
  // b3 ran CPU-only: no GPU measurement, its ratio must be left alone.
  report.steps.push_back(SynthStep("build", "b3", 1.0, 20000, 2.0, 0.0));
  report.steps.push_back(SynthStep("probe", "p1", 0.25, 40000, 5.0, 1.0));
  tuner.Absorb(report);

  JoinSpec spec;
  spec.scheme = Scheme::kPipelined;
  spec.engine.backend = exec::BackendKind::kThreadPool;
  tuner.Prepare(&spec);
  ASSERT_EQ(spec.measured_costs, &tuner.calibrator());
  ASSERT_EQ(spec.build_ratios.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.build_ratios[0], 1.0);  // CPU cheaper
  EXPECT_DOUBLE_EQ(spec.build_ratios[1], 0.0);  // GPU cheaper
  EXPECT_DOUBLE_EQ(spec.build_ratios[2], 1.0);  // unmeasured: kept
  ASSERT_EQ(spec.probe_ratios.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.probe_ratios[0], 0.0);

  // On the sim backend the driver re-optimizes from the refined table
  // itself; the tuner must not install serial overrides there.
  JoinSpec sim_spec;
  sim_spec.scheme = Scheme::kPipelined;
  tuner.Prepare(&sim_spec);
  EXPECT_EQ(sim_spec.measured_costs, &tuner.calibrator());
  EXPECT_TRUE(sim_spec.build_ratios.empty());

  // Pinned-device schemes are not second-guessed.
  JoinSpec pinned;
  pinned.scheme = Scheme::kCpuOnly;
  pinned.engine.backend = exec::BackendKind::kThreadPool;
  tuner.Prepare(&pinned);
  EXPECT_TRUE(pinned.build_ratios.empty());

  // A caller's explicit override is a pin, not a tuner slot: only slots
  // the tuner itself installed (or empty ones) are rewritten.
  JoinSpec user_pin;
  user_pin.scheme = Scheme::kPipelined;
  user_pin.engine.backend = exec::BackendKind::kThreadPool;
  user_pin.probe_ratios = {0.5};
  tuner.Prepare(&user_pin);
  EXPECT_EQ(user_pin.probe_ratios, std::vector<double>({0.5}));
  EXPECT_EQ(user_pin.build_ratios.size(), 3u);  // untouched slot: tuned
}

TEST(RatioTunerTest, WholeLaneStepsCompareOnlySameRunMeasurements) {
  RatioTuner tuner(TuneMode::kOnline);
  JoinReport split;  // run 0: b3 split across both lanes, CPU cheaper
  split.steps.push_back(SynthStep("build", "b3", 0.5, 20000, 50.0, 60.0));
  tuner.Absorb(split);
  JoinSpec spec;
  spec.scheme = Scheme::kPipelined;
  spec.engine.backend = exec::BackendKind::kThreadPool;
  tuner.Prepare(&spec);
  ASSERT_EQ(spec.build_ratios, std::vector<double>({1.0}));

  // Run 1 executes b3 whole on the CPU, and slowly: the CPU lane's EWMA
  // climbs past the GPU lane's run-0 value by more than the hysteresis
  // band. The GPU lane did not run, so no same-run comparison says the
  // GPU is now cheaper; the step keeps its lane.
  JoinReport whole;
  whole.steps.push_back(SynthStep("build", "b3", 1.0, 20000, 120.0, 0.0));
  tuner.Absorb(whole);
  ASSERT_GT(tuner.calibrator().UnitCostNs("b3", DeviceId::kCpu),
            1.25 * tuner.calibrator().UnitCostNs("b3", DeviceId::kGpu));
  tuner.Prepare(&spec);
  EXPECT_EQ(spec.build_ratios, std::vector<double>({1.0}));

  // A run that measures both lanes again is a same-run comparison: a GPU
  // lane now clearly cheaper wins the step.
  JoinReport resplit;
  resplit.steps.push_back(SynthStep("build", "b3", 0.5, 20000, 100.0, 40.0));
  tuner.Absorb(resplit);
  tuner.Prepare(&spec);
  EXPECT_EQ(spec.build_ratios, std::vector<double>({0.0}));
}

TEST(RatioTunerTest, UntunedSimSessionIsDeterministic) {
  // --tune=off must leave the sim backend's virtual-time path untouched:
  // two identical runs produce bit-identical timing.
  const data::Workload w = MakeWorkload(1 << 11, 1 << 12);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kPipelined;
  auto a = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  auto b = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->elapsed_ns, b->elapsed_ns);
  EXPECT_EQ(a->matches, b->matches);
}

TEST(RatioTunerTest, ConvergesOnThreadsBackend) {
  const data::Workload w = MakeWorkload(1 << 13, 1 << 16);
  simcl::SimContext ctx;
  exec::ThreadPoolBackend backend(&ctx, {2, 256});
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kPipelined;
  spec.engine.backend = exec::BackendKind::kThreadPool;
  spec.engine.threads = 2;

  RatioTuner tuner(TuneMode::kOnline);
  constexpr int kIterations = 6;
  std::vector<JoinReport> reports;
  for (int i = 0; i < kIterations; ++i) {
    tuner.Prepare(&spec);
    auto report = ExecutePlan(&backend, MakeSingleJoinPlan(w, spec));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->matches, w.expected_matches) << "iteration " << i;
    reports.push_back(*report);
    tuner.Absorb(*report);
  }

  // Measured unit costs replaced the analytic table: from the second run
  // on, the reported per-step unit costs are the calibrator's EWMA values
  // at the time of the run, not the analytic model's.
  EXPECT_GT(tuner.calibrator().size(), 0u);
  ASSERT_EQ(reports[1].steps.size(), reports[0].steps.size());
  bool some_step_measured = false;
  for (size_t i = 0; i < reports[1].steps.size(); ++i) {
    const StepReport& s = reports[1].steps[i];
    if (!tuner.calibrator().Has(s.name, DeviceId::kCpu)) continue;
    some_step_measured = true;
    // Run 1 was planned with analytic unit costs (virtual ns of the
    // simulated APU); run 2 with the measured table (host wall-clock).
    // Different sources, different numbers.
    EXPECT_NE(s.unit_cpu_ns, reports[0].steps[i].unit_cpu_ns)
        << s.phase << "/" << s.name;
  }
  EXPECT_TRUE(some_step_measured);

  // Ratio assignment converges: the last two iterations agree.
  EXPECT_EQ(reports[kIterations - 2].build_ratios,
            reports[kIterations - 1].build_ratios);
  EXPECT_EQ(reports[kIterations - 2].probe_ratios,
            reports[kIterations - 1].probe_ratios);
  // Tuned iterations run each step on one lane (serial composition) — the
  // work-proportion form of "tuning took effect", robust to host noise.
  for (double r : reports[kIterations - 1].probe_ratios) {
    EXPECT_TRUE(r == 0.0 || r == 1.0) << r;
  }
  for (const StepReport& s : reports[kIterations - 1].steps) {
    EXPECT_TRUE(s.cpu_items == 0 || s.gpu_items == 0)
        << s.phase << "/" << s.name << " split " << s.cpu_items << "/"
        << s.gpu_items;
  }

  // Tuning took effect: the untuned first run split steps by the analytic
  // model's fractional ratios, the converged runs do not.
  EXPECT_NE(reports.front().probe_ratios, reports.back().probe_ratios);
  // Whether the converged ratios are also *faster* is deliberately not a
  // wall-clock assertion here. Interleaved re-runs of the two ratio sets on
  // a shared 4-vCPU host put the tuned/untuned paired-median ratio
  // anywhere in 0.93..1.08 from one process to the next, so no measurement
  // of it is deterministic against a 5% bound. The ratio and
  // work-proportion checks above are exact.
}

TEST(RatioTunerTest, CoupledJoinerRunsTheSessionLoop) {
  const data::Workload w = MakeWorkload(1 << 11, 1 << 12);
  core::JoinConfig config;
  config.spec.algorithm = Algorithm::kSHJ;
  config.spec.scheme = Scheme::kPipelined;
  config.spec.engine.tune = TuneMode::kOnline;
  core::CoupledJoiner joiner(config);
  for (int i = 0; i < 3; ++i) {
    auto report = joiner.Join(w);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->matches, w.expected_matches);
  }
  EXPECT_EQ(joiner.tuner().runs(), 3);
  EXPECT_GT(joiner.tuner().calibrator().size(), 0u);
}

}  // namespace
}  // namespace apujoin::coproc
