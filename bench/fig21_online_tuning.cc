// Figure 21 (repo extension): online ratio tuning — the calibration
// feedback loop between an execution backend and the cost model, closed.
//
// The same skewed SHJ-PL join runs repeatedly. Iteration 1 is planned from
// the analytically instantiated cost table (Section 4.2); after each run
// the measured per-step, per-device timings are folded into an EWMA table
// that replaces the analytic unit costs, and the ratio optimizer re-runs
// on it. On the thread-pool backend the tuned iterations also switch to
// the serial-lane composition that actually describes a host pool.
//
// Shape targets: per-iteration join time is non-increasing once tuning
// kicks in (iteration N <= iteration 1); ratio drift is large at iteration
// 2 (analytic guesses -> measured optimum) and ~0 once converged; the
// final unit-cost table shows measured values where the analytic model
// guessed. Defaults to --tune=online; --tune=off shows the flat baseline.

#include <cmath>

#include "bench_common.h"
#include "coproc/ratio_tuner.h"

namespace apujoin::bench {
namespace {

constexpr int kIterations = 8;

std::vector<double> AllRatios(const coproc::JoinReport& rep) {
  std::vector<double> r = rep.build_ratios;
  r.insert(r.end(), rep.probe_ratios.begin(), rep.probe_ratios.end());
  return r;
}

double MeanDrift(const std::vector<double>& prev,
                 const std::vector<double>& cur) {
  if (prev.empty() || prev.size() != cur.size()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < prev.size(); ++i) sum += std::abs(cur[i] - prev[i]);
  return sum / static_cast<double>(prev.size());
}

void Run() {
  PrintBanner("Figure 21", "online tuning: per-iteration time & ratio drift");
  const cost::TuneMode mode =
      g_flags.tune_set ? g_flags.exec.tune : cost::TuneMode::kOnline;
  const data::Workload w =
      MakeWorkload(Scaled(4ull << 20), Scaled(16ull << 20),
                   data::Distribution::kHighSkew);
  simcl::SimContext ctx = MakeContext();
  exec::Backend* backend = CachedBackend(&ctx);

  coproc::JoinSpec spec;
  spec.algorithm = coproc::Algorithm::kSHJ;
  spec.scheme = coproc::Scheme::kPipelined;
  ApplyBackend(&spec);
  spec.engine.tune = mode;
  std::printf("tune: %s\n\n", cost::TuneModeName(mode));

  coproc::RatioTuner tuner(mode);
  TablePrinter table(
      {"iter", "time(s)", "estimate(s)", "ratio drift", "measured steps"});
  std::vector<double> prev_ratios;
  coproc::JoinReport first;
  coproc::JoinReport last;
  for (int i = 1; i <= kIterations; ++i) {
    tuner.Prepare(&spec);
    auto report =
        coproc::ExecutePlan(backend, coproc::MakeSingleJoinPlan(w, spec));
    APU_CHECK_OK(report.status());
    APU_CHECK(report->matches == w.expected_matches);
    g_json.AddJoin(*report);

    // Steps this iteration *planned* with measured unit costs (counted
    // before absorbing the iteration's own timings).
    size_t measured = 0;
    for (const auto& s : report->steps) {
      if (tuner.calibrator().Has(s.name, simcl::DeviceId::kCpu) ||
          tuner.calibrator().Has(s.name, simcl::DeviceId::kGpu)) {
        ++measured;
      }
    }
    tuner.Absorb(*report);

    const std::vector<double> ratios = AllRatios(*report);
    table.AddRow({std::to_string(i), Secs(report->elapsed_ns),
                  Secs(report->estimated_ns),
                  TablePrinter::Fmt(MeanDrift(prev_ratios, ratios), 3),
                  std::to_string(measured) + "/" +
                      std::to_string(report->steps.size())});
    prev_ratios = ratios;
    if (i == 1) first = *report;
    last = std::move(report).value();
  }
  table.Print();

  // The swap the loop converges on: analytic vs measured unit costs.
  std::printf("\nprobe-series unit costs, analytic (iter 1) vs measured "
              "(iter %d):\n", kIterations);
  TablePrinter units({"step", "cpu ns/item (analytic)",
                      "cpu ns/item (measured)", "gpu ns/item (analytic)",
                      "gpu ns/item (measured)", "ratio"});
  for (size_t i = 0; i < last.steps.size(); ++i) {
    const auto& s0 = first.steps[i];
    const auto& s1 = last.steps[i];
    if (s1.phase != "probe") continue;
    units.AddRow({s1.name, TablePrinter::Fmt(s0.unit_cpu_ns, 2),
                  TablePrinter::Fmt(s1.unit_cpu_ns, 2),
                  TablePrinter::Fmt(s0.unit_gpu_ns, 2),
                  TablePrinter::Fmt(s1.unit_gpu_ns, 2),
                  TablePrinter::FmtPercent(s1.ratio, 0)});
  }
  units.Print();
  std::printf("\niteration %d vs iteration 1: %.2fx\n", kIterations,
              first.elapsed_ns / last.elapsed_ns);
  g_json.AddMetric("tuning_speedup_vs_iter1",
                   first.elapsed_ns / last.elapsed_ns);
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  apujoin::bench::Run();
}
