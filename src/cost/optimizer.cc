#include "cost/optimizer.h"

#include <algorithm>
#include <cmath>

namespace apujoin::cost {

namespace {

/// The model of one search's (costs, n, comm): evaluates ratio vectors
/// with EstimateSeries's arithmetic (StepTimes + ComposeSteps) into
/// per-search scratch, so a search allocates nothing per grid point.
class SeriesModel {
 public:
  SeriesModel(const StepCosts& costs, uint64_t n, const CommSpec& comm)
      : costs_(costs),
        items_(static_cast<double>(n)),
        comm_(comm),
        t_cpu_(costs.size()),
        t_gpu_(costs.size()) {}

  /// EstimateSeries(costs, n, ratios, comm).elapsed_ns, bit for bit.
  double Evaluate(const std::vector<double>& ratios) {
    const size_t steps = std::min(costs_.size(), ratios.size());
    StepTimes(costs_.data(), ratios.data(), steps, items_, t_cpu_.data(),
              t_gpu_.data());
    return ComposeSteps(t_cpu_.data(), t_gpu_.data(), ratios.data(), steps,
                        items_, comm_)
        .elapsed_ns;
  }

 private:
  const StepCosts& costs_;
  const double items_;
  const CommSpec& comm_;
  std::vector<double> t_cpu_, t_gpu_;
};

std::vector<double> RatioGrid(double delta) {
  std::vector<double> grid;
  for (double r = 0.0; r < 1.0 + 1e-9; r += delta) {
    grid.push_back(std::min(r, 1.0));
  }
  if (grid.back() < 1.0) grid.push_back(1.0);
  return grid;
}

RatioPlan CoordinateDescent(SeriesModel& model, double delta,
                            std::vector<double> start) {
  const std::vector<double> grid = RatioGrid(delta);
  RatioPlan best{start, model.Evaluate(start)};
  std::vector<double> trial;
  bool improved = true;
  int rounds = 0;
  while (improved && rounds++ < 32) {
    improved = false;
    for (size_t i = 0; i < best.ratios.size(); ++i) {
      trial = best.ratios;
      for (double r : grid) {
        trial[i] = r;
        const double t = model.Evaluate(trial);
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

}  // namespace

RatioPlan OptimizeDataDividing(const StepCosts& costs, uint64_t n,
                               const CommSpec& comm, double delta) {
  SeriesModel model(costs, n, comm);
  RatioPlan best;
  best.ratios.assign(costs.size(), 0.0);
  best.predicted_ns = model.Evaluate(best.ratios);
  std::vector<double> ratios;
  for (double r : RatioGrid(delta)) {
    ratios.assign(costs.size(), r);
    const double t = model.Evaluate(ratios);
    if (t < best.predicted_ns) {
      best.predicted_ns = t;
      best.ratios = ratios;
    }
  }
  return best;
}

RatioPlan OptimizeOffloading(const StepCosts& costs, uint64_t n,
                             const CommSpec& comm) {
  // 2^n assignments; series have <= 4 steps, so enumerate exactly as the
  // paper describes for the discrete architecture.
  const size_t steps = costs.size();
  SeriesModel model(costs, n, comm);
  RatioPlan best;
  best.ratios.assign(steps, 0.0);
  best.predicted_ns = model.Evaluate(best.ratios);
  std::vector<double> ratios(steps, 0.0);
  for (uint32_t mask = 1; mask < (1u << steps); ++mask) {
    for (size_t i = 0; i < steps; ++i) {
      ratios[i] = (mask >> i) & 1u ? 1.0 : 0.0;
    }
    const double t = model.Evaluate(ratios);
    if (t < best.predicted_ns) {
      best.predicted_ns = t;
      best.ratios = ratios;
    }
  }
  return best;
}

RatioPlan OptimizeSerial(const StepCosts& costs, uint64_t n,
                         bool single_ratio) {
  const double items = static_cast<double>(n);
  RatioPlan best;
  best.ratios.assign(costs.size(), 0.0);
  if (single_ratio) {
    // Series time is linear in the single ratio, so the optimum is at an
    // endpoint: the device with the cheaper whole-series unit cost.
    double cpu = 0.0;
    double gpu = 0.0;
    for (const StepCost& c : costs) {
      cpu += c.cpu_ns_per_item;
      gpu += c.gpu_ns_per_item;
    }
    const double r = cpu <= gpu ? 1.0 : 0.0;
    best.ratios.assign(costs.size(), r);
    best.predicted_ns = items * std::min(cpu, gpu);
    return best;
  }
  best.predicted_ns = 0.0;
  for (size_t i = 0; i < costs.size(); ++i) {
    const double cpu = costs[i].cpu_ns_per_item;
    const double gpu = costs[i].gpu_ns_per_item;
    best.ratios[i] = cpu <= gpu ? 1.0 : 0.0;
    best.predicted_ns += items * std::min(cpu, gpu);
  }
  return best;
}

RatioPlan OptimizePipelined(const StepCosts& costs, uint64_t n,
                            const CommSpec& comm, double delta) {
  const size_t steps = costs.size();
  SeriesModel model(costs, n, comm);
  if (steps <= 3) {
    const std::vector<double> grid = RatioGrid(delta);
    RatioPlan best;
    best.ratios.assign(steps, 0.0);
    best.predicted_ns = model.Evaluate(best.ratios);
    std::vector<double> ratios(steps, 0.0);
    const size_t g = grid.size();
    std::vector<size_t> idx(steps, 0);
    while (true) {
      for (size_t i = 0; i < steps; ++i) ratios[i] = grid[idx[i]];
      const double t = model.Evaluate(ratios);
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
  // Longer series: coordinate descent from three seeds.
  RatioPlan best = CoordinateDescent(
      model, delta, OptimizeDataDividing(costs, n, comm, delta).ratios);
  const RatioPlan from_ol = CoordinateDescent(
      model, delta, OptimizeOffloading(costs, n, comm).ratios);
  if (from_ol.predicted_ns < best.predicted_ns) best = from_ol;
  const RatioPlan from_mid = CoordinateDescent(
      model, delta, std::vector<double>(steps, 0.5));
  if (from_mid.predicted_ns < best.predicted_ns) best = from_mid;
  return best;
}

}  // namespace apujoin::cost
