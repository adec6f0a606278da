#include "coproc/ratio_tuner.h"

#include <algorithm>

#include "cost/optimizer.h"

namespace apujoin::coproc {

using simcl::DeviceId;

RatioTuner::RatioTuner(cost::TuneMode mode,
                       cost::OnlineCalibratorOptions opts)
    : mode_(mode), calib_(opts) {}

void RatioTuner::Reset() {
  calib_.Clear();
  shapes_.clear();
  same_run_.clear();
  installed_build_.clear();
  installed_probe_.clear();
  installed_partition_.clear();
  runs_ = 0;
}

namespace {

/// A slot is ours to (re)write when it is empty or still holds exactly what
/// we installed last time; anything else is a caller's explicit pin.
bool SlotIsOurs(const std::vector<double>& current,
                const std::vector<double>& installed) {
  return current.empty() || current == installed;
}

}  // namespace

void RatioTuner::Absorb(const JoinReport& report) {
  if (mode_ == cost::TuneMode::kOff) return;
  // kOnce freezes the table after the first run; later runs only count.
  const bool frozen = mode_ == cost::TuneMode::kOnce && runs_ > 0;
  if (!frozen) {
    shapes_.clear();
    for (const StepReport& s : report.steps) {
      // Contention-free measured time: on the sim backend the modelled
      // share (the cost model excludes locks by construction), on real
      // backends the full wall clock (nothing is separable there).
      const bool cpu = calib_.Observe(s.name, DeviceId::kCpu, s.cpu_items,
                                      s.cpu_modeled_ns);
      const bool gpu = calib_.Observe(s.name, DeviceId::kGpu, s.gpu_items,
                                      s.gpu_modeled_ns);
      if (cpu && gpu) {
        cost::StepCost& pair = same_run_[s.name];
        pair.name = s.name;
        pair.cpu_ns_per_item = calib_.UnitCostNs(s.name, DeviceId::kCpu);
        pair.gpu_ns_per_item = calib_.UnitCostNs(s.name, DeviceId::kGpu);
      }
      if (shapes_.empty() || shapes_.back().phase != s.phase) {
        shapes_.push_back(PhaseShape{s.phase, 0, {}, {}});
        shapes_.back().items = s.cpu_items + s.gpu_items;
      }
      PhaseShape& shape = shapes_.back();
      cost::StepCost c;
      c.name = s.name;
      c.cpu_ns_per_item = s.unit_cpu_ns;
      c.gpu_ns_per_item = s.unit_gpu_ns;
      shape.unit_costs.push_back(std::move(c));
      shape.ratios.push_back(s.ratio);
    }
  }
  ++runs_;
}

void RatioTuner::Prepare(JoinSpec* spec) {
  if (mode_ == cost::TuneMode::kOff) return;
  // The shared pool applies even before this session's first run — that
  // cold start is exactly when a neighbour's measurements are most useful.
  if (shared_ != nullptr) spec->shared_costs = shared_;
  if (runs_ == 0) return;
  spec->measured_costs = &calib_;

  // On the sim backend the driver's own optimizers re-run on the refined
  // table (the composition they assume — concurrent devices with pipelined
  // delays — is exactly what the simulator executes), so explicit overrides
  // would only get in their way. Real backends run the two logical-device
  // lanes back-to-back on one host pool; there the serial composition
  // applies and we install its optimum as explicit overrides.
  if (spec->engine.backend == exec::BackendKind::kSim) return;
  if (spec->scheme == Scheme::kCpuOnly || spec->scheme == Scheme::kGpuOnly) {
    return;  // the user pinned the device; nothing to tune
  }

  const bool single_ratio = spec->scheme == Scheme::kDataDivide;
  for (const PhaseShape& shape : shapes_) {
    // Lanes are compared on their same-run values. A step no run has
    // measured on both lanes (ratio 0 or 1 from the start, or a slice too
    // small to time) has nothing to compare; it keeps its current ratio.
    cost::StepCosts costs = calib_.Refine(shape.unit_costs);
    std::vector<bool> compared(costs.size(), false);
    for (size_t i = 0; i < costs.size(); ++i) {
      const auto it = same_run_.find(costs[i].name);
      if (it == same_run_.end()) continue;
      costs[i] = it->second;
      compared[i] = true;
    }
    std::vector<double> tuned =
        cost::OptimizeSerial(costs, shape.items, single_ratio).ratios;
    for (size_t i = 0; i < tuned.size(); ++i) {
      if (!compared[i]) {
        tuned[i] = shape.ratios[i];
        continue;
      }
      // Hysteresis: when the lanes measure near-equal (common on a host
      // pool, where both logical devices are the same cores) the argmin
      // flips on run-to-run noise; stick with the incumbent whole-lane
      // assignment unless the other lane is >20% cheaper. The band covers
      // the scheduling jitter of a shared pool: whether a helper worker
      // wakes in time to join a small span moves its measured wall by up
      // to ~20%, and that must not read as a lane preference.
      const double cpu = costs[i].cpu_ns_per_item;
      const double gpu = costs[i].gpu_ns_per_item;
      const bool near_equal =
          std::min(cpu, gpu) > 0.8 * std::max(cpu, gpu);
      const bool incumbent_whole =
          shape.ratios[i] == 0.0 || shape.ratios[i] == 1.0;
      if (!single_ratio && near_equal && incumbent_whole) {
        tuned[i] = shape.ratios[i];
      }
    }
    if (shape.phase == "build" &&
        SlotIsOurs(spec->build_ratios, installed_build_)) {
      spec->build_ratios = tuned;
      installed_build_ = std::move(tuned);
    } else if (shape.phase == "probe" &&
               SlotIsOurs(spec->probe_ratios, installed_probe_)) {
      spec->probe_ratios = tuned;
      installed_probe_ = std::move(tuned);
    } else if (shape.phase == "partition-R.0" &&
               SlotIsOurs(spec->partition_ratios, installed_partition_)) {
      // One override serves every partition pass (the driver broadcasts).
      spec->partition_ratios = tuned;
      installed_partition_ = std::move(tuned);
    }
  }
}

}  // namespace apujoin::coproc
