// The abstract cost model of Section 4 (Eqs. 1–5).
//
// A step series s1..sn with workload ratios r1..rn (ri = CPU share of step
// i's items) is estimated as
//
//   T        = max(T_CPU, T_GPU)                                    (Eq. 1)
//   T_XPU    = sum_i (C^i + M^i + D^i)                              (Eq. 2)
//   C^i+M^i  = unit_cost_XPU(step i) · share · x_i                  (Eq. 3 +
//              the calibrated memory term)
//   D^i      = pipelined delay when consecutive ratios differ       (Eqs 4/5)
//
// plus the intermediate-result communication cost for items that cross
// devices between consecutive steps. Unit costs come from the Calibrator
// (instruction profiling + memory-cost calibration, Section 4.2). The model
// deliberately excludes latch contention — the paper estimates lock
// overhead as measured-minus-estimated (Figure 11b).

#ifndef APUJOIN_COST_ABSTRACT_MODEL_H_
#define APUJOIN_COST_ABSTRACT_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace apujoin::cost {

/// Calibrated per-item unit cost of one step on each device.
struct StepCost {
  std::string name;
  double cpu_ns_per_item = 0.0;
  double gpu_ns_per_item = 0.0;
};

using StepCosts = std::vector<StepCost>;

/// Model output for one step series under given ratios.
struct SeriesEstimate {
  double cpu_ns = 0.0;      ///< T_CPU (Eq. 2)
  double gpu_ns = 0.0;      ///< T_GPU (Eq. 2)
  double elapsed_ns = 0.0;  ///< T (Eq. 1)
  double comm_ns = 0.0;     ///< intermediate-result transfer cost
  std::vector<double> delay_cpu_ns;  ///< D^i_CPU per step (Eq. 4)
  std::vector<double> delay_gpu_ns;  ///< D^i_GPU per step (Eq. 5)
};

/// Communication parameters for crossing intermediate results.
struct CommSpec {
  double bytes_per_item = 8.0;
  /// Shared-memory bandwidth on the coupled architecture (GB/s). For the
  /// "what would PL cost on discrete" analysis, substitute PCI-e numbers.
  double bandwidth_gbps = 21.0;
  double per_transfer_latency_ns = 0.0;  ///< 0 on coupled; PCI-e latency else
};

/// The Eqs. 1–5 composition over raw arrays of `steps` per-step device
/// times and CPU ratios, with `items` input items per step. Returns the
/// series scalars with empty delay vectors; D^i goes to delay_cpu_ns /
/// delay_gpu_ns when they are non-null (sized >= `steps`). The one
/// implementation behind ComposePipelinedTiming, EstimateSeries and the
/// ratio optimizers; it allocates nothing.
SeriesEstimate ComposeSteps(const double* t_cpu, const double* t_gpu,
                            const double* ratios, size_t steps, double items,
                            const CommSpec& comm,
                            double* delay_cpu_ns = nullptr,
                            double* delay_gpu_ns = nullptr);

/// Eq. 3: the first `steps` per-step device times of `costs` under CPU
/// ratios `ratios`, with `items` input items per step.
void StepTimes(const StepCost* costs, const double* ratios, size_t steps,
               double items, double* t_cpu, double* t_gpu);

/// Evaluates the abstract model for a series of `costs.size()` steps with
/// `n` input items per step and CPU ratios `ratios` (size must match).
SeriesEstimate EstimateSeries(const StepCosts& costs, uint64_t n,
                              const std::vector<double>& ratios,
                              const CommSpec& comm = CommSpec());

/// Composes per-step per-device times into series totals with the paper's
/// pipelined-delay equations (Eqs. 4/5) and crossing-communication cost.
/// Shared by the model (estimated times) and the simulator (measured times),
/// so model-vs-measured comparisons differ only in the inputs.
SeriesEstimate ComposePipelinedTiming(const std::vector<double>& t_cpu,
                                      const std::vector<double>& t_gpu,
                                      const std::vector<double>& ratios,
                                      uint64_t n, const CommSpec& comm);

}  // namespace apujoin::cost

#endif  // APUJOIN_COST_ABSTRACT_MODEL_H_
