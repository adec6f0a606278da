#include "cost/abstract_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <utility>

namespace apujoin::cost {

SeriesEstimate ComposeSteps(const double* t_cpu, const double* t_gpu,
                            const double* ratios, size_t steps, double items,
                            const CommSpec& comm, double* delay_cpu_ns,
                            double* delay_gpu_ns) {
  SeriesEstimate est;
  // Cumulative sums include earlier delays: a stalled device starts its
  // later steps later (Eq. 2 folds D^i into T^i).
  double cum_cpu = 0.0;
  double cum_gpu = 0.0;
  for (size_t i = 0; i < steps; ++i) {
    const double r = std::clamp(ratios[i], 0.0, 1.0);
    double delay_cpu = 0.0;
    double delay_gpu = 0.0;
    if (i > 0) {
      const double rp = std::clamp(ratios[i - 1], 0.0, 1.0);
      if (r > rp && t_cpu[i] > 0.0) {
        // Case 1 (Eq. 4): the CPU gained items whose step-(i-1) output the
        // GPU is still producing. The share of the GPU's step-(i-1) time
        // that overlaps the CPU's step i is 1 - (1-r_i)/(1-r_{i-1}).
        const double frac = (1.0 - rp) > 0.0 ? (1.0 - r) / (1.0 - rp) : 0.0;
        const double gpu_pipelined = cum_gpu - t_gpu[i - 1] * frac;
        const double d = gpu_pipelined - (cum_cpu + t_cpu[i]);
        if (d > 0.0) delay_cpu = d;
      } else if (r < rp && t_gpu[i] > 0.0) {
        // Case 2 (Eq. 5): symmetric — the GPU waits on the CPU.
        const double frac = (1.0 - r) > 0.0 ? (1.0 - rp) / (1.0 - r) : 0.0;
        const double d = cum_cpu - (cum_gpu + t_gpu[i] - t_gpu[i] * frac);
        if (d > 0.0) delay_gpu = d;
      }
      const double crossing = std::abs(r - rp) * items;
      if (crossing > 0.0) {
        est.comm_ns += comm.per_transfer_latency_ns +
                       crossing * comm.bytes_per_item / comm.bandwidth_gbps;
      }
    }
    if (delay_cpu_ns != nullptr) delay_cpu_ns[i] = delay_cpu;
    if (delay_gpu_ns != nullptr) delay_gpu_ns[i] = delay_gpu;
    cum_cpu += t_cpu[i] + delay_cpu;
    cum_gpu += t_gpu[i] + delay_gpu;
  }

  est.cpu_ns = cum_cpu;
  est.gpu_ns = cum_gpu;
  est.elapsed_ns = std::max(cum_cpu, cum_gpu) + est.comm_ns;
  return est;
}

SeriesEstimate ComposePipelinedTiming(const std::vector<double>& t_cpu,
                                      const std::vector<double>& t_gpu,
                                      const std::vector<double>& ratios,
                                      uint64_t n, const CommSpec& comm) {
  // A caller's size mismatch is a bug, but planning must stay memory-safe
  // and available: compose only the prefix all three vectors cover — and
  // say so once, so the bug does not hide behind plausible-looking
  // numbers. Planning may run on concurrent session threads, hence the
  // atomic once-flag.
  const size_t steps =
      std::min(ratios.size(), std::min(t_cpu.size(), t_gpu.size()));
  const size_t out_steps =
      std::max(ratios.size(), std::max(t_cpu.size(), t_gpu.size()));
  if (steps != out_steps) {
    static std::atomic<bool> warned{false};
    // relaxed: warn-once flag; only the exchange's atomicity matters.
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "apujoin: ComposePipelinedTiming size mismatch (%zu/%zu/"
                   "%zu step times vs ratios); composing the common prefix\n",
                   t_cpu.size(), t_gpu.size(), ratios.size());
    }
  }
  // Sized to the widest input so downstream per-step consumers indexing by
  // their own step count never read past the delay vectors.
  std::vector<double> delay_cpu(out_steps, 0.0);
  std::vector<double> delay_gpu(out_steps, 0.0);
  SeriesEstimate est = ComposeSteps(t_cpu.data(), t_gpu.data(), ratios.data(),
                                    steps, static_cast<double>(n), comm,
                                    delay_cpu.data(), delay_gpu.data());
  est.delay_cpu_ns = std::move(delay_cpu);
  est.delay_gpu_ns = std::move(delay_gpu);
  return est;
}

void StepTimes(const StepCost* costs, const double* ratios, size_t steps,
               double items, double* t_cpu, double* t_gpu) {
  for (size_t i = 0; i < steps; ++i) {
    const double r = std::clamp(ratios[i], 0.0, 1.0);
    t_cpu[i] = costs[i].cpu_ns_per_item * r * items;
    t_gpu[i] = costs[i].gpu_ns_per_item * (1.0 - r) * items;
  }
}

SeriesEstimate EstimateSeries(const StepCosts& costs, uint64_t n,
                              const std::vector<double>& ratios,
                              const CommSpec& comm) {
  // Same mismatch guard as ComposePipelinedTiming: index only the prefix
  // both tables cover.
  const size_t steps = std::min(costs.size(), ratios.size());
  std::vector<double> t_cpu(steps, 0.0);
  std::vector<double> t_gpu(steps, 0.0);
  StepTimes(costs.data(), ratios.data(), steps, static_cast<double>(n),
            t_cpu.data(), t_gpu.data());
  return ComposePipelinedTiming(t_cpu, t_gpu, ratios, n, comm);
}

}  // namespace apujoin::cost
