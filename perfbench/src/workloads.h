// The benchmark's workloads: inputs generated from the run's seed, the plan
// each query executes, and the oracle every result is checked against.
//
// Why these four (also recorded in BENCHMARK.json):
//   shj_probe_emit      SHJ-PL, chained, u32, |R|=16K |S|=4M uniform, sel 1.
//                       The table fits one core's L2, so probe and emit
//                       dominate: every match goes through ResultWriter::Emit
//                       and the BlockAllocator.
//   phj_partition_wide  PHJ-PL, open layout, u64, |R|=|S|=1M, sel 0.125.
//                       The table is far beyond total L2: radix n1..n3, the
//                       open-layout b3 claim and wide-key compares dominate;
//                       emission is light.
//   plan_star_groupby   Select(dim.key half holding the hot key) -> HashJoin
//                       -> GroupBy SUM, SHJ, open layout, fused, |R|=256K,
//                       |S|=2M high-skew. The only workload that exercises
//                       fusion, select, p4g and a contended hot group; it
//                       bypasses the emit path.
//   svc_open_loop       JoinService, 4 quota-1 sessions, open-loop arrivals
//                       at 500 req/s: half SHJ 1Kx4K joins, half 1Kx4K
//                       join -> GroupBy COUNT plans. Measures the service
//                       and the per-query planning overhead.

#ifndef APUJOIN_PERFBENCH_WORKLOADS_H_
#define APUJOIN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coproc/pipeline_runner.h"
#include "data/generator.h"
#include "join/group_row.h"

namespace perfbench {

/// One query shape with its inputs and oracle. Plans point into `data`,
/// so a QueryInputs is never copied or moved once built.
struct QueryInputs {
  QueryInputs() = default;
  QueryInputs(const QueryInputs&) = delete;
  QueryInputs& operator=(const QueryInputs&) = delete;

  apujoin::data::Workload data;
  apujoin::coproc::PlanSpec plan;
  /// Oracle: exact match count and, for group-by plans, every group row
  /// (sorted by key).
  uint64_t expected_matches = 0;
  std::vector<apujoin::join::GroupRow> expected_groups;
  bool has_groups = false;

  uint64_t input_tuples() const {
    return data.build.size() + data.probe.size();
  }
  uint64_t input_bytes() const {
    return data.build.bytes() + data.probe.bytes();
  }

  /// Empty when `report` matches the oracle, else what differs.
  std::string Check(const apujoin::coproc::JoinReport& report) const;
};

enum class WorkloadKind { kShjProbeEmit, kPhjPartitionWide, kStarGroupBy,
                          kSvcOpenLoop };

/// Parses a --workload name; false on an unknown name.
bool ParseWorkload(const std::string& name, WorkloadKind* out);

/// Builds the analytic workload's inputs, plan and oracle from `seed`.
/// `corrupt` perturbs the oracle (the self-test of the checks).
std::unique_ptr<QueryInputs> MakeAnalytic(WorkloadKind kind, uint64_t seed,
                                          bool corrupt);

/// The service workload's two request shapes over one 1Kx4K input pair:
/// a plain SHJ join (submitted as a workload) and a join -> GroupBy COUNT
/// plan. Both share `join`'s relations.
struct ServiceInputs {
  std::unique_ptr<QueryInputs> join;
  std::unique_ptr<apujoin::coproc::PlanSpec> count_plan;
  std::vector<apujoin::join::GroupRow> count_groups;

  std::string CheckCount(const apujoin::coproc::JoinReport& report) const;
};
ServiceInputs MakeService(uint64_t seed, bool corrupt);

}  // namespace perfbench

#endif  // APUJOIN_PERFBENCH_WORKLOADS_H_
