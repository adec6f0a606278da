#include "workloads.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/status.h"

namespace perfbench {

using apujoin::coproc::Algorithm;
using apujoin::coproc::JoinReport;
using apujoin::coproc::JoinSpec;
using apujoin::coproc::PlanSpec;
using apujoin::data::Distribution;
using apujoin::data::KeySchema;
using apujoin::data::WorkloadSpec;
using apujoin::exec::HashLayout;
using apujoin::join::GroupRow;

namespace {

/// The execution spec every workload's joins share: threads backend at 4
/// worker slots, pipelined fine-grained co-processing, plan fusion on.
JoinSpec BaseSpec(Algorithm algo, HashLayout layout) {
  JoinSpec spec;
  spec.algorithm = algo;
  spec.scheme = apujoin::coproc::Scheme::kPipelined;
  spec.engine.backend = apujoin::exec::BackendKind::kThreadPool;
  spec.engine.threads = 4;
  spec.engine.layout = layout;
  spec.engine.fuse = apujoin::exec::FuseMode::kAuto;
  return spec;
}

apujoin::data::Workload Generate(uint64_t build, uint64_t probe,
                                 Distribution dist, double selectivity,
                                 KeySchema schema, uint64_t seed) {
  WorkloadSpec spec;
  spec.build_tuples = build;
  spec.probe_tuples = probe;
  spec.distribution = dist;
  spec.selectivity = selectivity;
  spec.key_schema = schema;
  spec.seed = seed;
  auto w = apujoin::data::GenerateWorkload(spec);
  APU_CHECK_OK(w.status());
  return std::move(w).value();
}

std::string CompareGroups(const std::vector<GroupRow>& got,
                          const std::vector<GroupRow>& want) {
  if (got.size() != want.size()) {
    return "group count " + std::to_string(got.size()) + " != expected " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].key != want[i].key || got[i].value != want[i].value ||
        got[i].count != want[i].count) {
      return "group row " + std::to_string(i) + " (key " +
             std::to_string(got[i].key) + ") differs from the oracle";
    }
  }
  return "";
}

/// Group rows of build ⋈ probe aggregated per key over the probe rids, for
/// the build keys in `keep`: SUM (value = sum of rids) or COUNT (value =
/// pair count). Sorted by key, like JoinReport::groups.
std::vector<GroupRow> OracleGroups(const std::unordered_set<int32_t>& keep,
                                   const apujoin::data::Relation& probe,
                                   bool sum) {
  std::unordered_map<int32_t, GroupRow> groups;
  for (uint64_t i = 0; i < probe.size(); ++i) {
    const int32_t k = probe.keys[i];
    if (keep.count(k) == 0) continue;
    GroupRow& g = groups[k];
    g.key = k;
    g.value += sum ? probe.rids[i] : 1;
    ++g.count;
  }
  std::vector<GroupRow> rows;
  rows.reserve(groups.size());
  for (const auto& kv : groups) rows.push_back(kv.second);
  std::sort(rows.begin(), rows.end(),
            [](const GroupRow& a, const GroupRow& b) { return a.key < b.key; });
  return rows;
}

uint64_t CountOf(const std::vector<GroupRow>& rows) {
  uint64_t n = 0;
  for (const GroupRow& g : rows) n += g.count;
  return n;
}

void MakeStar(QueryInputs* q, uint64_t seed) {
  q->data = Generate(256ull << 10, 2ull << 20, Distribution::kHighSkew, 1.0,
                     KeySchema::kU32, seed);
  const apujoin::data::Relation& dim = q->data.build;
  const apujoin::data::Relation& fact = q->data.probe;

  // The hot key is the most frequent fact key. The selection keeps the
  // half of the dimension (split at the median key) that holds it, so
  // every seed runs the contended hot group, not only half of them.
  std::unordered_map<int32_t, uint64_t> freq;
  for (int32_t k : fact.keys) ++freq[k];
  int32_t hot = 0;
  uint64_t hot_count = 0;
  for (const auto& [key, count] : freq) {
    if (count > hot_count) {
      hot = key;
      hot_count = count;
    }
  }
  std::vector<int32_t> sorted = dim.keys;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  apujoin::plan::Predicate pred;
  pred.column = apujoin::plan::SelectColumn::kKey;
  pred.operand = sorted[sorted.size() / 2];
  pred.op = hot >= pred.operand ? apujoin::plan::CompareOp::kGe
                                : apujoin::plan::CompareOp::kLt;

  std::unordered_set<int32_t> keep;
  for (uint64_t i = 0; i < dim.size(); ++i) {
    if (apujoin::plan::EvalPredicate(pred, dim.keys[i], dim.rids[i])) {
      keep.insert(dim.keys[i]);
    }
  }
  q->expected_groups = OracleGroups(keep, fact, /*sum=*/true);
  q->expected_matches = CountOf(q->expected_groups);
  q->has_groups = true;

  PlanSpec& plan = q->plan;
  const int d = plan.graph.AddScan(&dim);
  const int sel = plan.graph.AddSelect(d, pred);
  const int f = plan.graph.AddScan(&fact);
  const int j = plan.graph.AddHashJoin(sel, f);
  plan.graph.AddGroupBy(j, apujoin::plan::AggFn::kSum);
  plan.exec = BaseSpec(Algorithm::kSHJ, HashLayout::kOpenAddressing);
  plan.expected_matches = q->expected_matches;
  plan.skew_fraction = apujoin::data::SkewFraction(Distribution::kHighSkew);
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  if (name == "shj_probe_emit") {
    *out = WorkloadKind::kShjProbeEmit;
  } else if (name == "phj_partition_wide") {
    *out = WorkloadKind::kPhjPartitionWide;
  } else if (name == "plan_star_groupby") {
    *out = WorkloadKind::kStarGroupBy;
  } else if (name == "svc_open_loop") {
    *out = WorkloadKind::kSvcOpenLoop;
  } else {
    return false;
  }
  return true;
}

std::string QueryInputs::Check(const JoinReport& report) const {
  if (report.matches != expected_matches) {
    return "matches " + std::to_string(report.matches) + " != expected " +
           std::to_string(expected_matches);
  }
  return has_groups ? CompareGroups(report.groups, expected_groups) : "";
}

std::unique_ptr<QueryInputs> MakeAnalytic(WorkloadKind kind, uint64_t seed,
                                          bool corrupt) {
  auto q = std::make_unique<QueryInputs>();
  switch (kind) {
    case WorkloadKind::kShjProbeEmit:
      q->data = Generate(16ull << 10, 4ull << 20, Distribution::kUniform, 1.0,
                         KeySchema::kU32, seed);
      q->plan = apujoin::coproc::MakeSingleJoinPlan(
          q->data, BaseSpec(Algorithm::kSHJ, HashLayout::kChained));
      q->expected_matches = q->data.expected_matches;
      break;
    case WorkloadKind::kPhjPartitionWide:
      q->data = Generate(1ull << 20, 1ull << 20, Distribution::kUniform,
                         0.125, KeySchema::kU64, seed);
      q->plan = apujoin::coproc::MakeSingleJoinPlan(
          q->data, BaseSpec(Algorithm::kPHJ, HashLayout::kOpenAddressing));
      q->expected_matches = q->data.expected_matches;
      break;
    case WorkloadKind::kStarGroupBy:
      MakeStar(q.get(), seed);
      break;
    case WorkloadKind::kSvcOpenLoop:
      APU_CHECK(false && "svc_open_loop is not an analytic workload");
  }
  // Corrupt the oracle a check compares last: the group rows where there
  // are any, else the match count.
  if (corrupt && q->has_groups) {
    ++q->expected_groups.front().value;
  } else if (corrupt) {
    ++q->expected_matches;
  }
  return q;
}

ServiceInputs MakeService(uint64_t seed, bool corrupt) {
  ServiceInputs s;
  s.join = std::make_unique<QueryInputs>();
  QueryInputs& q = *s.join;
  q.data = Generate(1024, 4096, Distribution::kUniform, 1.0, KeySchema::kU32,
                    seed);
  q.plan = apujoin::coproc::MakeSingleJoinPlan(
      q.data, BaseSpec(Algorithm::kSHJ, HashLayout::kChained));
  q.expected_matches = q.data.expected_matches;

  s.count_plan = std::make_unique<PlanSpec>();
  PlanSpec& plan = *s.count_plan;
  const int b = plan.graph.AddScan(&q.data.build);
  const int p = plan.graph.AddScan(&q.data.probe);
  const int j = plan.graph.AddHashJoin(b, p);
  plan.graph.AddGroupBy(j, apujoin::plan::AggFn::kCount);
  plan.exec = BaseSpec(Algorithm::kSHJ, HashLayout::kChained);
  plan.expected_matches = q.data.expected_matches;

  const std::unordered_set<int32_t> keep(q.data.build.keys.begin(),
                                         q.data.build.keys.end());
  s.count_groups = OracleGroups(keep, q.data.probe, /*sum=*/false);
  APU_CHECK(CountOf(s.count_groups) == q.expected_matches);
  // The plain join tickets' match count is exercised by the analytic
  // workloads' self-test; here the plan tickets' group rows are.
  if (corrupt) ++s.count_groups.front().value;
  return s;
}

std::string ServiceInputs::CheckCount(const JoinReport& report) const {
  return CompareGroups(report.groups, count_groups);
}

}  // namespace perfbench
