#include "coproc/pipeline_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cost/calibration.h"
#include "cost/optimizer.h"
#include "data/key_schema.h"
#include "join/groupby_engine.h"
#include "join/multiway_engine.h"
#include "join/partitioned_hash_join.h"
#include "join/result_writer.h"
#include "join/select_engine.h"
#include "join/simple_hash_join.h"
#include "plan/fusion.h"

namespace apujoin::coproc {

using apujoin::Status;
using apujoin::StatusOr;
using join::StepDef;
using simcl::DeviceId;
using simcl::Phase;

namespace {

using Drain = std::function<alloc::AllocCounts()>;

// ---------------------------------------------------------------------------
// Ratio resolution
// ---------------------------------------------------------------------------

/// Validates a user-supplied ratio override: sizes must broadcast (1) or
/// match the series, and every value must be a finite CPU share in [0,1].
/// These used to be assert-only (compiled out under NDEBUG) or silently
/// clamped; a bad override is a caller error and must surface as one.
Status ValidateRatioOverride(const char* which,
                             const std::vector<double>& ratios,
                             size_t steps) {
  if (ratios.empty()) return Status::OK();
  if (ratios.size() != 1 && ratios.size() != steps) {
    return Status::InvalidArgument(
        std::string(which) + " ratio override has " +
        std::to_string(ratios.size()) + " entries; want 1 or " +
        std::to_string(steps));
  }
  for (size_t i = 0; i < ratios.size(); ++i) {
    const double r = ratios[i];
    if (!std::isfinite(r) || r < 0.0 || r > 1.0) {
      return Status::InvalidArgument(
          std::string(which) + " ratio override [" + std::to_string(i) +
          "] = " + std::to_string(r) + " is not a CPU share in [0,1]");
    }
  }
  return Status::OK();
}

StatusOr<std::vector<double>> ResolveRatios(
    const char* which, Scheme scheme, const cost::StepCosts& costs,
    uint64_t n, const cost::CommSpec& comm,
    const std::vector<double>& override_ratios) {
  const size_t steps = costs.size();
  APU_RETURN_IF_ERROR(ValidateRatioOverride(which, override_ratios, steps));
  if (!override_ratios.empty()) {
    if (override_ratios.size() == 1) {
      return std::vector<double>(steps, override_ratios[0]);
    }
    return override_ratios;
  }
  switch (scheme) {
    case Scheme::kCpuOnly:
      return std::vector<double>(steps, 1.0);
    case Scheme::kGpuOnly:
      return std::vector<double>(steps, 0.0);
    case Scheme::kOffload:
      return cost::OptimizeOffloading(costs, n, comm).ratios;
    case Scheme::kDataDivide:
    case Scheme::kBasicUnit:  // BasicUnit schedules dynamically; no ratios
      return cost::OptimizeDataDividing(costs, n, comm).ratios;
    case Scheme::kPipelined:
      return cost::OptimizePipelined(costs, n, comm).ratios;
  }
  return Status::Internal("unknown scheme");
}

// ---------------------------------------------------------------------------
// The stage protocol
// ---------------------------------------------------------------------------

/// One co-processed step series of a plan — a partition pass, a build, a
/// probe, a selection, an aggregation. Every operator lowers to stages, and
/// every stage goes through the same protocol: Driver::Plan calibrates it,
/// resolves its per-step ratios and prices the cost-model estimate;
/// Driver::Run moves the GPU's input share over PCI-e (discrete
/// architecture), executes the series and absorbs its step reports.
struct Stage {
  Stage(std::string label_in, Phase phase_in, std::vector<StepDef> steps_in)
      : label(std::move(label_in)),
        phase(phase_in),
        steps(std::move(steps_in)) {}

  std::string label;  ///< StepReport::phase of the stage's steps
  Phase phase;        ///< EventLog bucket of the stage's time
  std::vector<StepDef> steps;
  /// P+1 partition-pair boundaries (the PHJ join phase): the series runs
  /// pair by pair instead of once across all items. Null = one pass.
  const std::vector<uint32_t>* pair_offsets = nullptr;
  /// Width of the input tuples whose GPU share crosses PCI-e before the
  /// stage on the discrete architecture; 0 = the input is already resident.
  double input_bytes_per_item = 0.0;

  // Set by Driver::Plan.
  uint64_t n = 0;  ///< series input size the cost model sees
  cost::StepCosts costs;
  std::vector<double> ratios;
  double estimate_ns = 0.0;  ///< cost-model series time at `ratios`
  // Set by Driver::Run.
  double transfer_ns = 0.0;  ///< PCI-e input delay before the GPU starts
  double elapsed_ns = 0.0;   ///< phase time logged for the stage
};

/// Driver state shared by every operator of a plan. The operator runners
/// lower onto Stages and add their stages' estimate terms to estimated_ns
/// themselves, in the order each lowering has always summed them.
struct Driver {
  exec::Backend* backend;
  simcl::SimContext* ctx;
  const JoinSpec& spec;
  join::ResultWriter* writer = nullptr;  ///< for per-phase dropped deltas
  JoinReport report;
  cost::CommSpec comm;
  double estimated_ns = 0.0;

  Driver(exec::Backend* b, const JoinSpec& s)
      : backend(b), ctx(b->context()), spec(s) {
    // U32 tuple width by default; the join runners override it from the
    // operator's key schema (data::TupleBytes) before resolving ratios.
    comm.bytes_per_item = 8.0;
    comm.bandwidth_gbps = ctx->memory().spec().total_bandwidth_gbps;
  }

  bool real_execution() const {
    return backend->kind() != exec::BackendKind::kSim;
  }

  /// Plans `st` over `n` input items. Calibration is analytic, overlaid
  /// with measured unit costs from previous runs when the caller supplied
  /// a table — the feedback loop that lets the ratio optimizers converge
  /// from analytic guesses to hardware-true costs over repeated joins. A
  /// valid `override_ratios` wins over the scheme's optimizer.
  Status Plan(Stage* st, const char* which, const cost::WorkloadStats& stats,
              uint64_t n, const std::vector<double>& override_ratios) {
    st->n = n;
    st->costs = cost::CalibrateSeries(*ctx, st->steps, stats);
    // Cross-session measurements first, the session's own on top: the
    // session overrides the pool wherever it has run the step itself.
    if (spec.shared_costs != nullptr) {
      st->costs = spec.shared_costs->Refine(st->costs);
    }
    if (spec.measured_costs != nullptr) {
      st->costs = spec.measured_costs->Refine(st->costs);
    }
    auto ratios = ResolveRatios(which, spec.scheme, st->costs, n, comm,
                                override_ratios);
    if (!ratios.ok()) return ratios.status();
    st->ratios = std::move(*ratios);
    st->estimate_ns =
        cost::EstimateSeries(st->costs, n, st->ratios, comm).elapsed_ns;
    return Status::OK();
  }

  /// Runs planned stages under the spec's scheme. One stage runs as one
  /// series — pair-blocked over its pair_offsets when set, chunk-scheduled
  /// under BasicUnit. Several stages run pair-blocked together: partition
  /// pair p runs every stage before pair p+1 starts (Algorithm 2 applies
  /// SHJ to each pair in turn, so a pair's table stays L2-resident across
  /// build AND probe — the fine-grained cache reuse of Table 3). Result
  /// pairs dropped meanwhile are charged to the last absorbed step, the
  /// only one that emits.
  void Run(const std::vector<Stage*>& stages, const Drain& drain) {
    const uint64_t dropped0 = writer != nullptr ? writer->dropped() : 0;
    for (Stage* st : stages) {
      // The GPU's input share crosses PCI-e first (0 on the coupled
      // architecture and for resident inputs).
      st->transfer_ns = ctx->TransferToDevice(
          (1.0 - st->ratios.front()) * static_cast<double>(st->n) *
          st->input_bytes_per_item);
    }
    const std::vector<SeriesResult> results = Execute(stages, drain);
    for (size_t i = 0; i < stages.size(); ++i) {
      Stage* st = stages[i];
      const SeriesResult& res = results[i];
      st->elapsed_ns = res.elapsed_ns;
      if (st->transfer_ns > 0.0) {
        // The modeled PCI-e transfer overlaps the CPU lane on the simulated
        // machine; under real execution the lanes ran sequentially, so the
        // (still modeled) transfer simply serializes in front.
        st->elapsed_ns =
            real_execution()
                ? res.elapsed_ns + st->transfer_ns
                : std::max(res.cpu_ns, st->transfer_ns + res.gpu_ns) +
                      res.comm_ns;
      }
      ctx->log().Add(st->phase, st->elapsed_ns);
      AbsorbStepReports(st->label, res, st->costs);
    }
    if (writer != nullptr && !report.steps.empty()) {
      report.steps.back().dropped += writer->dropped() - dropped0;
    }
  }

  /// Plan, then Run, for a stage that runs on its own.
  Status PlanAndRun(Stage* st, const char* which,
                    const cost::WorkloadStats& stats, uint64_t n,
                    const std::vector<double>& override_ratios,
                    const Drain& drain) {
    APU_RETURN_IF_ERROR(Plan(st, which, stats, n, override_ratios));
    Run({st}, drain);
    return Status::OK();
  }

  std::vector<SeriesResult> Execute(const std::vector<Stage*>& stages,
                                    const Drain& drain) {
    Stage& first = *stages.front();
    if (spec.scheme == Scheme::kBasicUnit) {
      BasicUnitOptions bu;
      const uint64_t n = first.steps.front().items;
      bu.cpu_chunk = spec.bu_cpu_chunk != 0
                         ? spec.bu_cpu_chunk
                         : std::max<uint64_t>(8192, n / 256);
      bu.gpu_chunk =
          spec.bu_gpu_chunk != 0 ? spec.bu_gpu_chunk : bu.cpu_chunk * 4;
      bu.drain_alloc = drain;
      double eff_ratio = 0.0;
      SeriesResult res =
          RunSeriesBasicUnit(backend, first.steps, bu, &eff_ratio);
      // Report the effective (scheduled) ratio on every step.
      for (auto& s : res.steps) {
        const double tot = static_cast<double>(s.stats.items[0]) +
                           static_cast<double>(s.stats.items[1]);
        s.ratio = tot > 0.0 ? static_cast<double>(s.stats.items[0]) / tot
                            : eff_ratio;
      }
      return {std::move(res)};
    }
    SeriesOptions opts;
    opts.drain_alloc = drain;
    if (first.pair_offsets == nullptr) {
      opts.ratios = first.ratios;
      return {RunSeries(backend, first.steps, opts)};
    }
    std::vector<PairSeriesGroup> groups(stages.size());
    for (size_t i = 0; i < stages.size(); ++i) {
      groups[i].steps = &stages[i]->steps;
      groups[i].ratios = stages[i]->ratios;
      groups[i].offsets = stages[i]->pair_offsets;
    }
    RunSeriesPairBlockedGroups(backend, groups, opts);
    std::vector<SeriesResult> results;
    for (PairSeriesGroup& g : groups) results.push_back(std::move(g.result));
    return results;
  }

  void AbsorbStepReports(const std::string& phase_name,
                         const SeriesResult& res,
                         const cost::StepCosts& costs) {
    report.lock_ns += res.lock_ns;
    for (size_t i = 0; i < res.steps.size(); ++i) {
      StepReport sr;
      sr.phase = phase_name;
      sr.name = res.steps[i].name;
      sr.ratio = res.steps[i].ratio;
      sr.cpu_ns = res.steps[i].stats.time[0].TotalNs();
      sr.gpu_ns = res.steps[i].stats.time[1].TotalNs();
      sr.cpu_modeled_ns = res.steps[i].stats.time[0].ModeledNs();
      sr.gpu_modeled_ns = res.steps[i].stats.time[1].ModeledNs();
      sr.cpu_items = res.steps[i].stats.items[0];
      sr.gpu_items = res.steps[i].stats.items[1];
      sr.lock_ns = res.steps[i].stats.LockNs();
      sr.gpu_divergence = res.steps[i].stats.gpu_divergence;
      if (i < costs.size()) {
        sr.unit_cpu_ns = costs[i].cpu_ns_per_item;
        sr.unit_gpu_ns = costs[i].gpu_ns_per_item;
      }
      report.steps.push_back(std::move(sr));
    }
  }

  void AddOperator(std::string path, plan::NodeKind kind, double elapsed_ns,
                   uint64_t input_rows, uint64_t output_rows,
                   bool fused = false) {
    report.operators.push_back(OperatorReport{std::move(path),
                                              plan::NodeKindName(kind),
                                              elapsed_ns, input_rows,
                                              output_rows, fused});
  }

  /// Merges separate per-device tables and returns the merge time: wall
  /// clock under real execution, the analytic per-node cost otherwise.
  template <typename Engine>
  double TimeMerge(Engine* engine, double table_bytes) {
    if (real_execution()) {
      const auto t0 = std::chrono::steady_clock::now();
      engine->MergeSeparateTables();
      return static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    const auto [keys, rids] = engine->MergeSeparateTables();
    return MergeCostNs(*ctx, keys + rids, table_bytes);
  }

  /// Per-node merge cost (separate tables): one dependent random access
  /// into the destination table plus the insertion atomic.
  static double MergeCostNs(const simcl::SimContext& ctx, uint64_t nodes,
                            double table_bytes) {
    simcl::StepProfile p;
    p.instr_per_unit = 20.0;
    p.rand_accesses_per_unit = 1.0;
    p.rand_working_set_bytes = table_bytes;
    p.dependent_accesses = true;
    p.global_atomics_per_unit = 1.0;
    p.atomic_addresses = table_bytes / 8.0;
    return simcl::ComputeDeviceTime(ctx.device(DeviceId::kCpu), ctx.memory(),
                                    p, nodes, nodes,
                                    static_cast<double>(nodes))
        .ModeledNs();
  }
};

/// "plan/<kind>[<index>]" — the path prefix the lowered operators report
/// under (matches the role paths plan::Graph::Validate uses).
std::string NodePath(const plan::Graph& g, int idx) {
  return std::string("plan/") + plan::NodeKindName(g.nodes[idx].kind) + "[" +
         std::to_string(idx) + "]";
}

alloc::AllocCounts NoAlloc() { return alloc::AllocCounts{}; }

/// The per-step allocator drain of a join's series: its result writer plus
/// every node pool its hash tables allocate from.
Drain JoinDrain(join::ResultWriter& writer,
                std::vector<join::NodePools*> pools) {
  return [&writer, pools = std::move(pools)]() {
    alloc::AllocCounts c = writer.TakeCounts();
    for (join::NodePools* p : pools) c += p->TakeCounts();
    return c;
  };
}

// ---------------------------------------------------------------------------
// Operator runners. Each lowers its node onto stages and appends its step
// reports, phase times, operator entry and estimate terms to the Driver.
// ---------------------------------------------------------------------------

/// A join operator's inputs. `build_filter`/`probe_filter` (null = none)
/// are fused Select selection vectors — SHJ kernels skip dead lanes
/// positionally, PHJ pushes them into pass 0 of the radix partitioners.
/// `fused_agg` (null = emit pairs) swaps the emitting probe step for the
/// fused probe+aggregate step p4g, which streams matches into the group-by
/// accumulators. With all three null the lowering is the unfused flow
/// bit-for-bit.
struct JoinInputs {
  const data::Relation& build;
  const data::Relation& probe;
  join::ResultWriter& writer;
  const uint8_t* build_filter;
  const uint8_t* probe_filter;
  uint64_t build_survivors;
  join::GroupByEngine* fused_agg;
};

/// SHJ (Algorithm 1) and PHJ (Algorithm 2) as one lowering: PHJ is radix
/// partition passes followed by SHJ's own build → merge → probe flow over
/// the partition pairs. The build and probe are planned together; then
/// either both run pair-blocked (PHJ with a shared table), or the build
/// runs, separate per-device tables merge (the GPU's partial table
/// crossing PCI-e first on the discrete architecture), the probe runs, and
/// the GPU's share of the result pairs crosses back.
template <class Engine>
Status RunHashJoin(Driver& drv, const JoinInputs& in,
                   cost::WorkloadStats stats) {
  constexpr bool kPhj = std::is_same_v<Engine, join::PhjEngine>;
  simcl::SimContext* ctx = drv.ctx;
  const JoinSpec& spec = drv.spec;
  // Input tuples move at their schema's width (key + rid: 8 B for U32,
  // 12 B for wide pairs); the comm spec the ratio optimizers see prices
  // inter-device traffic the same way. Result pairs stay 8 B — they are
  // (build rid, probe rid) regardless of key schema.
  const double tuple_bytes = data::TupleBytes(in.build.key_schema);
  drv.comm.bytes_per_item = tuple_bytes;
  // Live build rows the engine will actually insert — the survivor count
  // when a fused select filters the build side. Sizing hash tables, radix
  // plans, and the cost model from it keeps the fused data structures
  // identical to what the unfused plan builds from the materialized copy.
  const uint64_t nb_live =
      in.build_filter != nullptr ? in.build_survivors : in.build.size();

  Engine engine(ctx, &in.build, &in.probe, spec.engine);
  engine.set_build_cardinality(nb_live);
  APU_RETURN_IF_ERROR(engine.Prepare());
  // PHJ runs fused selections inside pass 0 of the partitioners; every
  // later pass and the whole join phase see only the compacted survivors.
  engine.set_build_filter(in.build_filter);
  engine.set_probe_filter(in.probe_filter);
  // Chained bucket count, or total key slots under the open layout — the
  // calibration occupancy alpha divides distinct keys by this.
  stats.buckets = static_cast<double>(engine.CostModelBuckets());
  stats.distinct_keys = static_cast<double>(nb_live);

  const std::vector<uint32_t>* build_pairs = nullptr;
  const std::vector<uint32_t>* probe_pairs = nullptr;
  if constexpr (kPhj) {
    stats.distinct_keys /= static_cast<double>(engine.num_partitions());
    // ---- partition passes (R then S) ----
    for (join::RadixPartitioner* part :
         {engine.build_partitioner(), engine.probe_partitioner()}) {
      const bool r_side = part == engine.build_partitioner();
      const uint64_t n = r_side ? stats.build_tuples : stats.probe_tuples;
      const Drain drain = [part]() { return part->TakeCounts(); };
      for (int pass = 0; pass < part->passes(); ++pass) {
        part->BeginPass(pass);
        Stage st(std::string("partition-") + (r_side ? "R" : "S") + "." +
                     std::to_string(pass),
                 Phase::kPartition, part->PassSteps(pass));
        if (pass == 0) st.input_bytes_per_item = tuple_bytes;
        APU_RETURN_IF_ERROR(drv.PlanAndRun(&st, "partition", stats, n,
                                           spec.partition_ratios, drain));
        if (r_side && pass == 0) drv.report.partition_ratios = st.ratios;
        drv.estimated_ns += st.estimate_ns + st.transfer_ns;
        part->EndPass(pass);
      }
    }
    APU_RETURN_IF_ERROR(engine.PrepareJoinPhase());
    build_pairs = &engine.build_partitioner()->offsets();
    probe_pairs = &engine.probe_partitioner()->offsets();
  }

  // ---- build → merge → probe ----
  Stage build("build", Phase::kBuild, engine.BuildSteps());
  Stage probe("probe", Phase::kProbe,
              in.fused_agg != nullptr ? engine.ProbeStepsFused(in.fused_agg)
                                      : engine.ProbeSteps(&in.writer));
  build.pair_offsets = build_pairs;
  probe.pair_offsets = probe_pairs;
  build.input_bytes_per_item = tuple_bytes;
  probe.input_bytes_per_item = tuple_bytes;
  APU_RETURN_IF_ERROR(drv.Plan(&build, "build", stats, stats.build_tuples,
                               spec.build_ratios));
  APU_RETURN_IF_ERROR(drv.Plan(&probe, "probe", stats, stats.probe_tuples,
                               spec.probe_ratios));
  drv.report.build_ratios = build.ratios;
  drv.report.probe_ratios = probe.ratios;
  const Drain drain = JoinDrain(in.writer, {&engine.pools()});
  double node_transfer_ns = 0.0;
  double merge_ns = 0.0;
  if (kPhj && spec.engine.shared_table &&
      spec.scheme != Scheme::kBasicUnit) {
    drv.Run({&build, &probe}, drain);
  } else {
    // Separate tables (and BasicUnit) keep distinct build/probe phases
    // with an explicit merge in between.
    drv.Run({&build}, drain);
    if (!spec.engine.shared_table) {
      // The GPU's partial table comes back over PCI-e before merging.
      const double gpu_nodes = (1.0 - build.ratios[0]) *
                               static_cast<double>(stats.build_tuples);
      node_transfer_ns = ctx->TransferToDevice(gpu_nodes * 20.0);
      if constexpr (kPhj) {
        merge_ns = drv.TimeMerge(&engine, engine.PartitionWorkingSetBytes());
      } else {
        merge_ns = drv.TimeMerge(&engine, engine.TableWorkingSetBytes());
      }
      ctx->log().Add(Phase::kMerge, merge_ns);
    }
    drv.Run({&probe}, drain);
  }
  const double result_transfer_ns = ctx->TransferToDevice(
      (1.0 - probe.ratios[0]) * static_cast<double>(in.writer.count()) *
      8.0);

  // Cost-model terms, each algorithm in its own (pinned) summation order:
  // SHJ charges each series with its input transfer, PHJ charges the
  // transfers and the merge first and both series estimates last.
  double& est = drv.estimated_ns;
  est += kPhj ? build.transfer_ns : build.estimate_ns + build.transfer_ns;
  est += node_transfer_ns;
  est += merge_ns;
  est += kPhj ? probe.transfer_ns : probe.estimate_ns + probe.transfer_ns;
  est += result_transfer_ns;
  if (kPhj) est += build.estimate_ns + probe.estimate_ns;
  drv.report.overflowed = engine.overflowed();
  return Status::OK();
}

/// The hash-join node: SHJ or PHJ per the spec. `expected_matches` and
/// `skew_fraction` play the roles the workload's fields played before
/// plans existed.
Status RunHashJoinOp(Driver& drv, const JoinInputs& in,
                     uint64_t expected_matches, double skew_fraction,
                     const std::string& op_path) {
  const double elapsed0 = drv.ctx->log().TotalNs();
  const uint64_t count0 = in.writer.count();
  cost::WorkloadStats stats;
  stats.build_tuples = in.build.size();
  stats.probe_tuples = in.probe.size();
  stats.match_rate = static_cast<double>(expected_matches) /
                     static_cast<double>(in.probe.size());
  stats.skew_fraction = skew_fraction;
  APU_RETURN_IF_ERROR(drv.spec.algorithm == Algorithm::kSHJ
                          ? RunHashJoin<join::ShjEngine>(drv, in, stats)
                          : RunHashJoin<join::PhjEngine>(drv, in, stats));
  drv.AddOperator(op_path, plan::NodeKind::kHashJoin,
                  drv.ctx->log().TotalNs() - elapsed0,
                  in.build.size() + in.probe.size(),
                  in.fused_agg != nullptr ? in.fused_agg->total_count()
                                          : in.writer.count() - count0,
                  in.fused_agg != nullptr);
  return Status::OK();
}

/// The series of a unary operator (select f1/f2, group-by g1) over its
/// steps' items; an empty input runs nothing. Returns the phase time.
StatusOr<double> RunUnaryStage(Driver& drv, const char* which,
                               const std::string& op_path, Phase phase,
                               std::vector<StepDef> steps) {
  const uint64_t n = steps.front().items;
  if (n == 0) return 0.0;
  cost::WorkloadStats stats;
  stats.build_tuples = n;
  stats.probe_tuples = n;
  Stage st(op_path, phase, std::move(steps));
  APU_RETURN_IF_ERROR(drv.PlanAndRun(&st, which, stats, n, {}, NoAlloc));
  drv.estimated_ns += st.estimate_ns;
  return st.elapsed_ns;
}

/// Selection: runs the f1/f2 series and materializes the filtered relation
/// (eng.output()). Fused into a Select→HashJoin edge it runs only the
/// flag-only f1 series and leaves the selection vector (eng.flags()) for
/// the join kernels to consume positionally — no compaction pass, no
/// filtered-relation copy. The caller keeps `eng` alive for the rest of
/// the plan.
Status RunSelectOp(Driver& drv, join::SelectEngine& eng, bool fused,
                   const std::string& op_path) {
  APU_RETURN_IF_ERROR(fused ? eng.PrepareFused() : eng.Prepare());
  std::vector<StepDef> steps = fused ? eng.FusedSteps() : eng.Steps();
  const uint64_t n = steps.front().items;
  auto elapsed = RunUnaryStage(drv, "select", op_path, Phase::kSelect,
                               std::move(steps));
  if (!elapsed.ok()) return elapsed.status();
  if (!fused) eng.Finish();
  drv.AddOperator(op_path, plan::NodeKind::kSelect, *elapsed, n,
                  eng.survivors(), fused);
  return Status::OK();
}

/// Multi-way probe chain: one shared-table build per relation, then the
/// m1..m4 chain series over the probe.
Status RunMultiwayOp(Driver& drv,
                     const std::vector<const data::Relation*>& inputs,
                     join::ResultWriter& writer, uint64_t expected_matches,
                     double skew_fraction, const std::string& op_path) {
  simcl::SimContext* ctx = drv.ctx;
  const JoinSpec& spec = drv.spec;
  std::vector<const data::Relation*> builds(inputs.begin(), inputs.end() - 1);
  const data::Relation& probe = *inputs.back();
  const uint64_t np = probe.size();
  // Wide chains move 12 B tuples; the comm spec prices them accordingly
  // (coupled-only, so this only reaches the ratio optimizers' estimates).
  drv.comm.bytes_per_item = data::TupleBytes(probe.key_schema);
  const double elapsed0 = ctx->log().TotalNs();

  join::MultiwayEngine engine(ctx, builds, &probe, spec.engine);
  APU_RETURN_IF_ERROR(engine.Prepare());

  cost::WorkloadStats stats;
  stats.probe_tuples = np;
  stats.match_rate = static_cast<double>(expected_matches) /
                     static_cast<double>(np);
  stats.skew_fraction = skew_fraction;
  uint64_t nb_total = 0;
  double buckets_total = 0.0;
  std::vector<join::NodePools*> pools;
  // ---- per-table builds ----
  for (int k = 0; k < engine.num_tables(); ++k) {
    join::ShjEngine* beng = engine.build_engine(k);
    const uint64_t nbk = builds[k]->size();
    nb_total += nbk;
    buckets_total += static_cast<double>(beng->CostModelBuckets());
    pools.push_back(&beng->pools());
    stats.build_tuples = nbk;
    stats.buckets = static_cast<double>(beng->CostModelBuckets());
    stats.distinct_keys = static_cast<double>(nbk);
    Stage st("build[" + std::to_string(k) + "]", Phase::kBuild,
             beng->BuildSteps());
    APU_RETURN_IF_ERROR(drv.PlanAndRun(&st, "build", stats, nbk,
                                       spec.build_ratios,
                                       JoinDrain(writer, {&beng->pools()})));
    if (k == 0) drv.report.build_ratios = st.ratios;
    drv.estimated_ns += st.estimate_ns;
  }

  // ---- probe chain ----
  stats.build_tuples = nb_total;
  stats.buckets = buckets_total;
  stats.distinct_keys = static_cast<double>(nb_total);
  Stage st("probe-chain", Phase::kProbe, engine.ChainSteps(&writer));
  APU_RETURN_IF_ERROR(drv.PlanAndRun(&st, "probe", stats, np,
                                     spec.probe_ratios,
                                     JoinDrain(writer, std::move(pools))));
  drv.report.probe_ratios = st.ratios;
  drv.estimated_ns += st.estimate_ns;
  drv.report.overflowed = engine.overflowed();

  drv.AddOperator(op_path, plan::NodeKind::kMultiwayJoin,
                  ctx->log().TotalNs() - elapsed0, nb_total + np,
                  writer.count());
  return Status::OK();
}

/// Group-by: aggregates the join's writer through the g1 series into
/// report.groups.
Status RunGroupByOp(Driver& drv, const join::ResultWriter& writer,
                    plan::AggFn agg, const std::string& op_path) {
  join::GroupByEngine eng(&writer, agg);
  eng.set_prefetch_dist(drv.spec.engine.prefetch_dist);
  APU_RETURN_IF_ERROR(eng.Prepare());
  auto elapsed = RunUnaryStage(drv, "group-by", op_path, Phase::kGroupBy,
                               eng.Steps());
  if (!elapsed.ok()) return elapsed.status();
  drv.report.groups = eng.Materialize();
  drv.AddOperator(op_path, plan::NodeKind::kGroupBy, *elapsed,
                  writer.count(), drv.report.groups.size());
  return Status::OK();
}

}  // namespace

PlanSpec MakeSingleJoinPlan(const data::Workload& workload,
                            const JoinSpec& spec) {
  PlanSpec plan;
  const int b = plan.graph.AddScan(&workload.build);
  const int s = plan.graph.AddScan(&workload.probe);
  plan.graph.AddHashJoin(b, s);
  plan.exec = spec;
  plan.expected_matches = workload.expected_matches;
  plan.skew_fraction = data::SkewFraction(workload.spec.distribution);
  return plan;
}

StatusOr<JoinReport> ExecutePlan(exec::Backend* backend,
                                 const PlanSpec& plan) {
  simcl::SimContext* ctx = backend->context();
  APU_RETURN_IF_ERROR(plan.graph.Validate());
  JoinSpec spec = plan.exec;
  APU_RETURN_IF_ERROR(spec.engine.Validate());
  if (ctx->discrete()) {
    if (spec.scheme == Scheme::kPipelined) {
      return Status::InvalidArgument(
          "fine-grained PL is impractical on the discrete architecture "
          "(Section 5.1); run it on the coupled context");
    }
    // Separate device memories: a shared hash table does not exist.
    spec.engine.shared_table = false;
  }
  if (backend->kind() != exec::BackendKind::kSim && ctx->cache() != nullptr) {
    return Status::InvalidArgument(
        "cache tracing (trace_cache) requires the sim backend: the "
        "CacheSim is not thread-safe under concurrent kernels");
  }
  // Skewed probes concentrate on hot keys, which stay cache-resident.
  if (spec.engine.locality_boost == 0.0) {
    spec.engine.locality_boost = plan.skew_fraction;
  }

  const plan::Graph& g = plan.graph;
  const plan::Node& root = g.nodes[g.root];
  const bool has_groupby = root.kind == plan::NodeKind::kGroupBy;
  const int join_idx = has_groupby ? root.children[0] : g.root;
  const plan::Node& join_node = g.nodes[join_idx];
  if (join_node.kind == plan::NodeKind::kMultiwayJoin && ctx->discrete()) {
    return Status::InvalidArgument(
        NodePath(g, join_idx) +
        ": multiway probe chains require the coupled architecture (every "
        "build table is shared by both devices; there is no merge/transfer "
        "formulation)");
  }

  Driver drv(backend, spec);
  ctx->log().Clear();
  backend->DrainEvents();  // discard records of previous joins
  const uint64_t cache_acc0 = ctx->cache() ? ctx->cache()->accesses() : 0;
  const uint64_t cache_miss0 = ctx->cache() ? ctx->cache()->misses() : 0;

  // ---- fusion decision ----
  // The structural pass marks fusible edges; the runner demotes what the
  // execution spec rules out. Discrete co-processing keeps every boundary
  // materialized: its phase transfers are sized from materialized
  // intermediates, and the shared aggregate table a fused probe streams
  // into does not exist across two memories.
  const plan::FusionPlan fusion = plan::Fuse(
      g, ctx->discrete() ? exec::FuseMode::kOff : spec.engine.fuse);

  // ---- resolve the join's inputs (scans and selections) ----
  std::vector<std::unique_ptr<join::SelectEngine>> select_engines;
  std::function<StatusOr<const data::Relation*>(int)> resolve =
      [&](int idx) -> StatusOr<const data::Relation*> {
    const plan::Node& n = g.nodes[idx];
    if (n.kind == plan::NodeKind::kScan) return n.relation;
    // Validation guarantees the only other relation producer is a Select
    // with one relation-producing child.
    auto in = resolve(n.children[0]);
    if (!in.ok()) return in.status();
    select_engines.push_back(std::make_unique<join::SelectEngine>(
        *in, n.predicate, spec.engine.prefetch_dist));
    APU_RETURN_IF_ERROR(RunSelectOp(drv, *select_engines.back(),
                                    /*fused=*/false, NodePath(g, idx)));
    return &select_engines.back()->output();
  };
  std::vector<const data::Relation*> inputs(join_node.children.size());
  // Fused Select children: the join consumes the unfiltered input plus a
  // positional selection vector instead of a filtered copy.
  std::vector<const uint8_t*> filters(join_node.children.size(), nullptr);
  std::vector<uint64_t> filter_survivors(join_node.children.size(), 0);
  for (size_t c = 0; c < join_node.children.size(); ++c) {
    const int child = join_node.children[c];
    if (g.nodes[child].kind == plan::NodeKind::kSelect &&
        fusion.fused[child] != 0) {
      auto in = resolve(g.nodes[child].children[0]);
      if (!in.ok()) return in.status();
      select_engines.push_back(std::make_unique<join::SelectEngine>(
          *in, g.nodes[child].predicate, spec.engine.prefetch_dist));
      APU_RETURN_IF_ERROR(RunSelectOp(drv, *select_engines.back(),
                                      /*fused=*/true, NodePath(g, child)));
      inputs[c] = *in;
      filters[c] = select_engines.back()->flags();
      filter_survivors[c] = select_engines.back()->survivors();
      continue;
    }
    auto rel = resolve(child);
    if (!rel.ok()) return rel.status();
    inputs[c] = *rel;
  }

  // A selection that filters every tuple out legitimately empties a join
  // input: the join result is empty, not an error. The engines keep
  // rejecting empty *base* relations (an empty scan is a caller bug), so
  // the series is skipped rather than run on zero tuples. A fused
  // selection with zero survivors takes the same shortcut — the count was
  // taken from the flag series instead of a copy.
  bool select_emptied = false;
  for (size_t c = 0; c < join_node.children.size(); ++c) {
    select_emptied |=
        inputs[c]->empty() &&
        g.nodes[join_node.children[c]].kind == plan::NodeKind::kSelect;
    select_emptied |= filters[c] != nullptr && filter_survivors[c] == 0;
  }

  // ---- fused HashJoin→GroupBy? ----
  bool groupby_fused =
      has_groupby && fusion.fused[join_idx] != 0 && !select_emptied;
  if (groupby_fused) {
    // The aggregate table uses INT32_MIN as its empty-slot sentinel; a key
    // carrying it could never claim a slot. Surviving keys are a subset of
    // the build keys, so one build-side scan is a conservative guard.
    for (const int32_t k : inputs[0]->keys) {
      if (k == std::numeric_limits<int32_t>::min()) {
        groupby_fused = false;
        break;
      }
    }
  }

  // ---- result buffer ----
  uint64_t expected = plan.expected_matches;
  if (expected == PlanSpec::kAutoMatches) expected = inputs.back()->size();
  // Expected matches + slack for stranded block remainders. A fused
  // group-by never materializes pairs — its writer only backstops the
  // allocator-drain plumbing, so the big buffer is skipped entirely.
  uint64_t result_cap = spec.result_capacity;
  if (result_cap == 0) {
    const uint64_t block_elems =
        std::max<uint64_t>(1, spec.engine.block_bytes / 8);
    result_cap = groupby_fused ? 64 : expected + 2048 * block_elems + 4096;
  }
  join::ResultWriter writer(result_cap, spec.engine.allocator,
                            spec.engine.block_bytes);
  if (has_groupby && !groupby_fused) writer.CaptureKeys();
  drv.writer = &writer;

  std::unique_ptr<join::GroupByEngine> fused_agg;
  if (groupby_fused) {
    fused_agg = std::make_unique<join::GroupByEngine>(root.agg);
    const uint64_t nb_eff =
        filters[0] != nullptr ? filter_survivors[0] : inputs[0]->size();
    const uint64_t np_eff =
        filters[1] != nullptr ? filter_survivors[1] : inputs[1]->size();
    // Distinct group keys are bounded by the smaller side's survivors.
    APU_RETURN_IF_ERROR(fused_agg->PrepareFused(std::min(nb_eff, np_eff)));
  }

  // ---- the join ----
  if (select_emptied) {
    uint64_t input_rows = 0;
    for (const data::Relation* r : inputs) input_rows += r->size();
    drv.AddOperator(NodePath(g, join_idx), join_node.kind, 0.0, input_rows,
                    0);
  } else if (join_node.kind == plan::NodeKind::kHashJoin) {
    const JoinInputs in{*inputs[0],  *inputs[1],         writer,
                        filters[0],  filters[1],         filter_survivors[0],
                        fused_agg.get()};
    APU_RETURN_IF_ERROR(RunHashJoinOp(drv, in, expected, plan.skew_fraction,
                                      NodePath(g, join_idx)));
  } else {
    APU_RETURN_IF_ERROR(RunMultiwayOp(drv, inputs, writer, expected,
                                      plan.skew_fraction,
                                      NodePath(g, join_idx)));
  }

  // ---- the aggregate ----
  if (has_groupby && fused_agg != nullptr) {
    // The aggregation ran inside the probe series (p4g). Attribute the
    // group-by's share of that fused step: what a standalone g1 pass over
    // the same matches would have cost, capped by the fused step's own
    // measured time. The join's operator entry gives that share up, so the
    // per-operator times still sum to the plan total.
    double p4g_ns = 0.0;
    for (const StepReport& s : drv.report.steps) {
      if (s.name == "p4g") p4g_ns += std::max(s.cpu_ns, s.gpu_ns);
    }
    const uint64_t matched = fused_agg->total_count();
    const simcl::StepProfile gp =
        join::GroupAggProfile(fused_agg->TableWorkingSetBytes());
    const double g1_ns =
        simcl::ComputeDeviceTime(ctx->device(DeviceId::kCpu), ctx->memory(),
                                 gp, matched, matched,
                                 static_cast<double>(matched))
            .ModeledNs();
    const double share = std::min(g1_ns, p4g_ns);
    OperatorReport& jop = drv.report.operators.back();
    jop.elapsed_ns = std::max(0.0, jop.elapsed_ns - share);
    drv.report.groups = fused_agg->Materialize();
    drv.AddOperator(NodePath(g, g.root), plan::NodeKind::kGroupBy, share,
                    matched, drv.report.groups.size(), /*fused=*/true);
  } else if (has_groupby) {
    APU_RETURN_IF_ERROR(RunGroupByOp(drv, writer, root.agg,
                                     NodePath(g, g.root)));
  }

  drv.report.matches =
      fused_agg != nullptr ? fused_agg->total_count() : writer.count();
  drv.report.dropped_matches = writer.dropped();
  drv.report.overflowed |= writer.dropped() > 0;
  drv.report.breakdown = ctx->log();
  drv.report.elapsed_ns = ctx->log().TotalNs();
  drv.report.estimated_ns = drv.estimated_ns;
  if (ctx->cache() != nullptr) {
    drv.report.l2_accesses = ctx->cache()->accesses() - cache_acc0;
    drv.report.l2_misses = ctx->cache()->misses() - cache_miss0;
  }
  if (drv.report.overflowed && !spec.tolerate_overflow) {
    // A truncated result is data loss; callers used to have to notice the
    // `overflowed` flag themselves (and often didn't).
    if (writer.dropped() > 0) {
      return Status::ResourceExhausted(
          "join result buffer exhausted: " +
          std::to_string(writer.dropped()) + " of " +
          std::to_string(writer.count() + writer.dropped()) +
          " matches dropped (capacity " + std::to_string(writer.capacity()) +
          "; raise JoinSpec::result_capacity or set tolerate_overflow)");
    }
    return Status::ResourceExhausted(
        "hash-table node pool exhausted during the build; rows are missing "
        "from the table (set JoinSpec::tolerate_overflow to accept a "
        "truncated result)");
  }
  return drv.report;
}

StatusOr<JoinReport> ExecutePlan(simcl::SimContext* ctx,
                                 const PlanSpec& plan) {
  const std::unique_ptr<exec::Backend> backend =
      exec::MakeBackend(plan.exec.engine, ctx);
  return ExecutePlan(backend.get(), plan);
}

}  // namespace apujoin::coproc
