// Key-schema parity: (1) the U32 path is BIT-IDENTICAL to the lowering that
// predates the typed-key abstraction — eight representative plans (single
// joins across algorithm x layout, fused select->join->group-by, multiway
// chains) are pinned to hexfloat-exact virtual-time fingerprints recorded
// before KeySchema existed, so any per-schema dispatch leaking into the
// narrow kernels (an extra instruction, a changed profile constant, a
// different RNG draw) fails loudly; (2) the kernel variants those eight do
// not reach — U64 keys, separate per-device tables, divergence grouping and
// fused select->join->group-by on the open layout, each per algorithm — are
// pinned the same way to fingerprints recorded before the SHJ/PHJ kernels
// were merged into one template family; (3) the driver lowerings no other
// pin reaches — data dividing on the emulated discrete architecture (PCI-e
// transfers, separate-table merge, result transfer back), offloading,
// BasicUnit, and the unfused select->join->group-by — are pinned to
// fingerprints recorded before the driver's phases were collapsed onto one
// stage protocol; and (4) every wide schema (U64, Composite, DictString)
// reproduces the reference oracle's exact match count across both
// algorithms and both hash-table layouts.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "coproc/pipeline_runner.h"
#include "data/generator.h"
#include "exec/backend_kind.h"
#include "join/reference_join.h"
#include "plan/plan.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::coproc {
namespace {

using exec::HashLayout;

data::Workload MustWorkload(uint64_t seed,
                            data::KeySchema schema = data::KeySchema::kU32,
                            double selectivity = 1.0) {
  data::WorkloadSpec spec;
  spec.build_tuples = 1 << 12;
  spec.probe_tuples = 1 << 14;
  spec.selectivity = selectivity;
  spec.seed = seed;
  spec.key_schema = schema;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(w).value();
}

JoinSpec MakeSpec(Algorithm algo, HashLayout layout) {
  JoinSpec spec;
  spec.algorithm = algo;
  spec.scheme = Scheme::kPipelined;
  spec.engine.layout = layout;
  return spec;
}

std::string AlgoLayoutName(const std::string& prefix, Algorithm algo,
                           HashLayout layout) {
  return prefix + (algo == Algorithm::kSHJ ? "/shj" : "/phj") +
         (layout == HashLayout::kChained ? "/chained" : "/open");
}

JoinReport MustRun(const PlanSpec& plan,
                   simcl::ContextOptions copts = simcl::ContextOptions()) {
  simcl::SimContext ctx(copts);
  auto report = ExecutePlan(&ctx, plan);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

// ---------------------------------------------------------------------------
// U32 bit-identity pins
// ---------------------------------------------------------------------------

struct Pin {
  const char* name;
  const char* elapsed_hex;    // report.elapsed_ns as %a
  const char* estimated_hex;  // report.estimated_ns as %a
  uint64_t matches;
};

// Recorded at these exact workloads/specs: the first eight from the
// pre-KeySchema lowering, the next fourteen from the per-engine kernels that
// predate the shared hash-join kernel family, the rest from the per-phase
// driver lowering that predates the shared stage protocol. Hexfloats
// round-trip exactly through strtod, so the comparison below is equality of
// the doubles' bit patterns.
constexpr Pin kPins[] = {
    {"join/shj/chained", "0x1.5945ee43d5148p+18", "0x1.42b31b512442p+18",
     16384ull},
    {"join/shj/open", "0x1.03b8b1bc06086p+18", "0x1.df07454d19f1ep+17",
     16384ull},
    {"join/phj/chained", "0x1.b5227a9f85fcep+18", "0x1.84cb8d440d8b8p+18",
     16384ull},
    {"join/phj/open", "0x1.5f953e17b6f0cp+18", "0x1.319c149976428p+18",
     16384ull},
    {"select-join-groupby/shj", "0x1.8447eb1add453p+18",
     "0x1.b6d0e3a22e452p+18", 8206ull},
    {"select-join-groupby/phj", "0x1.ba4afe3186824p+18",
     "0x1.f8e95595178eap+18", 8206ull},
    {"multiway/chained", "0x1.025a3f5bef9f2p+19", "0x1.15eccbde86ef7p+18",
     16384ull},
    {"multiway/open", "0x1.00902d7ba8e78p+18", "0x1.974d055928c6bp+17",
     16384ull},
    {"u64/shj/chained", "0x1.3fc65d4966908p+18", "0x1.2fcf69afc2aacp+18",
     8181ull},
    {"u64/shj/open", "0x1.c9824ff6320a2p+17", "0x1.c39d9f47dd58p+17",
     8181ull},
    {"u64/phj/chained", "0x1.a1ea31e683104p+18", "0x1.79252191fd702p+18",
     8181ull},
    {"u64/phj/open", "0x1.46e4fc983584cp+18", "0x1.2b24878629716p+18",
     8181ull},
    {"separate/shj/chained", "0x1.e06c5787b95f8p+18",
     "0x1.c1c5f4eabddbap+18", 16384ull},
    // Re-pinned when b4 started addressing the table b3 inserted into:
    // under the pipelined scheme b3 and b4 of one tuple may run on
    // different devices, and an open-layout slot id is only meaningful in
    // the table that issued it (16004 of 16384 matches before the fix).
    {"separate/shj/open", "0x1.848a903a8486ep+18", "0x1.6b3d95d9c02c2p+18",
     16384ull},
    {"separate/phj/chained", "0x1.1e2471f1b523ep+19",
     "0x1.01ef336ed3929p+19", 16384ull},
    {"separate/phj/open", "0x1.e0671c96356f4p+18", "0x1.ad5607cca975bp+18",
     16384ull},
    {"grouping/shj/chained", "0x1.66bf31a225ec1p+18", "0x1.42b31b512442p+18",
     16384ull},
    {"grouping/shj/open", "0x1.1131f51a56dffp+18", "0x1.df07454d19f1ep+17",
     16384ull},
    {"grouping/phj/chained", "0x1.c29bbdfdd6d47p+18", "0x1.84cb8d440d8b8p+18",
     16384ull},
    {"grouping/phj/open", "0x1.6d0e817607c85p+18", "0x1.319c149976428p+18",
     16384ull},
    {"select-join-groupby/shj/open", "0x1.2971c7acfe61ap+18",
     "0x1.5e7c3ec318e91p+18", 8206ull},
    {"select-join-groupby/phj/open", "0x1.6c989a2764983p+18",
     "0x1.a094b0b60232ap+18", 8206ull},
    {"discrete-dd/shj", "0x1.5c324b81b7deap+19",
     "0x1.50c804a81c017p+19", 16384ull},
    {"discrete-dd/phj", "0x1.da05e20aed9cdp+19",
     "0x1.9a00c8fccd16ap+19", 16384ull},
    {"offload/shj", "0x1.a84547024c8cep+18",
     "0x1.85e9fbb701419p+18", 16384ull},
    {"basic-unit/shj", "0x1.ab33bdcae228p+19",
     "0x1.8bb1d54290c2p+18", 16384ull},
    {"basic-unit/phj", "0x1.5f0531f2acdb7p+20",
     "0x1.ceb53bc9d0ca3p+18", 16384ull},
    {"select-join-groupby/shj/unfused", "0x1.23b19246f6b17p+20",
     "0x1.8629a1c5f0e13p+18", 8206ull},
    {"select-join-groupby/phj/unfused", "0x1.3855bb4c1819dp+20",
     "0x1.c1a60853c2d69p+18", 8206ull},
};

const Pin& FindPin(const std::string& name) {
  for (const Pin& p : kPins) {
    if (name == p.name) return p;
  }
  ADD_FAILURE() << "no pin named " << name;
  static Pin none{"", "0x0p+0", "0x0p+0", 0};
  return none;
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void ExpectPinned(const std::string& name, const JoinReport& report) {
  const Pin& pin = FindPin(name);
  EXPECT_EQ(report.elapsed_ns, std::strtod(pin.elapsed_hex, nullptr))
      << name << ": elapsed_ns drifted from the pinned lowering (now "
      << Hex(report.elapsed_ns) << ")";
  EXPECT_EQ(report.estimated_ns, std::strtod(pin.estimated_hex, nullptr))
      << name << ": estimated_ns drifted from the pinned lowering (now "
      << Hex(report.estimated_ns) << ")";
  EXPECT_EQ(report.matches, pin.matches) << name;
}

TEST(KeySchemaParityTest, U32SingleJoinsBitIdentical) {
  const data::Workload w = MustWorkload(42);
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    for (HashLayout layout :
         {HashLayout::kChained, HashLayout::kOpenAddressing}) {
      const std::string name =
          std::string("join/") + (algo == Algorithm::kSHJ ? "shj" : "phj") +
          "/" + (layout == HashLayout::kChained ? "chained" : "open");
      ExpectPinned(name,
                   MustRun(MakeSingleJoinPlan(w, MakeSpec(algo, layout))));
    }
  }
}

PlanSpec SelectJoinGroupByPlan(const data::Workload& w, Algorithm algo,
                               HashLayout layout) {
  plan::Predicate pred;
  pred.column = plan::SelectColumn::kRid;
  pred.op = plan::CompareOp::kLt;
  pred.operand = static_cast<int32_t>(w.build.size() / 2);
  PlanSpec plan;
  const int b = plan.graph.AddScan(&w.build);
  const int sel = plan.graph.AddSelect(b, pred);
  const int p = plan.graph.AddScan(&w.probe);
  const int j = plan.graph.AddHashJoin(sel, p);
  plan.graph.AddGroupBy(j, plan::AggFn::kSum);
  plan.exec = MakeSpec(algo, layout);
  plan.expected_matches = w.expected_matches;
  return plan;
}

TEST(KeySchemaParityTest, U32SelectJoinGroupByBitIdentical) {
  const data::Workload w = MustWorkload(42);
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    ExpectPinned(std::string("select-join-groupby/") +
                     (algo == Algorithm::kSHJ ? "shj" : "phj"),
                 MustRun(SelectJoinGroupByPlan(w, algo, HashLayout::kChained)));
  }
}

TEST(KeySchemaParityTest, U32MultiwayBitIdentical) {
  const data::Workload w = MustWorkload(42);
  const data::Workload w2 = MustWorkload(7);
  for (HashLayout layout :
       {HashLayout::kChained, HashLayout::kOpenAddressing}) {
    PlanSpec plan;
    const int b1 = plan.graph.AddScan(&w.build);
    const int b2 = plan.graph.AddScan(&w2.build);
    const int p = plan.graph.AddScan(&w.probe);
    plan.graph.AddMultiwayJoin({b1, b2}, p);
    plan.exec = MakeSpec(Algorithm::kSHJ, layout);
    plan.expected_matches = w.expected_matches;
    ExpectPinned(std::string("multiway/") +
                     (layout == HashLayout::kChained ? "chained" : "open"),
                 MustRun(plan));
  }
}

// ---------------------------------------------------------------------------
// Kernel-variant pins: every algorithm x layout instantiation of the wide,
// separate-table, grouping and fused-filter kernel paths
// ---------------------------------------------------------------------------

TEST(KeySchemaParityTest, U64JoinsBitIdentical) {
  // 50% selectivity: misses run the two-word compare to a kNil result.
  const data::Workload w = MustWorkload(42, data::KeySchema::kU64, 0.5);
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    for (HashLayout layout :
         {HashLayout::kChained, HashLayout::kOpenAddressing}) {
      ExpectPinned(AlgoLayoutName("u64", algo, layout),
                   MustRun(MakeSingleJoinPlan(w, MakeSpec(algo, layout))));
    }
  }
}

TEST(KeySchemaParityTest, SeparateTablesBitIdentical) {
  const data::Workload w = MustWorkload(42);
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    for (HashLayout layout :
         {HashLayout::kChained, HashLayout::kOpenAddressing}) {
      JoinSpec spec = MakeSpec(algo, layout);
      spec.engine.shared_table = false;
      const JoinReport report = MustRun(MakeSingleJoinPlan(w, spec));
      ExpectPinned(AlgoLayoutName("separate", algo, layout), report);
      EXPECT_EQ(report.matches, join::ReferenceMatchCount(w.build, w.probe));
    }
  }
}

TEST(KeySchemaParityTest, GroupingBitIdentical) {
  const data::Workload w = MustWorkload(42);
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    for (HashLayout layout :
         {HashLayout::kChained, HashLayout::kOpenAddressing}) {
      JoinSpec spec = MakeSpec(algo, layout);
      spec.engine.grouping = true;
      ExpectPinned(AlgoLayoutName("grouping", algo, layout),
                   MustRun(MakeSingleJoinPlan(w, spec)));
    }
  }
}

TEST(KeySchemaParityTest, FusedSelectJoinGroupByOpenBitIdentical) {
  const data::Workload w = MustWorkload(42);
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    PlanSpec plan = SelectJoinGroupByPlan(w, algo, HashLayout::kOpenAddressing);
    ASSERT_EQ(plan.exec.engine.fuse, exec::FuseMode::kAuto);
    ExpectPinned(AlgoLayoutName("select-join-groupby", algo,
                                HashLayout::kOpenAddressing),
                 MustRun(plan));
  }
}

// ---------------------------------------------------------------------------
// Driver-lowering pins: the scheme, architecture and fusion paths of the
// plan driver that the single-join pins above do not reach
// ---------------------------------------------------------------------------

std::string AlgoName(const std::string& prefix, Algorithm algo) {
  return prefix + (algo == Algorithm::kSHJ ? "/shj" : "/phj");
}

TEST(KeySchemaParityTest, DiscreteDataDividingBitIdentical) {
  // The discrete architecture forces separate tables: the GPU's input
  // share crosses PCI-e per phase, its partial table crosses back before
  // the merge, and its share of the result pairs crosses back at the end.
  const data::Workload w = MustWorkload(42);
  simcl::ContextOptions copts;
  copts.arch = simcl::ArchMode::kDiscreteEmulated;
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    JoinSpec spec = MakeSpec(algo, HashLayout::kChained);
    spec.scheme = Scheme::kDataDivide;
    ExpectPinned(AlgoName("discrete-dd", algo),
                 MustRun(MakeSingleJoinPlan(w, spec), copts));
  }
}

TEST(KeySchemaParityTest, OffloadBitIdentical) {
  const data::Workload w = MustWorkload(42);
  JoinSpec spec = MakeSpec(Algorithm::kSHJ, HashLayout::kChained);
  spec.scheme = Scheme::kOffload;
  ExpectPinned("offload/shj", MustRun(MakeSingleJoinPlan(w, spec)));
}

TEST(KeySchemaParityTest, BasicUnitBitIdentical) {
  const data::Workload w = MustWorkload(42);
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    JoinSpec spec = MakeSpec(algo, HashLayout::kChained);
    spec.scheme = Scheme::kBasicUnit;
    ExpectPinned(AlgoName("basic-unit", algo),
                 MustRun(MakeSingleJoinPlan(w, spec)));
  }
}

TEST(KeySchemaParityTest, UnfusedSelectJoinGroupByBitIdentical) {
  // --fuse=off: the select materializes its survivors (f1 + f2) and the
  // group-by rescans the join's result pairs (g1).
  const data::Workload w = MustWorkload(42);
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    PlanSpec plan = SelectJoinGroupByPlan(w, algo, HashLayout::kChained);
    plan.exec.engine.fuse = exec::FuseMode::kOff;
    ExpectPinned(AlgoName("select-join-groupby", algo) + "/unfused",
                 MustRun(plan));
  }
}

// ---------------------------------------------------------------------------
// Wide schemas match the oracle everywhere the engines accept them
// ---------------------------------------------------------------------------

TEST(KeySchemaParityTest, WideSchemasMatchOracle) {
  for (data::KeySchema schema :
       {data::KeySchema::kU64, data::KeySchema::kComposite,
        data::KeySchema::kDictString}) {
    // 50% selectivity: misses exercise the dead-lane path through the
    // two-word compares (and the untranslatable-string path for dicts).
    const data::Workload w = MustWorkload(42, schema, 0.5);
    const uint64_t oracle = join::ReferenceMatchCount(w.build, w.probe);
    EXPECT_EQ(oracle, w.expected_matches) << data::KeySchemaName(schema);
    for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
      for (HashLayout layout :
           {HashLayout::kChained, HashLayout::kOpenAddressing}) {
        const JoinReport report =
            MustRun(MakeSingleJoinPlan(w, MakeSpec(algo, layout)));
        EXPECT_EQ(report.matches, oracle)
            << data::KeySchemaName(schema) << "/"
            << (algo == Algorithm::kSHJ ? "shj" : "phj") << "/"
            << exec::HashLayoutName(layout);
      }
    }
  }
}

}  // namespace
}  // namespace apujoin::coproc
