// Table 3: fine-grained (PHJ-PL) vs coarse-grained (PHJ-PL', one partition
// pair per work item) step definitions: L2 cache misses, miss ratio and
// elapsed time.
//
// Shape targets: PL' shows a higher miss ratio (paper: 23% vs 10%), more
// misses (paper: 15M vs 7M) and a slower join (paper: 2.2 s vs 1.6 s) —
// separate per-pair tables lose the cross-device cache reuse, and deep
// pair-level concurrency blows the live working set past the shared L2.

#include "coproc/coarse_grained.h"

#include "bench_common.h"

namespace apujoin::bench {
namespace {

using coproc::JoinSpec;

void Run() {
  PrintBanner("Table 3", "fine vs coarse step definition (PHJ-PL vs PHJ-PL')");
  if (BenchBackend() != exec::BackendKind::kSim) {
    // The L2 counters come from the set-associative CacheSim, which only
    // exists under the analytic backend.
    std::printf("note: Table 3 needs cache tracing; forcing --backend=sim\n");
    g_flags.exec.backend = exec::BackendKind::kSim;
  }
  const uint64_t n = Scaled(16ull << 20);
  const data::Workload w = MakeWorkload(n, n);

  JoinSpec spec;
  spec.algorithm = coproc::Algorithm::kPHJ;
  spec.scheme = coproc::Scheme::kPipelined;

  simcl::SimContext fine_ctx = MakeContext(simcl::ArchMode::kCoupled, true);
  const coproc::JoinReport fine = MustJoin(&fine_ctx, w, spec);

  simcl::SimContext coarse_ctx = MakeContext(simcl::ArchMode::kCoupled, true);
  auto coarse_or =
      coproc::ExecuteCoarsePhj(CachedBackend(&coarse_ctx), w, spec);
  APU_CHECK_OK(coarse_or.status());
  const coproc::JoinReport& coarse = *coarse_or;
  APU_CHECK(coarse.matches == w.expected_matches);

  TablePrinter table(
      {"variant", "L2 misses (x1e6)", "L2 miss ratio", "time(s)"});
  auto row = [&](const char* name, const coproc::JoinReport& rep) {
    table.AddRow({name,
                  TablePrinter::Fmt(static_cast<double>(rep.l2_misses) / 1e6,
                                    2),
                  TablePrinter::FmtPercent(
                      static_cast<double>(rep.l2_misses) /
                      static_cast<double>(std::max<uint64_t>(
                          rep.l2_accesses, 1))),
                  Secs(rep.elapsed_ns)});
  };
  row("PHJ-PL (fine)", fine);
  row("PHJ-PL' (coarse)", coarse);
  table.Print();
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  apujoin::bench::Run();
}
