// Shared helpers for the figure/table reproduction binaries.
//
// Every binary regenerates one table or figure of the paper's evaluation
// (Section 5 / Appendix) and prints the same rows or series. Sizes default
// to 1/4 of the paper's scale so the whole suite runs in minutes on one
// core; set REPRO_FULL=1 for the paper's 16M-tuple scale, or REPRO_SCALE
// for an arbitrary factor (CI smoke runs use REPRO_SCALE=0.01).
//
// Every binary accepts the shared harness flags (core/harness_flags.h):
// --backend=sim|threads, --threads=N and --morsel=N select and shape the
// execution backend, --tune=off|once|online the calibration feedback mode,
// and --json=<path>
// writes a machine-readable run record next to the human tables — per-join
// elapsed/estimated ns, per-step ns and item counts, plus any
// bench-specific metrics — which CI uploads as the perf-trajectory
// artifact. Schema:
//
//   { "bench": "fig03_time_breakdown", "backend": "threads", "threads": 2,
//     "scale": 0.01,
//     "joins": [ { "elapsed_ns": ..., "estimated_ns": ..., "matches": ...,
//                  "steps": [ { "phase": "build", "name": "b1",
//                               "ratio": 0.5, "cpu_ns": ..., "gpu_ns": ...,
//                               "cpu_items": ..., "gpu_items": ... }, ... ]
//                }, ... ],
//     "metrics": [ { "name": "concurrent_throughput_jps",
//                    "value": 123.4 }, ... ] }

#ifndef APUJOIN_BENCH_BENCH_COMMON_H_
#define APUJOIN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "coproc/pipeline_runner.h"
#include "core/coupled_joiner.h"
#include "core/harness_flags.h"
#include "util/env.h"
#include "util/table_printer.h"

namespace apujoin::bench {

/// Shared harness flags (set by InitBench).
inline core::HarnessFlags g_flags;

// ---------------------------------------------------------------------------
// Structured (--json) output
// ---------------------------------------------------------------------------

/// Collects one run's structured records and writes them as a single JSON
/// object at process exit (registered by InitBench). Numbers are printed
/// with enough precision to round-trip; names are plain identifiers, so no
/// string escaping is needed.
class JsonEmitter {
 public:
  bool enabled() const { return !path_.empty(); }

  void Enable(std::string path, std::string bench) {
    path_ = std::move(path);
    bench_ = std::move(bench);
  }

  /// Records one executed join (per-step ns and item counts included).
  void AddJoin(const coproc::JoinReport& report) {
    if (!enabled()) return;
    std::string j;
    j += "    {\"elapsed_ns\": " + Num(report.elapsed_ns) +
         ", \"estimated_ns\": " + Num(report.estimated_ns) +
         ", \"matches\": " + std::to_string(report.matches) +
         ",\n     \"steps\": [";
    for (size_t i = 0; i < report.steps.size(); ++i) {
      const coproc::StepReport& s = report.steps[i];
      if (i != 0) j += ",";
      j += "\n      {\"phase\": \"" + s.phase + "\", \"name\": \"" + s.name +
           "\", \"ratio\": " + Num(s.ratio) +
           ", \"cpu_ns\": " + Num(s.cpu_ns) +
           ", \"gpu_ns\": " + Num(s.gpu_ns) +
           ", \"cpu_items\": " + std::to_string(s.cpu_items) +
           ", \"gpu_items\": " + std::to_string(s.gpu_items) + "}";
    }
    j += "]}";
    joins_.push_back(std::move(j));
  }

  /// Records one bench-specific scalar (throughput, percentile, ...).
  void AddMetric(const std::string& name, double value) {
    if (!enabled()) return;
    metrics_.push_back("    {\"name\": \"" + name +
                       "\", \"value\": " + Num(value) + "}");
  }

  void Write() {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write --json file %s\n",
                   path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"backend\": \"%s\",\n",
                 bench_.c_str(), BackendKindName(g_flags.exec.backend));
    std::fprintf(f, "  \"threads\": %d,\n  \"scale\": %s,\n",
                 g_flags.exec.threads, Num(BenchScale()).c_str());
    WriteList(f, "joins", joins_);
    std::fprintf(f, ",\n");
    WriteList(f, "metrics", metrics_);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "json: wrote %zu joins, %zu metrics to %s\n",
                 joins_.size(), metrics_.size(), path_.c_str());
  }

 private:
  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static void WriteList(std::FILE* f, const char* key,
                        const std::vector<std::string>& items) {
    std::fprintf(f, "  \"%s\": [", key);
    for (size_t i = 0; i < items.size(); ++i) {
      std::fprintf(f, "%s\n%s", i == 0 ? "" : ",", items[i].c_str());
    }
    std::fprintf(f, "%s]", items.empty() ? "" : "\n  ");
  }

  std::string path_;
  std::string bench_;
  std::vector<std::string> joins_;
  std::vector<std::string> metrics_;
};

inline JsonEmitter g_json;

// ---------------------------------------------------------------------------
// Harness setup
// ---------------------------------------------------------------------------

/// Parses harness flags; call first thing in main. Benches take no
/// positional arguments, so anything unrecognized is a usage error.
inline void InitBench(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    switch (core::ParseHarnessArg(argv[i], &g_flags)) {
      case core::HarnessArg::kConsumed:
        break;
      case core::HarnessArg::kInvalid:
        std::exit(2);
      case core::HarnessArg::kPositional:
      case core::HarnessArg::kUnknownFlag:
        std::fprintf(stderr, "usage: %s %s\n", argv[0], core::kHarnessUsage);
        std::exit(2);
    }
  }
  if (!g_flags.json_path.empty()) {
    const char* slash = std::strrchr(argv[0], '/');
    g_json.Enable(g_flags.json_path, slash != nullptr ? slash + 1 : argv[0]);
    std::atexit([] { g_json.Write(); });
  }
}

inline exec::BackendKind BenchBackend() { return g_flags.exec.backend; }

/// Stamps the selected backend (and tune mode) into a join spec.
inline void ApplyBackend(coproc::JoinSpec* spec) {
  core::ApplyHarnessFlags(g_flags, &spec->engine);
}

/// One backend for the whole bench run, rebound to each experiment's
/// context — so --backend=threads spawns one pool instead of one per join.
inline exec::Backend* CachedBackend(simcl::SimContext* ctx) {
  static std::unique_ptr<exec::Backend> backend;
  if (backend == nullptr || backend->kind() != g_flags.exec.backend) {
    backend = exec::MakeBackend(g_flags.exec.backend, ctx,
                                g_flags.exec.threads,
                                g_flags.exec.morsel_items);
  } else {
    backend->Rebind(ctx);
  }
  return backend.get();
}

/// Paper-size scaled by REPRO_FULL / REPRO_SCALE (16M -> 4M by default),
/// clamped to kMinWorkloadTuples (with a one-time warning when a tiny
/// REPRO_SCALE would otherwise round the workload away).
inline uint64_t Scaled(uint64_t paper_tuples) {
  const uint64_t v = static_cast<uint64_t>(
      static_cast<double>(paper_tuples) * BenchScale());
  if (v >= kMinWorkloadTuples) return v;
  static bool warned = false;
  if (!warned) {
    warned = true;
    std::fprintf(stderr,
                 "warning: scale %g shrinks %llu tuples to %llu; clamping "
                 "to the %llu-tuple floor\n",
                 BenchScale(), static_cast<unsigned long long>(paper_tuples),
                 static_cast<unsigned long long>(v),
                 static_cast<unsigned long long>(kMinWorkloadTuples));
  }
  return kMinWorkloadTuples;
}

inline data::Workload MakeWorkload(
    uint64_t build, uint64_t probe,
    data::Distribution dist = data::Distribution::kUniform,
    double selectivity = 1.0, uint64_t seed = 42) {
  data::WorkloadSpec spec;
  spec.build_tuples = build;
  spec.probe_tuples = probe;
  spec.distribution = dist;
  spec.selectivity = selectivity;
  spec.seed = seed;
  auto w = data::GenerateWorkload(spec);
  APU_CHECK_OK(w.status());
  return std::move(w).value();
}

inline simcl::SimContext MakeContext(
    simcl::ArchMode arch = simcl::ArchMode::kCoupled,
    bool trace_cache = false) {
  simcl::ContextOptions opts;
  opts.arch = arch;
  opts.trace_cache = trace_cache;
  return simcl::SimContext(opts);
}

inline std::string Secs(double ns) { return TablePrinter::Fmt(ns * 1e-9, 3); }

inline void PrintBanner(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment, description);
  std::printf("scale: %s (REPRO_FULL=%d) backend: %s\n",
              TablePrinter::FmtCount(DefaultProbeTuples()).c_str(),
              GetEnvFlag("REPRO_FULL") ? 1 : 0,
              BackendKindName(g_flags.exec.backend));
  std::printf("==============================================================\n");
}

inline coproc::JoinReport MustJoin(simcl::SimContext* ctx,
                                   const data::Workload& w,
                                   const coproc::JoinSpec& spec) {
  coproc::JoinSpec run_spec = spec;
  ApplyBackend(&run_spec);
  auto report = coproc::ExecutePlan(CachedBackend(ctx),
                                    coproc::MakeSingleJoinPlan(w, run_spec));
  APU_CHECK_OK(report.status());
  APU_CHECK(report->matches == w.expected_matches);
  g_json.AddJoin(*report);
  return std::move(report).value();
}

}  // namespace apujoin::bench

#endif  // APUJOIN_BENCH_BENCH_COMMON_H_
