// apujoin benchmark program: one workload per process, on the threads
// backend at four worker slots, one client thread.
//
//   apujoin_perfbench --workload=<name> --seed=<n> --seconds=<s>
//                     --trace=<0|1> [--trace-dir=<dir>] [--source-id=<id>]
//                     [--corrupt-expectation]
//
// --trace=0 measures the end-to-end metrics with tracing off. --trace=1 is
// the separate traced run: it interleaves untraced and traced queries (the
// difference is trace.overhead_frac), times every exec span through a
// forwarding Backend decorator, runs the 1-thread scaling pass, the
// allocator/emit contention probes and the floor/ceiling baselines, prints
// the per-layer metrics and writes the spans as Chrome trace-event JSON.
// Every result is checked against the workload's oracle; a wrong result
// exits 1. --corrupt-expectation perturbs the oracle, so a run with it must
// exit non-zero (the self-test of the checks).

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coproc/pipeline_runner.h"
#include "exec/thread_pool_backend.h"
#include "perfbench.h"
#include "probes.h"
#include "service/join_service.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using apujoin::coproc::ExecutePlan;
using apujoin::coproc::JoinReport;
using apujoin::coproc::PlanSpec;
using apujoin::exec::ThreadPoolBackend;
using apujoin::exec::ThreadPoolOptions;
using apujoin::simcl::SimContext;

constexpr int kThreads = 4;  // worker slots of every measured pool
constexpr int kRounds = 5;   // set-up + measure rounds per run
constexpr int kSessions = 4;
constexpr double kServiceRate = 500.0;  // requests per second, open loop
constexpr int kServiceQueueCapacity = 64;
constexpr int kDirectServiceQueries = 200;
/// Query ids of the service's direct pass (kept apart from ticket numbers).
constexpr int64_t kDirectQueryIds = 1000000;

/// Every step a workload may run; join.<step>.ns_per_item is reported for
/// each (0 on workloads that do not run the step). g1 is absent: with
/// --fuse=auto every group-by in these workloads is fused into p4g.
const char* const kSteps[] = {"b1", "b2", "b3", "b4", "p1", "p2", "p3",
                              "p4", "n1", "n2", "n3", "f1", "p4g"};
/// JoinReport::operators kinds (plan::NodeKindName) reported as
/// operator.<kind>.ms.
const char* const kOperatorKinds[] = {"select", "join", "group-by"};

struct Options {
  std::string workload;
  WorkloadKind kind = WorkloadKind::kShjProbeEmit;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
  std::string trace_dir = ".";
  std::string source_id = "unknown";
};

/// Per-layer metrics of the traced run. Fields a workload cannot produce
/// stay 0, so every workload reports the same names.
struct LayerReport {
  double spans_per_query = 0, morsels_per_query = 0, span_us_p50 = 0;
  double worker_items_max_over_mean = 0, t1_ms = 0, scaling_x = 0;
  std::map<std::string, double> step_ns;
  double match_frac = 0;
  double emit_ns_1t = 0, emit_ns_nt = 0, alloc_ns_1t = 0, alloc_ns_nt = 0;
  double self_ms = 0;
  std::map<std::string, double> operator_ms;
  double queue_ms_p50 = 0, queue_ms_tail = 0, pending_max = 0, rejected = 0;
  double peak_workers = 0, lag_ms_max = 0;
  double gen_s = 0, floor_ms = 0, copy_gbps = 0, vs_floor_x = 0, bw_frac = 0;
  double overhead_frac = 0;
};

/// Outcome of a run so far: request counts and the first wrong result.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string wrong;  ///< non-empty: a result differed from the oracle
};

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintFingerprint(const Options& o) {
  std::printf("apujoin benchmark: workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("host: cpu=\"%s\" nproc=%u source=%s build=%s threads=%d\n",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              o.source_id.c_str(), PERFBENCH_BUILD_TYPE, kThreads);
}

/// Prints the record of a run whose result was wrong and returns the exit
/// code for it.
int WrongResult(const Outcome& out) {
  std::printf("WRONG RESULT: %s\n", out.wrong.c_str());
  MetricSink().PrintRecord(false, std::max<uint64_t>(out.attempted, 1),
                           out.failed);
  return 1;
}

void AddEndToEnd(MetricSink* sink, const std::vector<double>& setup_s,
                 const std::vector<double>& lat_ms, const Outcome& out,
                 double wall_s, uint64_t tuples_per_query) {
  const double ok = static_cast<double>(lat_ms.size());
  const Tail tail = TailOf(lat_ms);
  char note[96];
  if (!lat_ms.empty()) {
    std::vector<double> sorted = lat_ms;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    std::printf("latency_ms: min=%.3f q1=%.3f q3=%.3f p90=%.3f p99=%.3f "
                "max=%.3f\n",
                sorted.front(), sorted[n / 4], sorted[n * 3 / 4],
                sorted[n * 9 / 10], sorted[n * 99 / 100], sorted.back());
  }
  std::printf("end-to-end metrics:\n");
  sink->Add("setup_s", Median(setup_s), "s", "median of 5 set-ups");
  std::snprintf(note, sizeof(note), "%zu samples", lat_ms.size());
  sink->Add("latency_ms_p50", Median(lat_ms), "ms", note);
  std::snprintf(note, sizeof(note), "p%.2f of %zu samples, %zu beyond",
                tail.percentile, tail.samples, tail.beyond);
  MetricSink::Print("latency_ms_tail", tail.value, "ms", note);
  sink->Add("input_mtuples_per_s",
            ok * static_cast<double>(tuples_per_query) / wall_s / 1e6,
            "Mtuples/s");
  sink->Add("goodput_qps", ok / wall_s, "1/s");
  const double attempted = static_cast<double>(std::max<uint64_t>(
      out.attempted, 1));
  std::snprintf(note, sizeof(note), "%llu of %llu attempts",
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
  MetricSink::Print("failed_frac",
                    static_cast<double>(out.failed) / attempted, "fraction",
                    note);
  sink->Add("ok_frac", 1.0 - static_cast<double>(out.failed) / attempted,
            "fraction", "1 - failed_frac");
  sink->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

void AddLayers(MetricSink* sink, const LayerReport& r) {
  std::printf("per-layer metrics:\n");
  sink->Add("exec.spans_per_query", r.spans_per_query, "count");
  sink->Add("exec.morsels_per_query", r.morsels_per_query, "count");
  sink->Add("exec.span_us_p50", r.span_us_p50, "us");
  sink->Add("exec.worker_items_max_over_mean", r.worker_items_max_over_mean,
            "ratio");
  sink->Add("exec.t1_ms", r.t1_ms, "ms", "1-thread p50");
  sink->Add("exec.scaling_x", r.scaling_x, "x",
            r.scaling_x < 1.0 ? "ANTI-SCALING: 4 threads slower than 1"
                              : "1-thread p50 / 4-thread p50");
  for (const char* step : kSteps) {
    auto it = r.step_ns.find(step);
    sink->Add(std::string("join.") + step + ".ns_per_item",
              it == r.step_ns.end() ? 0.0 : it->second, "ns",
              it == r.step_ns.end() ? "not run" : "");
  }
  sink->Add("join.match_frac", r.match_frac, "fraction",
            "matches / probe rows");
  sink->Add("join.emit_ns_1t", r.emit_ns_1t, "ns", "ResultWriter::Emit");
  sink->Add("join.emit_ns_nt", r.emit_ns_nt, "ns", "4 threads, adjacent slots");
  sink->Add("alloc.allocate_ns_1t", r.alloc_ns_1t, "ns",
            "BlockAllocator::Allocate");
  sink->Add("alloc.allocate_ns_nt", r.alloc_ns_nt, "ns",
            "4 threads, adjacent slots");
  sink->Add("coproc.self_ms", r.self_ms, "ms", "query wall - exec spans");
  for (const char* kind : kOperatorKinds) {
    auto it = r.operator_ms.find(kind);
    sink->Add(std::string("operator.") + kind + ".ms",
              it == r.operator_ms.end() ? 0.0 : it->second, "ms");
  }
  sink->Add("service.queue_ms_p50", r.queue_ms_p50, "ms");
  sink->Add("service.queue_ms_tail", r.queue_ms_tail, "ms");
  sink->Add("service.pending_max", r.pending_max, "count");
  sink->Add("service.rejected", r.rejected, "count");
  sink->Add("service.peak_workers", r.peak_workers, "count");
  sink->Add("loadgen.lag_ms_max", r.lag_ms_max, "ms");
  sink->Add("data.gen_s", r.gen_s, "s", "input generation + oracle");
  sink->Add("baseline.floor_ms", r.floor_ms, "ms",
            "ReferenceMatchCount, 1 thread");
  sink->Add("baseline.copy_gbps", r.copy_gbps, "GB/s", "memcpy");
  sink->Add("baseline.vs_floor_x", r.vs_floor_x, "x",
            "latency_ms_p50 / baseline.floor_ms");
  sink->Add("baseline.bw_frac", r.bw_frac, "fraction",
            "input bytes per p50 query / baseline.copy_gbps");
  sink->Add("trace.overhead_frac", r.overhead_frac, "fraction",
            "traced p50 / untraced p50 - 1");
}

/// Times `fn` as one span. Exec spans recorded meanwhile carry `qid`, the
/// query that caused them (-1 for none).
template <typename Fn>
void TimedSpan(SpanRecorder* rec, const char* cat, const char* name, int tid,
               int64_t qid, Fn fn) {
  rec->set_query(qid);
  const double t0 = NowUs();
  fn();
  Span s;
  s.name = name;
  s.cat = cat;
  s.tid = tid;
  s.ts_us = t0;
  s.dur_us = NowUs() - t0;
  s.query = qid;
  rec->Add(std::move(s));
  rec->set_query(-1);
}

/// A phase of the traced run on the benchmark's own timeline (tid 0).
template <typename Fn>
void PhaseSpan(SpanRecorder* rec, const char* name, Fn fn) {
  TimedSpan(rec, "phase", name, 0, -1, fn);
}

/// Fills the span-derived exec/join/coproc fields from `rec`, which holds
/// `queries` traced queries.
void FillFromSpans(const SpanRecorder& rec, int queries, LayerReport* r) {
  std::vector<double> span_us;
  for (const Span& s : rec.spans()) {
    if ((s.cat == "exec" || s.cat == "exec.async") && s.items > 0) {
      span_us.push_back(s.dur_us);
    }
  }
  r->spans_per_query = static_cast<double>(span_us.size()) / queries;
  r->span_us_p50 = Median(span_us);
  for (const auto& [name, t] : TotalsByStep(rec)) {
    r->step_ns[name] = t.ns / static_cast<double>(t.items);
  }
  std::vector<double> self_ms;
  for (const QueryBreakdown& qb : BreakDownQueries(rec)) {
    self_ms.push_back(qb.self_us() / 1e3);
  }
  r->self_ms = Median(self_ms);
}

/// Accumulates pool counters over traced queries (worker imbalance and
/// morsel counts).
struct CounterTally {
  std::vector<double> items;
  uint64_t morsels = 0;

  void Add(const std::vector<apujoin::exec::WorkerCounters>& wc) {
    items.resize(std::max(items.size(), wc.size()), 0.0);
    for (size_t i = 0; i < wc.size(); ++i) {
      items[i] += static_cast<double>(wc[i].items);
      morsels += wc[i].morsels;
    }
  }
  double MaxOverMean() const {
    if (items.empty()) return 0.0;
    double sum = 0.0, max = 0.0;
    for (double v : items) {
      sum += v;
      max = std::max(max, v);
    }
    return sum > 0.0 ? max / (sum / static_cast<double>(items.size())) : 0.0;
  }
};

/// Median per operator kind over the traced reports.
std::map<std::string, double> OperatorMs(
    const std::vector<std::map<std::string, double>>& per_query) {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& q : per_query) {
    for (const auto& [kind, ms] : q) samples[kind].push_back(ms);
  }
  std::map<std::string, double> out;
  for (const auto& [kind, v] : samples) out[kind] = Median(v);
  return out;
}

std::map<std::string, double> OperatorsOf(const JoinReport& report) {
  std::map<std::string, double> ms;
  for (const apujoin::coproc::OperatorReport& op : report.operators) {
    ms[op.kind] += op.elapsed_ns / 1e6;
  }
  return ms;
}

void ContentionProbes(SpanRecorder* rec, LayerReport* r) {
  PhaseSpan(rec, "probe.allocate", [&] {
    r->alloc_ns_1t = AllocateNsPerCall(1);
    r->alloc_ns_nt = AllocateNsPerCall(kThreads);
  });
  PhaseSpan(rec, "probe.emit", [&] {
    r->emit_ns_1t = EmitNsPerCall(1);
    r->emit_ns_nt = EmitNsPerCall(kThreads);
  });
}

/// Floor and ceiling of one query shape; `p50_ms` is its untraced latency.
bool Baselines(SpanRecorder* rec, const QueryInputs& q, double p50_ms,
               bool check_floor, LayerReport* r, Outcome* out) {
  uint64_t floor_matches = 0;
  PhaseSpan(rec, "baseline.floor", [&] {
    r->floor_ms = FloorMs(q.data.build, q.data.probe, &floor_matches);
  });
  if (check_floor && floor_matches != q.expected_matches) {
    out->wrong = "ReferenceMatchCount " + std::to_string(floor_matches) +
                 " != expected " + std::to_string(q.expected_matches);
    return false;
  }
  PhaseSpan(rec, "baseline.copy",
            [&] { r->copy_gbps = CopyGbps(q.input_bytes()); });
  r->vs_floor_x = r->floor_ms > 0 ? p50_ms / r->floor_ms : 0.0;
  r->bw_frac = p50_ms > 0 ? static_cast<double>(q.input_bytes()) /
                                (p50_ms / 1e3) / (r->copy_gbps * 1e9)
                          : 0.0;
  return true;
}

bool WriteTrace(const Options& o, const SpanRecorder& rec) {
  mkdir(o.trace_dir.c_str(), 0755);
  const std::string path = o.trace_dir + "/" + o.workload + "_seed" +
                           std::to_string(o.seed) + ".trace.json";
  if (!rec.WriteChrome(path)) {
    std::fprintf(stderr, "cannot write span file %s\n", path.c_str());
    return false;
  }
  std::printf("span file: %s (%zu spans)\n", path.c_str(),
              rec.spans().size());
  return true;
}

// ---------------------------------------------------------------------------
// Analytic workloads (closed loop, one query in flight)
// ---------------------------------------------------------------------------

/// One set-up: a machine model and an exclusively owned pool.
struct PoolSetup {
  std::unique_ptr<SimContext> ctx;
  std::unique_ptr<ThreadPoolBackend> pool;

  void Create(int threads) {
    pool.reset();
    ctx = std::make_unique<SimContext>();
    pool = std::make_unique<ThreadPoolBackend>(
        ctx.get(), ThreadPoolOptions(threads));
  }
};

/// Runs one query, checks it, and appends its latency when OK.
bool RunQuery(apujoin::exec::Backend* backend, const QueryInputs& q,
              std::vector<double>* lat_ms, Outcome* out,
              JoinReport* report_out = nullptr) {
  const auto t0 = Clock::now();
  auto report = ExecutePlan(backend, q.plan);
  const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
  ++out->attempted;
  if (!report.ok()) {
    ++out->failed;
    std::printf("query failed: %s\n", report.status().ToString().c_str());
    return true;
  }
  out->wrong = q.Check(*report);
  if (!out->wrong.empty()) return false;
  if (lat_ms != nullptr) lat_ms->push_back(ms);
  if (report_out != nullptr) *report_out = std::move(report).value();
  return true;
}

/// p50 latency of `q` on a fresh exclusive pool of `threads` threads, after
/// one warm-up query: at least 3 and at most `max_queries` queries, no new
/// query once `budget_s` has passed. A wrong result lands in `out->wrong`.
double ExclusiveP50(const QueryInputs& q, int threads, int max_queries,
                    double budget_s, Outcome* out) {
  PoolSetup setup;
  setup.Create(threads);
  Outcome trial;
  std::vector<double> ms;
  RunQuery(setup.pool.get(), q, nullptr, &trial);
  const auto start = Clock::now();
  const uint64_t max_attempts = static_cast<uint64_t>(max_queries) + 1;
  while (trial.wrong.empty() && trial.attempted < max_attempts &&
         (ms.size() < 3 || SecondsBetween(start, Clock::now()) < budget_s)) {
    RunQuery(setup.pool.get(), q, &ms, &trial);
  }
  if (!trial.wrong.empty()) out->wrong = trial.wrong;
  return Median(ms);
}

int RunAnalytic(const Options& o) {
  const auto g0 = Clock::now();
  std::unique_ptr<QueryInputs> q = MakeAnalytic(o.kind, o.seed, o.corrupt);
  LayerReport layers;
  layers.gen_s = SecondsBetween(g0, Clock::now());
  layers.match_frac = static_cast<double>(q->expected_matches) /
                      static_cast<double>(q->data.probe.size());
  std::printf("inputs: |R|=%llu |S|=%llu matches=%llu (%.3f s to generate)\n",
              static_cast<unsigned long long>(q->data.build.size()),
              static_cast<unsigned long long>(q->data.probe.size()),
              static_cast<unsigned long long>(q->expected_matches),
              layers.gen_s);

  // kRounds rounds of: set up (fresh pool + warm-up query, timed as
  // setup_s), then measure for seconds / kRounds. Spreading the run over
  // several pool instances keeps one instance's thread placement from
  // deciding the whole run's figures.
  Outcome out;
  MetricSink sink;
  std::vector<double> setup_s;
  std::vector<double> lat_ms;
  double measured_s = 0.0;
  // Traced run only: untraced and traced queries alternate, so both see
  // the same machine state; only the traced ones feed the span metrics.
  SpanRecorder rec;
  std::vector<double> traced_ms;
  std::vector<std::map<std::string, double>> op_ms;
  CounterTally tally;
  int64_t qid = 0;
  for (int round = 0; round < kRounds; ++round) {
    PoolSetup setup;
    const auto t0 = Clock::now();
    setup.Create(kThreads);
    Outcome warm;  // the warm-up is set-up, not a measured attempt
    if (!RunQuery(setup.pool.get(), *q, nullptr, &warm)) {
      return WrongResult(warm);
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));

    TracingBackend traced(setup.pool.get(), &rec, /*tid=*/1);
    const auto start = Clock::now();
    while (SecondsBetween(start, Clock::now()) < o.seconds / kRounds) {
      if (!RunQuery(setup.pool.get(), *q, &lat_ms, &out)) {
        return WrongResult(out);
      }
      if (!o.trace) continue;
      setup.pool->TakeCounters();
      JoinReport report;
      const size_t before = traced_ms.size();
      bool right = true;
      TimedSpan(&rec, "query", "query", 1, qid, [&] {
        right = RunQuery(&traced, *q, &traced_ms, &out, &report);
      });
      if (!right) return WrongResult(out);
      tally.Add(setup.pool->TakeCounters());
      if (traced_ms.size() > before) op_ms.push_back(OperatorsOf(report));
      ++qid;
    }
    measured_s += SecondsBetween(start, Clock::now());
  }
  if (!o.trace) {
    AddEndToEnd(&sink, setup_s, lat_ms, out, measured_s, q->input_tuples());
    sink.PrintRecord(true, out.attempted, out.failed);
    return 0;
  }

  const double p50 = Median(lat_ms);
  FillFromSpans(rec, static_cast<int>(qid), &layers);
  layers.morsels_per_query = static_cast<double>(tally.morsels) / qid;
  layers.worker_items_max_over_mean = tally.MaxOverMean();
  layers.operator_ms = OperatorMs(op_ms);
  layers.overhead_frac = p50 > 0 ? Median(traced_ms) / p50 - 1.0 : 0.0;

  // Thread scaling: the same query on an exclusive 1-thread pool.
  PhaseSpan(&rec, "scaling.1t", [&] {
    layers.t1_ms = ExclusiveP50(*q, 1, 6, o.seconds / 2, &out);
  });
  if (!out.wrong.empty()) return WrongResult(out);
  layers.scaling_x = p50 > 0 ? layers.t1_ms / p50 : 0.0;

  ContentionProbes(&rec, &layers);
  // The star plan filters the dimension before joining, so its floor is
  // the unfiltered join and its count is not the plan's match count.
  if (!Baselines(&rec, *q, p50, o.kind != WorkloadKind::kStarGroupBy, &layers,
                 &out)) {
    return WrongResult(out);
  }
  if (!WriteTrace(o, rec)) return 3;
  AddLayers(&sink, layers);
  sink.PrintRecord(true, out.attempted, out.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// Service workload (open loop)
// ---------------------------------------------------------------------------

struct ServiceSetup {
  std::unique_ptr<apujoin::service::JoinService> svc;
  std::vector<std::unique_ptr<apujoin::service::Session>> sessions;

  ~ServiceSetup() { Close(); }
  void Close() {
    sessions.clear();  // sessions drain and close before their service
    svc.reset();
  }
};

struct LoopResult {
  std::vector<double> lat_ms;
  std::vector<double> queue_ms;
  double wall_s = 0.0;
  double lag_ms_max = 0.0;
  int pending_max = 0;
  uint64_t rejected = 0;

  void Merge(const LoopResult& o) {
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
    wall_s += o.wall_s;
    lag_ms_max = std::max(lag_ms_max, o.lag_ms_max);
    pending_max = std::max(pending_max, o.pending_max);
    rejected += o.rejected;
  }
};

/// Checks one completed service request against its oracle.
std::string CheckTicket(const ServiceInputs& in, bool is_plan,
                        const JoinReport& report) {
  return is_plan ? in.CheckCount(report) : in.join->Check(report);
}

/// Opens the service and its sessions and runs one warm-up request of each
/// shape per session. Returns false (with out->wrong set) on a wrong result.
bool OpenService(const ServiceInputs& in, ServiceSetup* s, Outcome* out) {
  s->Close();
  apujoin::service::ServiceOptions so;
  so.exec.backend = apujoin::exec::BackendKind::kThreadPool;
  so.exec.threads = kThreads;
  so.max_sessions = kSessions;
  so.queue_capacity = kServiceQueueCapacity;
  s->svc = std::make_unique<apujoin::service::JoinService>(so);
  for (int i = 0; i < kSessions; ++i) {
    apujoin::service::SessionOptions opts;
    opts.spec = in.join->plan.exec;
    opts.slots = 1;
    auto session = s->svc->OpenSession(std::move(opts));
    APU_CHECK_OK(session.status());
    s->sessions.push_back(std::move(session).value());
  }
  for (auto& session : s->sessions) {
    for (bool is_plan : {false, true}) {
      auto ticket = is_plan ? session->Submit(*in.count_plan)
                            : session->Submit(in.join->data);
      APU_CHECK_OK(ticket.status());
      auto report = ticket->Take();
      APU_CHECK_OK(report.status());
      out->wrong = CheckTicket(in, is_plan, *report);
      if (!out->wrong.empty()) return false;
    }
  }
  return true;
}

/// Open-loop load: one generator thread sends at kServiceRate for
/// `seconds`, alternating request shapes across the sessions, and polls
/// outstanding tickets. Latency runs from each request's scheduled send
/// time to the observed completion. `rec` (nullable) receives send and
/// ticket spans and pending-depth samples.
LoopResult OpenLoop(ServiceSetup* s, const ServiceInputs& in, double seconds,
                    SpanRecorder* rec, Outcome* out) {
  struct Pending {
    apujoin::service::JoinTicket ticket;
    double sched_us;
    bool is_plan;
    int session;
  };
  LoopResult r;
  std::vector<Pending> outstanding;
  const double interval_us = 1e6 / kServiceRate;
  const double start_us = NowUs();
  const double end_us = start_us + seconds * 1e6;
  double next_us = start_us;
  double last_done_us = start_us;
  uint64_t sent = 0;
  int last_pending = -1;
  for (;;) {
    double now = NowUs();
    while (next_us <= now && next_us < end_us) {
      const bool is_plan = sent % 2 == 1;
      const int session = static_cast<int>((sent / 2) % kSessions);
      auto ticket = is_plan ? s->sessions[session]->Submit(*in.count_plan)
                            : s->sessions[session]->Submit(in.join->data);
      const double sent_us = NowUs();
      r.lag_ms_max = std::max(r.lag_ms_max, (sent_us - next_us) / 1e3);
      ++out->attempted;
      if (rec != nullptr) {
        Span sp;
        sp.name = is_plan ? "send.plan" : "send.join";
        sp.cat = "send";
        sp.tid = 2;
        sp.ts_us = next_us;
        sp.dur_us = sent_us - next_us;
        sp.query = static_cast<int64_t>(sent);
        sp.args = ticket.ok() ? "\"accepted\": true" : "\"accepted\": false";
        rec->Add(std::move(sp));
      }
      if (ticket.ok()) {
        outstanding.push_back({std::move(ticket).value(), next_us, is_plan,
                               session});
      } else {
        ++out->failed;
        ++r.rejected;
      }
      ++sent;
      next_us = start_us + static_cast<double>(sent) * interval_us;
      now = NowUs();
    }
    for (size_t i = 0; i < outstanding.size();) {
      Pending& p = outstanding[i];
      if (!p.ticket.done()) {
        ++i;
        continue;
      }
      const double done_us = NowUs();
      last_done_us = std::max(last_done_us, done_us);
      auto report = p.ticket.Take();
      if (!report.ok()) {
        ++out->failed;
      } else {
        out->wrong = CheckTicket(in, p.is_plan, *report);
        if (!out->wrong.empty()) return r;
        const double lat = (done_us - p.sched_us) / 1e3;
        const double queue = lat - report->elapsed_ns / 1e6;
        r.lat_ms.push_back(lat);
        r.queue_ms.push_back(queue);
        if (rec != nullptr) {
          Span sp;
          sp.name = p.is_plan ? "ticket.plan" : "ticket.join";
          sp.cat = "ticket";
          sp.tid = 10 + p.session;
          sp.ts_us = p.sched_us;
          sp.dur_us = done_us - p.sched_us;
          char args[96];
          std::snprintf(args, sizeof(args),
                        "\"queue_ms\": %.4f, \"exec_ms\": %.4f", queue,
                        report->elapsed_ns / 1e6);
          sp.args = args;
          rec->Add(std::move(sp));
        }
      }
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
    }
    const int pending = s->svc->pending();
    r.pending_max = std::max(r.pending_max, pending);
    if (rec != nullptr && pending != last_pending) {
      rec->Counter("service.pending", NowUs(), pending);
      last_pending = pending;
    }
    if (now >= end_us && next_us >= end_us && outstanding.empty()) break;
    const double wake_us = std::min(next_us, NowUs() + 50.0);
    const double sleep_us = wake_us - NowUs();
    if (sleep_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(sleep_us));
    }
  }
  r.wall_s = (last_done_us - start_us) / 1e6;
  return r;
}

int RunService(const Options& o) {
  const auto g0 = Clock::now();
  ServiceInputs in = MakeService(o.seed, o.corrupt);
  LayerReport layers;
  layers.gen_s = SecondsBetween(g0, Clock::now());
  layers.match_frac = static_cast<double>(in.join->expected_matches) /
                      static_cast<double>(in.join->data.probe.size());
  const uint64_t tuples = in.join->input_tuples();

  // kRounds rounds of: open the service and its sessions and warm them up
  // (timed as setup_s), then run the open loop for seconds / kRounds — on
  // the traced run an untraced half followed by a traced half.
  Outcome out;
  MetricSink sink;
  std::vector<double> setup_s;
  ServiceSetup s;
  SpanRecorder rec;
  LoopResult plain, traced;
  int peak = 0;
  const double slice = o.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = Clock::now();
    if (!OpenService(in, &s, &out)) return WrongResult(out);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    plain.Merge(OpenLoop(&s, in, o.trace ? slice / 2 : slice, nullptr, &out));
    if (!out.wrong.empty()) return WrongResult(out);
    if (!o.trace) continue;
    traced.Merge(OpenLoop(&s, in, slice / 2, &rec, &out));
    if (!out.wrong.empty()) return WrongResult(out);
    for (const auto& session : s.sessions) {
      const apujoin::exec::LeaseStats* ls = session->lease_stats();
      if (ls == nullptr) continue;
      peak = std::max(peak, ls->peak_workers);
      if (ls->peak_workers > session->slots()) {
        out.wrong = "session " + std::to_string(session->id()) + " used " +
                    std::to_string(ls->peak_workers) + " workers, quota " +
                    std::to_string(session->slots());
        return WrongResult(out);
      }
    }
  }
  std::printf("service: rejected=%llu pending_max=%d lag_ms_max=%.3f\n",
              static_cast<unsigned long long>(plain.rejected +
                                              traced.rejected),
              std::max(plain.pending_max, traced.pending_max),
              std::max(plain.lag_ms_max, traced.lag_ms_max));
  if (!o.trace) {
    AddEndToEnd(&sink, setup_s, plain.lat_ms, out, plain.wall_s, tuples);
    sink.PrintRecord(true, out.attempted, out.failed);
    return 0;
  }

  const double p50 = Median(plain.lat_ms);
  layers.overhead_frac = p50 > 0 ? Median(traced.lat_ms) / p50 - 1.0 : 0.0;
  layers.queue_ms_p50 = Median(traced.queue_ms);
  layers.queue_ms_tail = TailOf(traced.queue_ms).value;
  layers.pending_max = std::max(plain.pending_max, traced.pending_max);
  layers.rejected = static_cast<double>(plain.rejected + traced.rejected);
  layers.lag_ms_max = std::max(plain.lag_ms_max, traced.lag_ms_max);
  layers.peak_workers = peak;

  // Direct pass: the same two request shapes through a traced quota-1
  // lease of the (now idle) service substrate, which exposes the exec
  // spans and self time the service hides.
  auto* pool = dynamic_cast<ThreadPoolBackend*>(&s.svc->substrate());
  APU_CHECK(pool != nullptr);
  {
    SimContext ctx;
    TracingBackend lease(s.svc->substrate().Lease(&ctx, 1), &rec, 3);
    CounterTally tally;
    pool->TakeCounters();
    std::vector<std::map<std::string, double>> op_ms;
    for (int64_t i = 0; i < kDirectServiceQueries; ++i) {
      const bool is_plan = i % 2 == 1;
      apujoin::StatusOr<JoinReport> report =
          apujoin::Status::Internal("not run");
      TimedSpan(&rec, "query", is_plan ? "query.plan" : "query.join", 3,
                kDirectQueryIds + i, [&] {
                  report = ExecutePlan(
                      &lease, is_plan ? *in.count_plan : in.join->plan);
                });
      ++out.attempted;
      if (!report.ok()) {
        ++out.failed;
        std::printf("query failed: %s\n",
                    report.status().ToString().c_str());
        continue;
      }
      out.wrong = CheckTicket(in, is_plan, *report);
      if (!out.wrong.empty()) return WrongResult(out);
      op_ms.push_back(OperatorsOf(*report));
    }
    tally.Add(pool->TakeCounters());
    FillFromSpans(rec, kDirectServiceQueries, &layers);
    layers.morsels_per_query =
        static_cast<double>(tally.morsels) / kDirectServiceQueries;
    layers.worker_items_max_over_mean = tally.MaxOverMean();
    layers.operator_ms = OperatorMs(op_ms);
  }

  // Thread scaling of the join request on exclusive 1- and 4-thread pools.
  double p50_4t = 0.0;
  PhaseSpan(&rec, "scaling", [&] {
    layers.t1_ms =
        ExclusiveP50(*in.join, 1, kDirectServiceQueries, 1e9, &out);
    p50_4t =
        ExclusiveP50(*in.join, kThreads, kDirectServiceQueries, 1e9, &out);
  });
  if (!out.wrong.empty()) return WrongResult(out);
  layers.scaling_x = p50_4t > 0 ? layers.t1_ms / p50_4t : 0.0;

  ContentionProbes(&rec, &layers);
  if (!Baselines(&rec, *in.join, p50, true, &layers, &out)) {
    return WrongResult(out);
  }
  if (!WriteTrace(o, rec)) return 3;
  AddLayers(&sink, layers);
  sink.PrintRecord(true, out.attempted, out.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      o->workload = v;
      if (!ParseWorkload(o->workload, &o->kind)) return false;
      have_workload = true;
    } else if (const char* v = value("--seed=")) {
      o->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (const char* v = value("--seconds=")) {
      o->seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(o->seconds > 0) ||
          o->seconds > 600) {
        return false;
      }
    } else if (const char* v = value("--trace=")) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o->trace = v[0] == '1';
    } else if (const char* v = value("--trace-dir=")) {
      o->trace_dir = v;
    } else if (const char* v = value("--source-id=")) {
      o->source_id = v;
    } else if (a == "--corrupt-expectation") {
      o->corrupt = true;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: %s --workload=shj_probe_emit|phj_partition_wide|"
                 "plan_star_groupby|svc_open_loop --seed=N --seconds=S "
                 "--trace=0|1 [--trace-dir=DIR] [--source-id=ID] "
                 "[--corrupt-expectation]\n",
                 argv[0]);
    return 2;
  }
  perfbench::NowUs();  // fix the trace timebase
  perfbench::PrintFingerprint(o);
  return o.kind == perfbench::WorkloadKind::kSvcOpenLoop
             ? perfbench::RunService(o)
             : perfbench::RunAnalytic(o);
}
