// Figure 22 (repo extension): concurrent join sessions on one shared pool.
//
// The paper tunes one join at a time; a join *service* runs many sessions
// against the same cores. This bench quantifies what the multiplexing
// layer buys and what the fair-share quotas cost:
//
//   Part A — four sessions, equal total work: a stream of service-sized
//   SHJ queries (fixed 1K x 4K tuples — the regime a shared engine
//   exists for; REPRO_FULL / REPRO_SCALE scale the query count) runs
//   4 concurrent closed-loop sessions through the JoinService vs the
//   identical joins serialized back-to-back on an exclusively-owned
//   full-pool backend. Serialized execution forks every step span across
//   the whole pool — a wake/handoff round-trip per span that rivals the
//   span's kernel at this query size — and idles the other workers
//   through each join's serial fractions (planning, engine setup, merge,
//   report). Quota-1 sessions run spans caller-only with zero handoff
//   and, given real cores, overlap their serial fractions; the aggregate
//   clears 2x serialized throughput even on a single-core host, and
//   grows from there with hardware threads. Both paths are warmed first
//   and timed best-of-3 (steady state, not first-touch page faults);
//   latency percentiles come from the client side.
//
//   Part B — fairness under a mixed load: one big PHJ session (quota 2)
//   next to three small SHJ sessions (quota 1 each). The per-session
//   latency table shows the small sessions keep serving while the giant
//   runs, and the lease stats prove no session ever exceeded its quota.
//
// Defaults to --backend=threads (the service substrate; --backend=sim
// still works and stays bit-identical to solo runs) and a 4-slot pool
// when --threads is not given.

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/join_service.h"

namespace apujoin::bench {
namespace {

constexpr int kSessions = 4;

/// Service workloads are many *small* queries — the per-join size is fixed
/// (the regime where a shared engine matters; big analytic joins are the
/// single-query figures' territory) and REPRO_FULL / REPRO_SCALE scale the
/// query count instead.
constexpr uint64_t kBuildTuples = 1024;
constexpr uint64_t kProbeTuples = 4096;

int JoinsPerSession() {
  const double scaled = 64.0 * BenchScale();
  return std::max(8, static_cast<int>(scaled));
}

using Clock = std::chrono::steady_clock;

double SecsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PercentileMs(std::vector<double> lat_s, double q) {
  if (lat_s.empty()) return 0.0;
  std::sort(lat_s.begin(), lat_s.end());
  const size_t idx = std::min(
      lat_s.size() - 1,
      static_cast<size_t>(q * static_cast<double>(lat_s.size())));
  return lat_s[idx] * 1e3;
}

coproc::JoinSpec MakeSpec(coproc::Algorithm algo) {
  coproc::JoinSpec spec;
  spec.algorithm = algo;
  spec.scheme = coproc::Scheme::kPipelined;
  ApplyBackend(&spec);
  return spec;
}

/// One closed-loop client: synchronous joins through its session,
/// client-side latency per join.
struct Client {
  service::Session* session = nullptr;
  const data::Workload* workload = nullptr;
  int joins = 0;
  std::vector<double> latencies_s;

  void Run() {
    latencies_s.reserve(static_cast<size_t>(joins));
    for (int i = 0; i < joins; ++i) {
      const auto t0 = Clock::now();
      auto report = session->Join(*workload);
      APU_CHECK_OK(report.status());
      APU_CHECK(report->matches == workload->expected_matches);
      latencies_s.push_back(SecsSince(t0));
    }
  }
};

struct ModeResult {
  double wall_s = 0.0;
  std::vector<double> latencies_s;
};

void AddModeRow(TablePrinter* table, const char* mode, int joins,
                const ModeResult& r) {
  const double tput = static_cast<double>(joins) / r.wall_s;
  table->AddRow({mode, std::to_string(joins), TablePrinter::Fmt(r.wall_s, 3),
                 TablePrinter::Fmt(tput, 1),
                 TablePrinter::Fmt(PercentileMs(r.latencies_s, 0.50), 1),
                 TablePrinter::Fmt(PercentileMs(r.latencies_s, 0.95), 1),
                 TablePrinter::Fmt(PercentileMs(r.latencies_s, 0.99), 1)});
}

void EmitModeMetrics(const char* mode, int joins, const ModeResult& r) {
  g_json.AddMetric(std::string(mode) + "_throughput_jps",
                   static_cast<double>(joins) / r.wall_s);
  g_json.AddMetric(std::string(mode) + "_p50_ms",
                   PercentileMs(r.latencies_s, 0.50));
  g_json.AddMetric(std::string(mode) + "_p95_ms",
                   PercentileMs(r.latencies_s, 0.95));
  g_json.AddMetric(std::string(mode) + "_p99_ms",
                   PercentileMs(r.latencies_s, 0.99));
}

// ---------------------------------------------------------------------------
// Part A: equal work, serialized vs concurrent
// ---------------------------------------------------------------------------

/// One timed pass of the serialized baseline: the identical joins
/// back-to-back on an exclusively-owned full-pool backend. The joiner is
/// constructed (and warmed) by the caller so trials measure steady state,
/// not first-touch page faults.
ModeResult SerializedPass(core::CoupledJoiner* joiner,
                          const data::Workload& w, int joins) {
  ModeResult r;
  const auto t0 = Clock::now();
  for (int i = 0; i < joins; ++i) {
    const auto tq = Clock::now();
    auto report = joiner->Join(w);
    APU_CHECK_OK(report.status());
    r.latencies_s.push_back(SecsSince(tq));
  }
  r.wall_s = SecsSince(t0);
  return r;
}

/// One timed pass of the service: kSessions closed-loop clients, each
/// through its own (pre-opened, warmed) session.
ModeResult ConcurrentPass(std::vector<service::Session*> sessions,
                          const data::Workload& w, int joins_per_session) {
  std::vector<Client> clients(sessions.size());
  for (size_t s = 0; s < sessions.size(); ++s) {
    clients[s].session = sessions[s];
    clients[s].workload = &w;
    clients[s].joins = joins_per_session;
  }
  ModeResult r;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (Client& c : clients) threads.emplace_back([&c] { c.Run(); });
  for (std::thread& t : threads) t.join();
  r.wall_s = SecsSince(t0);
  for (Client& c : clients) {
    r.latencies_s.insert(r.latencies_s.end(), c.latencies_s.begin(),
                         c.latencies_s.end());
  }
  return r;
}

double RunEqualWork() {
  const data::Workload w = MakeWorkload(kBuildTuples, kProbeTuples);
  const int total_joins = kSessions * JoinsPerSession();
  constexpr int kTrials = 3;

  core::JoinConfig config;
  config.spec = MakeSpec(coproc::Algorithm::kSHJ);
  core::CoupledJoiner joiner(config);

  service::ServiceOptions sopts;
  sopts.exec.backend = g_flags.exec.backend;
  sopts.exec.threads = g_flags.exec.threads;
  sopts.exec.morsel_items = g_flags.exec.morsel_items;
  sopts.max_sessions = kSessions;
  service::JoinService svc(sopts);
  std::vector<std::unique_ptr<service::Session>> sessions;
  std::vector<service::Session*> session_ptrs;
  for (int s = 0; s < kSessions; ++s) {
    service::SessionOptions o;
    o.spec = MakeSpec(coproc::Algorithm::kSHJ);
    auto session = svc.OpenSession(std::move(o));
    APU_CHECK_OK(session.status());
    session_ptrs.push_back(session->get());
    sessions.push_back(std::move(*session));
  }

  // Warm both paths (allocator arenas, page residency, branch state), then
  // interleave best-of-N trials so host noise hits both modes alike.
  auto warm = joiner.Join(w);
  APU_CHECK_OK(warm.status());
  g_json.AddJoin(*warm);
  ConcurrentPass(session_ptrs, w, 1);
  ModeResult serial;
  ModeResult conc;
  for (int t = 0; t < kTrials; ++t) {
    ModeResult s = SerializedPass(&joiner, w, total_joins);
    if (t == 0 || s.wall_s < serial.wall_s) serial = std::move(s);
    ModeResult c = ConcurrentPass(session_ptrs, w, JoinsPerSession());
    if (t == 0 || c.wall_s < conc.wall_s) conc = std::move(c);
  }
  sessions.clear();  // close sessions before the service

  std::printf("\nPart A — equal total work (%d x %s-tuple SHJ joins, "
              "best of %d trials)\n",
              total_joins, TablePrinter::FmtCount(w.probe.size()).c_str(),
              kTrials);
  TablePrinter table({"mode", "joins", "wall(s)", "joins/s", "p50(ms)",
                      "p95(ms)", "p99(ms)"});
  AddModeRow(&table, "serialized", total_joins, serial);
  AddModeRow(&table, "4 sessions", total_joins, conc);
  table.Print();

  const double speedup = serial.wall_s / conc.wall_s;
  std::printf("\naggregate throughput: %.2fx serialized\n", speedup);
  std::printf("(%u hardware threads; on a single-core host the speedup is "
              "bounded by the\n span-coordination overhead the sessions "
              "avoid — the per-join serial fractions\n only overlap on real "
              "cores)\n",
              std::thread::hardware_concurrency());
  EmitModeMetrics("serialized", total_joins, serial);
  EmitModeMetrics("concurrent", total_joins, conc);
  g_json.AddMetric("concurrent_speedup", speedup);
  return speedup;
}

// ---------------------------------------------------------------------------
// Part B: one giant PHJ next to small SHJ sessions
// ---------------------------------------------------------------------------

void RunFairness() {
  const data::Workload big =
      MakeWorkload(Scaled(1ull << 20), Scaled(2ull << 20));
  const data::Workload small =
      MakeWorkload(Scaled(1ull << 16), Scaled(1ull << 18));

  service::ServiceOptions sopts;
  sopts.exec.backend = g_flags.exec.backend;
  sopts.exec.threads = g_flags.exec.threads;
  sopts.exec.morsel_items = g_flags.exec.morsel_items;
  sopts.max_sessions = kSessions;
  service::JoinService svc(sopts);

  std::vector<std::unique_ptr<service::Session>> sessions;
  std::vector<Client> clients(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    const bool is_big = s == 0;
    service::SessionOptions o;
    o.spec = MakeSpec(is_big ? coproc::Algorithm::kPHJ
                             : coproc::Algorithm::kSHJ);
    o.slots = is_big ? 2 : 1;  // the giant is capped at half the pool
    auto session = svc.OpenSession(std::move(o));
    APU_CHECK_OK(session.status());
    clients[static_cast<size_t>(s)].session = session->get();
    clients[static_cast<size_t>(s)].workload = is_big ? &big : &small;
    clients[static_cast<size_t>(s)].joins = is_big ? 2 : JoinsPerSession();
    sessions.push_back(std::move(*session));
  }
  std::vector<std::thread> threads;
  for (Client& c : clients) threads.emplace_back([&c] { c.Run(); });
  for (std::thread& t : threads) t.join();

  std::printf("\nPart B — fairness: giant PHJ (quota 2) vs small SHJs "
              "(quota 1)\n");
  TablePrinter table({"session", "algo", "quota", "joins", "p50(ms)",
                      "p95(ms)", "peak workers"});
  for (int s = 0; s < kSessions; ++s) {
    const Client& c = clients[static_cast<size_t>(s)];
    const exec::LeaseStats* ls = c.session->lease_stats();
    const int peak = ls != nullptr ? ls->peak_workers : 1;
    APU_CHECK(peak <= c.session->slots());
    table.AddRow({"s" + std::to_string(s), s == 0 ? "PHJ" : "SHJ",
                  std::to_string(c.session->slots()),
                  std::to_string(c.joins),
                  TablePrinter::Fmt(PercentileMs(c.latencies_s, 0.50), 1),
                  TablePrinter::Fmt(PercentileMs(c.latencies_s, 0.95), 1),
                  std::to_string(peak)});
    if (s == 0 || s == 1) {
      g_json.AddMetric(std::string("fairness_") + (s == 0 ? "big" : "small") +
                           "_p95_ms",
                       PercentileMs(c.latencies_s, 0.95));
    }
  }
  table.Print();
  std::printf("\nno session exceeded its worker-slot quota\n");
  sessions.clear();
}

void Run() {
  PrintBanner("Figure 22",
              "concurrent sessions: throughput, tail latency, fairness");
  int pool_slots = g_flags.exec.threads;
  if (pool_slots <= 0) {  // 0 = hardware concurrency (pool normalizes too)
    pool_slots = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  std::printf("pool: %d worker slots, %d sessions\n", pool_slots, kSessions);
  const double speedup = RunEqualWork();
  RunFairness();
  if (g_flags.exec.backend == exec::BackendKind::kThreadPool) {
    std::printf("\n4-session speedup over serialized: %.2fx (target >= 2x)\n",
                speedup);
  }
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  // This bench is about the service substrate: default to real threads (a
  // 4-slot pool) unless the caller chose explicitly.
  if (!apujoin::bench::g_flags.backend_set) {
    apujoin::bench::g_flags.exec.backend =
        apujoin::exec::BackendKind::kThreadPool;
  }
  if (!apujoin::bench::g_flags.threads_set) {
    apujoin::bench::g_flags.exec.threads = 4;
  }
  apujoin::bench::Run();
}
