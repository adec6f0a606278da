// Tracing for the traced benchmark run: an in-memory span recorder written
// out as Chrome trace-event JSON at exit (viewable in Perfetto), and a
// forwarding exec::Backend decorator that times every span the pipeline
// runner launches, by step name and device.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; nothing inside src/ is instrumented.

#ifndef APUJOIN_PERFBENCH_TRACE_H_
#define APUJOIN_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/backend.h"

namespace perfbench {

/// One completed span. `query` ties exec spans to the query that caused
/// them (-1 = none).
struct Span {
  std::string name;
  std::string cat;  ///< "query", "exec", "ticket", "send", "probe", ...
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int64_t query = -1;
  uint64_t items = 0;
  int device = -1;  ///< simcl::DeviceId for exec spans
  std::string args;  ///< extra JSON members, e.g. "\"queue_ms\": 1.2"
};

/// Single-writer span store (every span is recorded by the client thread).
class SpanRecorder {
 public:
  void Add(Span s) { spans_.push_back(std::move(s)); }
  /// Counter sample ("ph": "C") — e.g. the service's pending() depth.
  void Counter(const std::string& name, double ts_us, double value);

  /// Query id stamped on exec spans recorded from now on.
  void set_query(int64_t q) { query_ = q; }
  int64_t query() const { return query_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span and counter as Chrome trace-event JSON. Returns
  /// false when the file cannot be written.
  bool WriteChrome(const std::string& path) const;

 private:
  struct CounterSample {
    std::string name;
    double ts_us;
    double value;
  };
  std::vector<Span> spans_;
  std::vector<CounterSample> counters_;
  int64_t query_ = -1;
};

/// Per-query decomposition computed from the recorded spans.
struct QueryBreakdown {
  double wall_us = 0.0;
  double exec_us = 0.0;  ///< union of the query's exec span intervals
  double self_us() const { return wall_us - exec_us; }
};

/// Self time per query: each "query" span's duration minus the part of its
/// interval covered by exec spans carrying its query id.
std::vector<QueryBreakdown> BreakDownQueries(const SpanRecorder& rec);

/// Per-step totals over every non-empty exec span.
struct StepTotals {
  double ns = 0.0;
  uint64_t items = 0;
  uint64_t spans = 0;
};
std::map<std::string, StepTotals> TotalsByStep(const SpanRecorder& rec);

/// Forwarding backend decorator: every virtual goes to the wrapped backend
/// (so async overlap, leases and rebinding behave exactly as without it);
/// RunSpan and SubmitSpan/Wait additionally record one exec span each.
class TracingBackend : public apujoin::exec::Backend {
 public:
  TracingBackend(apujoin::exec::Backend* inner, SpanRecorder* rec, int tid);
  /// Owning form, used for traced leases.
  TracingBackend(std::unique_ptr<apujoin::exec::Backend> inner,
                 SpanRecorder* rec, int tid);

  apujoin::exec::BackendKind kind() const override { return inner_->kind(); }

  apujoin::simcl::StepStats RunSpan(const apujoin::join::StepDef& step,
                                    apujoin::simcl::DeviceId dev,
                                    uint64_t begin, uint64_t end) override;

  std::unique_ptr<JobHandle> SubmitSpan(const apujoin::join::StepDef& step,
                                        apujoin::simcl::DeviceId dev,
                                        uint64_t begin, uint64_t end,
                                        int slots = 1) override;

  apujoin::simcl::StepStats Wait(JobHandle* handle,
                                 double* done_fraction = nullptr) override;

  void Rebind(apujoin::simcl::SimContext* ctx) override;
  int capacity() const override { return inner_->capacity(); }
  std::unique_ptr<apujoin::exec::Backend> Lease(
      apujoin::simcl::SimContext* ctx, int slots) override;
  const apujoin::exec::LeaseStats* lease_stats() const override {
    return inner_->lease_stats();
  }

 private:
  void Record(const std::string& step, apujoin::simcl::DeviceId dev,
              uint64_t items, double t0_us, double t1_us, const char* cat);

  std::unique_ptr<apujoin::exec::Backend> owned_;
  apujoin::exec::Backend* inner_;
  SpanRecorder* rec_;
  int tid_;
};

}  // namespace perfbench

#endif  // APUJOIN_PERFBENCH_TRACE_H_
