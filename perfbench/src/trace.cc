#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "perfbench.h"

namespace perfbench {

using apujoin::exec::Backend;
using apujoin::join::StepDef;
using apujoin::simcl::DeviceId;
using apujoin::simcl::StepStats;

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void SpanRecorder::Counter(const std::string& name, double ts_us,
                           double value) {
  counters_.push_back({name, ts_us, value});
}

bool SpanRecorder::WriteChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"query\": %lld, \"items\": %llu",
                 first ? "" : ",\n", JsonEscape(s.name).c_str(),
                 JsonEscape(s.cat).c_str(), s.tid, s.ts_us, s.dur_us,
                 static_cast<long long>(s.query),
                 static_cast<unsigned long long>(s.items));
    if (s.device >= 0) {
      std::fprintf(f, ", \"device\": \"%s\"", s.device == 0 ? "cpu" : "gpu");
    }
    if (!s.args.empty()) std::fprintf(f, ", %s", s.args.c_str());
    std::fprintf(f, "}}");
    first = false;
  }
  for (const CounterSample& c : counters_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, "
                 "\"ts\": %.3f, \"args\": {\"value\": %.17g}}",
                 first ? "" : ",\n", JsonEscape(c.name).c_str(), c.ts_us,
                 c.value);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<QueryBreakdown> BreakDownQueries(const SpanRecorder& rec) {
  std::map<int64_t, QueryBreakdown> by_query;
  std::map<int64_t, std::vector<std::pair<double, double>>> intervals;
  for (const Span& s : rec.spans()) {
    if (s.query < 0) continue;
    if (s.cat == "query") {
      by_query[s.query].wall_us = s.dur_us;
    } else if (s.cat == "exec" || s.cat == "exec.async") {
      intervals[s.query].emplace_back(s.ts_us, s.ts_us + s.dur_us);
    }
  }
  std::vector<QueryBreakdown> out;
  for (auto& [q, qb] : by_query) {
    auto& iv = intervals[q];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_begin = 0.0;
    double cur_end = -1.0;
    for (const auto& [b, e] : iv) {
      if (b > cur_end) {
        if (cur_end > cur_begin) covered += cur_end - cur_begin;
        cur_begin = b;
        cur_end = e;
      } else {
        cur_end = std::max(cur_end, e);
      }
    }
    if (cur_end > cur_begin) covered += cur_end - cur_begin;
    qb.exec_us = covered;
    out.push_back(qb);
  }
  return out;
}

std::map<std::string, StepTotals> TotalsByStep(const SpanRecorder& rec) {
  std::map<std::string, StepTotals> out;
  for (const Span& s : rec.spans()) {
    if ((s.cat != "exec" && s.cat != "exec.async") || s.items == 0) continue;
    StepTotals& t = out[s.name];
    t.ns += s.dur_us * 1e3;
    t.items += s.items;
    ++t.spans;
  }
  return out;
}

// ---------------------------------------------------------------------------
// TracingBackend
// ---------------------------------------------------------------------------

namespace {

/// Async span in flight through the decorator: the wrapped backend's handle
/// plus what the exec span needs once Wait returns.
struct TracedHandle : Backend::JobHandle {
  std::unique_ptr<Backend::JobHandle> inner;
  std::string step;
  DeviceId dev = DeviceId::kCpu;
  uint64_t items = 0;
  double t0_us = 0.0;
};

}  // namespace

TracingBackend::TracingBackend(Backend* inner, SpanRecorder* rec, int tid)
    : Backend(inner->context()), inner_(inner), rec_(rec), tid_(tid) {}

TracingBackend::TracingBackend(std::unique_ptr<Backend> inner,
                               SpanRecorder* rec, int tid)
    : Backend(inner->context()),
      owned_(std::move(inner)),
      inner_(owned_.get()),
      rec_(rec),
      tid_(tid) {}

void TracingBackend::Record(const std::string& step, DeviceId dev,
                            uint64_t items, double t0_us, double t1_us,
                            const char* cat) {
  Span s;
  s.name = step;
  s.cat = cat;
  s.tid = tid_;
  s.ts_us = t0_us;
  s.dur_us = t1_us - t0_us;
  s.query = rec_->query();
  s.items = items;
  s.device = static_cast<int>(dev);
  rec_->Add(std::move(s));
}

StepStats TracingBackend::RunSpan(const StepDef& step, DeviceId dev,
                                  uint64_t begin, uint64_t end) {
  const double t0 = NowUs();
  StepStats stats = inner_->RunSpan(step, dev, begin, end);
  Record(step.name, dev, end > begin ? end - begin : 0, t0, NowUs(), "exec");
  return stats;
}

std::unique_ptr<Backend::JobHandle> TracingBackend::SubmitSpan(
    const StepDef& step, DeviceId dev, uint64_t begin, uint64_t end,
    int slots) {
  auto h = std::make_unique<TracedHandle>();
  h->step = step.name;
  h->dev = dev;
  h->items = end > begin ? end - begin : 0;
  h->t0_us = NowUs();
  h->inner = inner_->SubmitSpan(step, dev, begin, end, slots);
  return h;
}

StepStats TracingBackend::Wait(JobHandle* handle, double* done_fraction) {
  auto* h = static_cast<TracedHandle*>(handle);
  StepStats stats = inner_->Wait(h->inner.get(), done_fraction);
  Record(h->step, h->dev, h->items, h->t0_us, NowUs(), "exec.async");
  return stats;
}

void TracingBackend::Rebind(apujoin::simcl::SimContext* ctx) {
  Backend::Rebind(ctx);
  inner_->Rebind(ctx);
}

std::unique_ptr<Backend> TracingBackend::Lease(
    apujoin::simcl::SimContext* ctx, int slots) {
  return std::make_unique<TracingBackend>(inner_->Lease(ctx, slots), rec_,
                                          tid_);
}

}  // namespace perfbench
