// Request-scoped tracing: a per-request context propagated via TLS, a
// bounded per-request flight recorder, and a tail-based sampler that
// decides AFTER completion whether a request's full span record is worth
// keeping.
//
// A RequestContext is minted at scheduler admission (64-bit trace id,
// tenant, deadline, free-form baggage) and installed on the processing
// thread with ScopedRequestContext. The ThreadPool propagates the ambient
// context to its workers (util/parallel's context propagator), so spans
// opened inside ParallelFor bodies land in the right request.
//
// Span capture piggybacks on the PR-4 tracer: when the tracer's request
// mode is on, Tracer::RecordInterval forwards every completed span to the
// calling thread's current context (bounded buffer, drops counted). The
// disabled hot path is unchanged: one relaxed load in Span, nothing else.
//
// Tail sampling: RequestTraceRecorder::FinishRequest keeps the full record
// only when the request was shed (kOverloaded), degraded (kDataLoss),
// errored, slow (above an explicit threshold, or above the rolling p99 of
// the recorder's own latency histogram once it has enough samples), or
// head-sampled 1-in-N. Everything else has already folded into the global
// per-stage histograms and is simply dropped. Retained records export as
// per-request Chrome-trace lanes (trace_export.h) and feed the
// `mgardp trace-report` subcommand.

#ifndef MGARDP_OBS_REQUEST_TRACE_H_
#define MGARDP_OBS_REQUEST_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/tracer.h"
#include "util/histogram.h"
#include "util/status.h"

namespace mgardp {
namespace obs {

// Per-request identity plus the flight-recorder buffer. Created via
// Create(), always heap-allocated behind a shared_ptr.
class RequestContext {
 public:
  static std::shared_ptr<RequestContext> Create(std::uint64_t trace_id,
                                                std::string tenant,
                                                double deadline_ms,
                                                std::string baggage,
                                                std::size_t max_spans);

  std::uint64_t trace_id() const { return trace_id_; }
  const std::string& tenant() const { return tenant_; }
  double deadline_ms() const { return deadline_ms_; }
  const std::string& baggage() const { return baggage_; }

  // Thread-safe append; past `max_spans` the span is dropped and counted.
  void AppendSpan(const TraceEvent& event);

  std::vector<TraceEvent> spans() const;
  std::uint64_t spans_dropped() const {
    return spans_dropped_.load(std::memory_order_relaxed);
  }

 private:
  RequestContext(std::uint64_t trace_id, std::string tenant,
                 double deadline_ms, std::string baggage,
                 std::size_t max_spans);

  const std::uint64_t trace_id_;
  const std::string tenant_;
  const double deadline_ms_;
  const std::string baggage_;
  const std::size_t max_spans_;

  mutable std::mutex mu_;
  std::vector<TraceEvent> spans_;
  std::atomic<std::uint64_t> spans_dropped_{0};
};

// Installs `ctx` as the calling thread's current request for the scope's
// lifetime (restoring the previous one on exit; scopes nest). A null ctx
// is a no-op scope. The raw Current() pointer is what the tracer and the
// pool propagator read.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(std::shared_ptr<RequestContext> ctx);
  ~ScopedRequestContext();

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

  static RequestContext* Current();
  // 0 when no context is installed.
  static std::uint64_t CurrentTraceId();

 private:
  std::shared_ptr<RequestContext> ctx_;
  RequestContext* prev_;
};

// Tracer::RecordInterval's forwarding hook: appends `event` to the calling
// thread's current request, if any. Only called when request mode is on.
void AppendSpanToCurrentRequest(const TraceEvent& event);

// The tail-sampling flight recorder. Thread-safe; one per serving loop.
class RequestTraceRecorder {
 public:
  struct Options {
    // Flight-recorder buffer per request; spans beyond it drop (counted).
    std::size_t max_spans_per_request = 256;
    // Retained full records; oldest evicted first (counted).
    std::size_t max_retained = 256;
    // Explicit slow threshold. 0 selects the rolling-p99 rule: a request
    // is slow when it exceeds the recorder's own latency p99, once
    // min_latency_samples finished requests have been observed.
    double slow_threshold_ms = 0.0;
    std::uint64_t min_latency_samples = 64;
    // Keep 1-in-N regardless of outcome; 0 disables head sampling.
    std::uint64_t head_sample_every = 0;
  };

  struct Stats {
    std::uint64_t started = 0;
    std::uint64_t finished = 0;
    std::uint64_t retained = 0;
    std::uint64_t evicted = 0;
    std::uint64_t kept_slow = 0;
    std::uint64_t kept_error = 0;
    std::uint64_t kept_degraded = 0;
    std::uint64_t kept_shed = 0;
    std::uint64_t kept_head = 0;
  };

  // One retained request: the full context plus its outcome.
  struct Retained {
    std::shared_ptr<RequestContext> ctx;
    const char* reason = "";  // "shed"|"degraded"|"error"|"slow"|"head"
    StatusCode code = StatusCode::kOk;
    double latency_ms = 0.0;
  };

  RequestTraceRecorder();
  explicit RequestTraceRecorder(Options options);

  RequestTraceRecorder(const RequestTraceRecorder&) = delete;
  RequestTraceRecorder& operator=(const RequestTraceRecorder&) = delete;

  // Mints a context for an admitted request.
  std::shared_ptr<RequestContext> StartRequest(std::string tenant,
                                               double deadline_ms,
                                               std::string baggage);

  // Applies the tail-sampling policy. Null ctx is ignored. `status` is the
  // request's final status; latency feeds the rolling-p99 estimate whether
  // or not the record is kept.
  void FinishRequest(const std::shared_ptr<RequestContext>& ctx,
                     const Status& status, double latency_ms);

  // A request shed at admission (kOverloaded) never executes, but its
  // rejection is exactly the kind of event the tail sampler must keep:
  // this mints a minimal context and retains it immediately.
  void RecordShed(std::string tenant, std::string baggage);

  std::vector<Retained> retained() const;
  Stats stats() const;

 private:
  void Retain(Retained record);

  const Options options_;
  Histogram latency_ms_;
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::atomic<std::uint64_t> head_counter_{0};
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> finished_{0};

  mutable std::mutex mu_;
  std::deque<Retained> retained_;
  Stats tail_;  // retained/evicted/kept_* counters, guarded by mu_
};

}  // namespace obs
}  // namespace mgardp

#endif  // MGARDP_OBS_REQUEST_TRACE_H_
