// Admission control and execution for concurrent retrieval requests.
//
// The scheduler is the service's front door: clients Submit() refinement
// requests against their sessions; the scheduler admits them into a bounded
// queue (rejecting with kOverloaded when full, so overload sheds load
// instead of growing latency without bound) and Drain() fans the queued
// work across the shared PR-1 thread pool. Identical concurrent segment
// fetches are deduplicated below, in the shared SegmentCache's
// single-flight layer — two clients tightening on the same field hit the
// backend once.
//
// Fairness: requests carry an optional tenant id. Each tenant has its own
// FIFO (optionally capped by per_tenant_capacity, so one runaway client
// cannot consume the whole admission budget), and Drain() assembles batches
// round-robin — one request per tenant per pass — so a tenant submitting a
// burst of 100 cannot starve a tenant submitting 1. Within a tenant, order
// stays FIFO.
//
// Deadlines: a request's deadline_ms is mapped onto the RetryPolicy used
// for its segment fetches (ClampRetryToDeadline): the backoff schedule is
// truncated so its worst case fits inside the deadline, trading retries
// for bounded tail latency rather than cancelling mid-flight work.
//
// Threading: Submit() is thread-safe and non-blocking. Drain() runs every
// queued request (including ones submitted by callbacks while it drains,
// enabling refine-chain workloads) and returns when the queue is empty;
// callbacks run on pool threads. Two sessions are refined concurrently;
// requests against the SAME session serialize on the session's own lock.

#ifndef MGARDP_SERVICE_SCHEDULER_H_
#define MGARDP_SERVICE_SCHEDULER_H_

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "service/retrieval_session.h"
#include "service/service_metrics.h"
#include "util/retry.h"

namespace mgardp {

namespace obs {
class RequestContext;
class RequestTraceRecorder;
class SloMonitor;
}  // namespace obs

// Truncates `base`'s backoff schedule to fit a deadline: the delay ceiling
// drops to the deadline and max_attempts shrinks until the worst-case
// cumulative backoff fits within `deadline_ms`. At least one attempt always
// remains. deadline_ms <= 0 means "no deadline" and returns `base` as-is.
RetryPolicy::Options ClampRetryToDeadline(RetryPolicy::Options base,
                                          double deadline_ms);

class RetrievalScheduler {
 public:
  struct Options {
    std::size_t queue_capacity = 256;
    double default_deadline_ms = 0.0;  // 0: requests carry no deadline
    RetryPolicy::Options retry;        // base policy, clamped per request
    // Per-tenant admission cap; 0 means only the total cap applies.
    std::size_t per_tenant_capacity = 0;
    // Non-owning observability hooks, both optional. The flight recorder
    // mints a RequestContext per admitted request (propagated through the
    // pool via ScopedRequestContext) and tail-samples the
    // outcome; the SLO monitor counts every completion and shed against
    // its objectives.
    obs::RequestTraceRecorder* flight_recorder = nullptr;
    obs::SloMonitor* slo = nullptr;
  };

  struct Request {
    RetrievalSession* session = nullptr;
    double error_bound = 0.0;
    double deadline_ms = 0.0;   // 0: use the scheduler default
    std::string tenant{};       // "" is itself a (shared) tenant
    // Opaque caller annotation carried on the request's trace (e.g. a
    // client-side correlation key); empty stays off the wire.
    std::string baggage{};
  };

  struct Response {
    Status status;
    // The session's reconstruction; valid until its next non-noop Refine.
    const Array3Dd* data = nullptr;
    RetrievalSession::Refinement refinement;
    double latency_ms = 0.0;
  };

  using Callback = std::function<void(const Response&)>;

  explicit RetrievalScheduler(ServiceMetrics* metrics = nullptr);
  RetrievalScheduler(ServiceMetrics* metrics, Options options);

  RetrievalScheduler(const RetrievalScheduler&) = delete;
  RetrievalScheduler& operator=(const RetrievalScheduler&) = delete;

  // Admits the request, or sheds it immediately with kOverloaded when the
  // total queue — or the request's tenant — is at capacity. `done` runs
  // exactly once per admitted request, on a pool thread during Drain().
  Status Submit(const Request& request, Callback done);

  // Processes queued requests across the global thread pool until the
  // queue is empty (callbacks may Submit follow-ups; those drain too).
  // Call from one thread at a time.
  void Drain();

  std::size_t queue_depth() const;
  const Options& options() const { return options_; }

 private:
  struct Item {
    Request request;
    Callback done;
    // Admission time, so the tracer can split time-in-queue from service
    // time ("sched/queue_wait" vs "sched/service" spans).
    std::chrono::steady_clock::time_point submitted;
    // Set iff Options::flight_recorder is; kept alive through Process() so
    // spans recorded on pool threads still land somewhere.
    std::shared_ptr<obs::RequestContext> ctx;
  };

  void Process(Item* item) const;

  Options options_;
  ServiceMetrics* metrics_;  // may be null

  mutable std::mutex mu_;
  // One FIFO per tenant plus the total count; Drain() interleaves the
  // tenant queues round-robin. Empty queues are erased so the map stays
  // proportional to tenants with work, not tenants ever seen.
  std::map<std::string, std::deque<Item>> queues_;
  std::size_t queued_total_ = 0;
};

}  // namespace mgardp

#endif  // MGARDP_SERVICE_SCHEDULER_H_
