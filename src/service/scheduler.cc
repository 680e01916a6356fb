#include "service/scheduler.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>
#include <vector>

#include "obs/request_trace.h"
#include "obs/slo.h"
#include "obs/tracer.h"
#include "util/parallel.h"

namespace mgardp {

RetryPolicy::Options ClampRetryToDeadline(RetryPolicy::Options base,
                                          double deadline_ms) {
  if (deadline_ms <= 0.0) {
    return base;
  }
  base.max_delay_ms = std::min(base.max_delay_ms, deadline_ms);
  // Worst case backoff after failure i is min(base * mult^i, max_delay);
  // keep attempts while the cumulative worst case still fits the deadline.
  double cumulative = 0.0;
  int attempts = 1;
  double delay = base.base_delay_ms;
  while (attempts < base.max_attempts) {
    // >=: a backoff that consumes the whole remaining budget leaves no
    // time for the attempt after it, so it does not buy a retry.
    const double d = std::min(delay, base.max_delay_ms);
    if (cumulative + d >= deadline_ms) {
      break;
    }
    cumulative += d;
    delay *= base.multiplier;
    ++attempts;
  }
  base.max_attempts = attempts;
  return base;
}

RetrievalScheduler::RetrievalScheduler(ServiceMetrics* metrics)
    : RetrievalScheduler(metrics, Options()) {}

RetrievalScheduler::RetrievalScheduler(ServiceMetrics* metrics,
                                       Options options)
    : options_(options), metrics_(metrics) {}

Status RetrievalScheduler::Submit(const Request& request, Callback done) {
  if (request.session == nullptr) {
    return Status::Invalid("request has no session");
  }
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queued_total_ >= options_.queue_capacity) {
      if (metrics_ != nullptr) {
        metrics_->OnRejected();
      }
      if (options_.flight_recorder != nullptr) {
        options_.flight_recorder->RecordShed(request.tenant, request.baggage);
      }
      if (options_.slo != nullptr) {
        options_.slo->OnShed(request.error_bound);
      }
      return Status::Overloaded(
          "retrieval queue full (" +
          std::to_string(options_.queue_capacity) + " requests)");
    }
    std::deque<Item>& tenant_queue = queues_[request.tenant];
    if (options_.per_tenant_capacity > 0 &&
        tenant_queue.size() >= options_.per_tenant_capacity) {
      if (metrics_ != nullptr) {
        metrics_->OnRejected();
      }
      if (options_.flight_recorder != nullptr) {
        options_.flight_recorder->RecordShed(request.tenant, request.baggage);
      }
      if (options_.slo != nullptr) {
        options_.slo->OnShed(request.error_bound);
      }
      return Status::Overloaded(
          "tenant '" + request.tenant + "' over quota (" +
          std::to_string(options_.per_tenant_capacity) + " queued requests)");
    }
    Item item{request, std::move(done), std::chrono::steady_clock::now(), {}};
    if (options_.flight_recorder != nullptr) {
      const double deadline = request.deadline_ms > 0.0
                                  ? request.deadline_ms
                                  : options_.default_deadline_ms;
      item.ctx = options_.flight_recorder->StartRequest(
          request.tenant, deadline, request.baggage);
    }
    tenant_queue.push_back(std::move(item));
    ++queued_total_;
    depth = queued_total_;
  }
  if (metrics_ != nullptr) {
    metrics_->OnAdmitted(depth);
  }
  return Status::OK();
}

void RetrievalScheduler::Process(Item* item) const {
  const auto start = std::chrono::steady_clock::now();
  // Install the request context before the first span records, so even the
  // queue-wait interval lands on the request's flight record.
  obs::ScopedRequestContext request_scope(item->ctx);
  // Queue wait and service time are recorded as separate stages: the wait
  // interval started back at Submit() on another thread, so it cannot be
  // a scoped span here.
  obs::Tracer& tracer = obs::GlobalTracer();
  if (tracer.enabled()) {
    static obs::StageStats* wait_stage =
        tracer.GetOrCreateStage("sched/queue_wait", "service");
    tracer.RecordInterval(wait_stage, item->submitted, start);
  }
  MGARDP_TRACE_SPAN("sched/service", "service");
  const Request& req = item->request;

  const double deadline =
      req.deadline_ms > 0.0 ? req.deadline_ms : options_.default_deadline_ms;
  RetryPolicy retry(ClampRetryToDeadline(options_.retry, deadline));

  Response response;
  RetrievalSession::Refinement refinement;
  Result<const Array3Dd*> data =
      req.session->Refine(req.error_bound, retry, &refinement);
  response.status = data.status();
  response.data = data.ok() ? data.value() : nullptr;
  response.refinement = std::move(refinement);
  response.latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (metrics_ != nullptr) {
    metrics_->OnCompleted(response.status.ok(), response.latency_ms);
  }
  // A degraded refinement delivered a field, but storage lost part of what
  // was asked for: the flight recorder keeps it as "degraded" and the SLO
  // counts it bad, exactly like a kDataLoss failure.
  const Status outcome =
      response.status.ok() && response.refinement.degraded
          ? Status::DataLoss("refinement degraded around lost segments")
          : response.status;
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->FinishRequest(item->ctx, outcome,
                                            response.latency_ms);
  }
  if (options_.slo != nullptr) {
    options_.slo->OnRequest(req.error_bound, outcome.ok(),
                            response.latency_ms);
  }
  if (item->done) {
    item->done(response);
  }
}

void RetrievalScheduler::Drain() {
  for (;;) {
    std::vector<Item> batch;
    std::size_t remaining = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Fair interleave: one request per tenant per pass, repeating until
      // every tenant queue is empty, so the batch alternates A,B,A,B,...
      // instead of draining A's burst before B's single request.
      while (!queues_.empty()) {
        for (auto it = queues_.begin(); it != queues_.end();) {
          batch.push_back(std::move(it->second.front()));
          it->second.pop_front();
          --queued_total_;
          it = it->second.empty() ? queues_.erase(it) : std::next(it);
        }
      }
      // Depth left behind by THIS batch, read under the same lock — a
      // post-pop queue_depth() call would count items admitted since and
      // attribute them to a batch that never took them.
      remaining = queued_total_;
    }
    if (batch.empty()) {
      // No phantom OnStarted: an empty sweep started nothing, and
      // emitting one here would break started == completed accounting.
      return;
    }
    if (metrics_ != nullptr) {
      metrics_->OnStarted(batch.size(), remaining);
    }
    GlobalThreadPool().Run(batch.size(),
                           [&](std::size_t i) { Process(&batch[i]); });
  }
}

std::size_t RetrievalScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_total_;
}

}  // namespace mgardp
