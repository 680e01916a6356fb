#include "obs/request_trace.h"

#include <algorithm>
#include <utility>

#include "util/parallel.h"

namespace mgardp {
namespace obs {

namespace {

// The current request, one raw TLS pointer so the tracer's per-span hook
// is a plain load. Lifetime is guaranteed by the installing scope (which
// holds the shared_ptr) — pool workers only ever see a context whose
// owning Run() call is still blocked in the submitting scope.
thread_local RequestContext* t_current_request = nullptr;

void* CaptureCurrentRequest() { return t_current_request; }

void* ExchangeCurrentRequest(void* ctx) {
  RequestContext* prev = t_current_request;
  t_current_request = static_cast<RequestContext*>(ctx);
  return prev;
}

// Registered once, before any context can be installed: the pool carries
// the submitting thread's context to its workers for each stripe.
void RegisterPoolPropagator() {
  static const bool registered = [] {
    ThreadPool::ContextPropagator p;
    p.capture = &CaptureCurrentRequest;
    p.exchange = &ExchangeCurrentRequest;
    ThreadPool::SetContextPropagator(p);
    return true;
  }();
  (void)registered;
}

// splitmix64: turns the sequential allocation counter into well-mixed
// 64-bit ids, so prefixes of concurrently-minted ids never collide in the
// shortened forms humans grep for.
std::uint64_t MixTraceId(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x = x ^ (x >> 31);
  return x == 0 ? 1 : x;  // 0 means "no trace id" everywhere
}

Histogram::Options RecorderLatencyOptions() {
  Histogram::Options o;
  o.min_value = 1e-3;
  o.growth = 1.25;
  o.num_buckets = 96;
  return o;
}

}  // namespace

RequestContext::RequestContext(std::uint64_t trace_id, std::string tenant,
                               double deadline_ms, std::string baggage,
                               std::size_t max_spans)
    : trace_id_(trace_id),
      tenant_(std::move(tenant)),
      deadline_ms_(deadline_ms),
      baggage_(std::move(baggage)),
      max_spans_(max_spans) {}

std::shared_ptr<RequestContext> RequestContext::Create(
    std::uint64_t trace_id, std::string tenant, double deadline_ms,
    std::string baggage, std::size_t max_spans) {
  // make_shared needs a public constructor; this pass-key-free shim keeps
  // the constructor private at the cost of one extra allocation.
  return std::shared_ptr<RequestContext>(
      new RequestContext(trace_id, std::move(tenant), deadline_ms,
                         std::move(baggage), max_spans));
}

void RequestContext::AppendSpan(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(event);
}

std::vector<TraceEvent> RequestContext::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedRequestContext::ScopedRequestContext(
    std::shared_ptr<RequestContext> ctx)
    : ctx_(std::move(ctx)), prev_(t_current_request) {
  RegisterPoolPropagator();
  if (ctx_ != nullptr) {
    t_current_request = ctx_.get();
  }
}

ScopedRequestContext::~ScopedRequestContext() {
  if (ctx_ != nullptr) {
    t_current_request = prev_;
  }
}

RequestContext* ScopedRequestContext::Current() { return t_current_request; }

std::uint64_t ScopedRequestContext::CurrentTraceId() {
  RequestContext* ctx = t_current_request;
  return ctx == nullptr ? 0 : ctx->trace_id();
}

void AppendSpanToCurrentRequest(const TraceEvent& event) {
  RequestContext* ctx = t_current_request;
  if (ctx != nullptr) {
    ctx->AppendSpan(event);
  }
}

RequestTraceRecorder::RequestTraceRecorder()
    : RequestTraceRecorder(Options()) {}

RequestTraceRecorder::RequestTraceRecorder(Options options)
    : options_(options), latency_ms_(RecorderLatencyOptions()) {}

std::shared_ptr<RequestContext> RequestTraceRecorder::StartRequest(
    std::string tenant, double deadline_ms, std::string baggage) {
  started_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id =
      MixTraceId(next_trace_id_.fetch_add(1, std::memory_order_relaxed));
  return RequestContext::Create(id, std::move(tenant), deadline_ms,
                                std::move(baggage),
                                options_.max_spans_per_request);
}

void RequestTraceRecorder::FinishRequest(
    const std::shared_ptr<RequestContext>& ctx, const Status& status,
    double latency_ms) {
  if (ctx == nullptr) {
    return;
  }
  finished_.fetch_add(1, std::memory_order_relaxed);

  // The slow rule compares against the p99 of PRIOR requests, then this
  // one's latency joins the estimate — the first slow request after warmup
  // is kept rather than moving the goalposts for itself.
  bool slow = false;
  if (options_.slow_threshold_ms > 0.0) {
    slow = latency_ms >= options_.slow_threshold_ms;
  } else if (latency_ms_.count() >= options_.min_latency_samples) {
    slow = latency_ms >= latency_ms_.Quantile(0.99);
  }
  latency_ms_.Record(latency_ms);

  const bool head =
      options_.head_sample_every > 0 &&
      head_counter_.fetch_add(1, std::memory_order_relaxed) %
              options_.head_sample_every ==
          0;

  Retained record;
  record.ctx = ctx;
  record.code = status.code();
  record.latency_ms = latency_ms;
  std::lock_guard<std::mutex> lock(mu_);
  if (status.code() == StatusCode::kOverloaded) {
    record.reason = "shed";
    ++tail_.kept_shed;
  } else if (status.code() == StatusCode::kDataLoss) {
    record.reason = "degraded";
    ++tail_.kept_degraded;
  } else if (!status.ok()) {
    record.reason = "error";
    ++tail_.kept_error;
  } else if (slow) {
    record.reason = "slow";
    ++tail_.kept_slow;
  } else if (head) {
    record.reason = "head";
    ++tail_.kept_head;
  } else {
    return;  // dropped: its durations already live in the stage histograms
  }
  Retain(std::move(record));
}

void RequestTraceRecorder::RecordShed(std::string tenant,
                                      std::string baggage) {
  started_.fetch_add(1, std::memory_order_relaxed);
  finished_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id =
      MixTraceId(next_trace_id_.fetch_add(1, std::memory_order_relaxed));
  Retained record;
  record.ctx = RequestContext::Create(id, std::move(tenant), 0.0,
                                      std::move(baggage),
                                      options_.max_spans_per_request);
  record.reason = "shed";
  record.code = StatusCode::kOverloaded;
  std::lock_guard<std::mutex> lock(mu_);
  ++tail_.kept_shed;
  Retain(std::move(record));
}

void RequestTraceRecorder::Retain(Retained record) {
  // Caller holds mu_.
  retained_.push_back(std::move(record));
  ++tail_.retained;
  while (retained_.size() > options_.max_retained) {
    retained_.pop_front();
    ++tail_.evicted;
  }
}

std::vector<RequestTraceRecorder::Retained> RequestTraceRecorder::retained()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {retained_.begin(), retained_.end()};
}

RequestTraceRecorder::Stats RequestTraceRecorder::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = tail_;
  }
  s.started = started_.load(std::memory_order_relaxed);
  s.finished = finished_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace obs
}  // namespace mgardp
