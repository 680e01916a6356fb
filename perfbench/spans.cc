#include "spans.h"

#include <utility>

namespace perfbench {

namespace {

thread_local std::int64_t tls_op = 0;
thread_local std::int64_t tls_span = 0;

std::int64_t EnterOp() {
  const std::int64_t saved = tls_op;
  tls_op = Recorder().enabled() ? Recorder().NewId() : 0;
  return saved;
}

}  // namespace

double NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::int64_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

SpanRecorder& Recorder() {
  static SpanRecorder recorder;
  return recorder;
}

std::int64_t CurrentOp() { return tls_op; }
std::int64_t CurrentSpan() { return tls_span; }

ScopedSpan::ScopedSpan(const char* name, double units) {
  if (!Recorder().enabled()) {
    return;
  }
  active_ = true;
  span_.name = name;
  span_.id = Recorder().NewId();
  span_.parent = tls_span;
  span_.op = tls_op;
  span_.units = units;
  saved_parent_ = tls_span;
  tls_span = span_.id;
  span_.start_us = NowUs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  span_.dur_us = NowUs() - span_.start_us;
  tls_span = saved_parent_;
  Recorder().Record(span_);
}

OpScope::OpScope() : saved_op_(EnterOp()), root_("op") {}

OpScope::~OpScope() { tls_op = saved_op_; }

void RecordAggregate(const char* name, std::int64_t op, std::int64_t parent,
                     double start_us, std::int64_t calls, double dur_us,
                     double units) {
  if (!Recorder().enabled() || calls == 0) {
    return;
  }
  Span span;
  span.name = name;
  span.id = Recorder().NewId();
  span.parent = parent;
  span.op = op;
  span.start_us = start_us;
  span.dur_us = dur_us;
  span.calls = calls;
  span.units = units;
  Recorder().Record(span);
}

}  // namespace perfbench
