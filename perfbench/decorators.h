// Counting/timing decorators for the two library interfaces whose calls
// happen inside library code the benchmark cannot split: ErrorEstimator
// (called by every planner) and StorageBackend (called by retrieval
// sessions). Each forwards every virtual unchanged -- including name(), so
// audit model ids and plans are the same as undecorated -- and records the
// call's count and duration for the traced run.

#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "progressive/error_estimator.h"
#include "spans.h"
#include "storage/storage_backend.h"

namespace perfbench {

// Calls and time accumulated by TimedEstimator since the last Take().
struct CallTotals {
  std::int64_t calls = 0;
  double us = 0.0;
};

class TimedEstimator : public mgardp::ErrorEstimator {
 public:
  // `inner` must outlive the decorator.
  explicit TimedEstimator(const mgardp::ErrorEstimator* inner)
      : inner_(inner) {}

  double Estimate(const mgardp::RefactoredField& field,
                  const std::vector<int>& prefix) const override {
    const double t0 = NowUs();
    const double value = inner_->Estimate(field, prefix);
    Add(NowUs() - t0);
    return value;
  }
  mgardp::Result<double> TryEstimate(
      const mgardp::RefactoredField& field,
      const std::vector<int>& prefix) const override {
    const double t0 = NowUs();
    mgardp::Result<double> value = inner_->TryEstimate(field, prefix);
    Add(NowUs() - t0);
    return value;
  }
  std::string name() const override { return inner_->name(); }

  CallTotals Take() const {
    CallTotals t;
    t.calls = calls_.exchange(0);
    t.us = static_cast<double>(ns_.exchange(0)) * 1e-3;
    return t;
  }

 private:
  void Add(double us) const {
    calls_.fetch_add(1, std::memory_order_relaxed);
    ns_.fetch_add(static_cast<std::int64_t>(us * 1e3),
                  std::memory_order_relaxed);
  }

  const mgardp::ErrorEstimator* inner_;
  mutable std::atomic<std::int64_t> calls_{0};
  mutable std::atomic<std::int64_t> ns_{0};
};

// Records every Get as a "storage.get" span carrying the payload bytes.
// The span joins the operation and parent set by set_context(), or, when
// none is set, the calling thread's current operation and span.
class TimedBackend : public mgardp::StorageBackend {
 public:
  // `inner` must outlive the decorator.
  explicit TimedBackend(mgardp::StorageBackend* inner) : inner_(inner) {}

  mgardp::Result<std::string> Get(int level, int plane) override {
    if (!Recorder().enabled()) {
      return inner_->Get(level, plane);
    }
    Span span;
    span.name = "storage.get";
    span.start_us = NowUs();
    mgardp::Result<std::string> payload = inner_->Get(level, plane);
    span.dur_us = NowUs() - span.start_us;
    span.units = payload.ok() ? static_cast<double>(payload.value().size())
                              : 0.0;
    span.id = Recorder().NewId();
    const std::int64_t op = op_.load(std::memory_order_acquire);
    span.op = op != 0 ? op : CurrentOp();
    span.parent = op != 0 ? parent_.load(std::memory_order_acquire)
                          : CurrentSpan();
    Recorder().Record(span);
    return payload;
  }
  mgardp::Status Put(int level, int plane, std::string payload) override {
    return inner_->Put(level, plane, std::move(payload));
  }
  bool Contains(int level, int plane) const override {
    return inner_->Contains(level, plane);
  }
  std::vector<std::pair<int, int>> Keys() const override {
    return inner_->Keys();
  }
  std::string name() const override { return inner_->name(); }

  // Attributes later Gets to operation `op`, under span `parent`; the
  // caller publishes both before the request that will issue the Gets.
  void set_context(std::int64_t op, std::int64_t parent) {
    parent_.store(parent, std::memory_order_release);
    op_.store(op, std::memory_order_release);
  }

 private:
  mgardp::StorageBackend* inner_;
  std::atomic<std::int64_t> op_{0};
  std::atomic<std::int64_t> parent_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
