// Low-overhead tracing and per-stage profiling for the whole pipeline.
//
// Every hot path (refactor, reconstruct, session refine, cache fill,
// scheduler dispatch, DNN train/forward) opens a scoped Span around its
// stages. When tracing is DISABLED — the default — a span is one relaxed
// atomic load and two register writes: no allocation, no locks, no clock
// reads, so instrumentation can stay compiled into production hot paths
// (bench/micro/micro_obs.cc measures the disabled path against a bare
// loop). When ENABLED, a span reads the steady clock twice and appends one
// fixed-size event to a striped buffer (one mutex per stripe, threads
// hash to stripes, so concurrent spans almost never contend) and records
// its duration into the stage's wait-free Histogram.
//
// Two consumers read the collected data:
//   * trace_export.h turns the event buffer into Chrome trace JSON
//     (chrome://tracing / Perfetto load it directly);
//   * Summary()/SummaryJson() aggregate per-stage count/total/min/max and
//     quantiles, which ServiceMetrics::SnapshotJson merges into the
//     service's JSON snapshot.
//
// Stage identity: call sites register a stage once (static-local in the
// MGARDP_TRACE_SPAN macro) and hold the returned StageStats pointer, so
// the per-span cost never includes a name lookup. Names and categories
// must be string literals (or otherwise outlive the tracer); they are
// stored by pointer.
//
// The process-wide tracer is GlobalTracer(). Setting the MGARDP_TRACE
// environment variable to a file path enables it at startup and writes a
// Chrome trace there at process exit; the mgardp CLI's --trace=FILE flag
// does the same explicitly.

#ifndef MGARDP_OBS_TRACER_H_
#define MGARDP_OBS_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace mgardp {
namespace obs {

// One completed span, ready for Chrome trace export. Timestamps are
// microseconds since the tracer's epoch (its construction).
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;  // dense process-wide thread number, stable per thread
};

// Aggregate profile of one stage (all spans sharing a name), built on the
// wait-free Histogram so concurrent span ends never serialize.
class StageStats {
 public:
  StageStats(const char* name, const char* category);

  const char* name() const { return name_; }
  const char* category() const { return category_; }
  const Histogram& durations_ms() const { return durations_ms_; }
  void RecordMs(double ms) { durations_ms_.Record(ms); }
  void Reset() { durations_ms_.Reset(); }

 private:
  const char* name_;
  const char* category_;
  Histogram durations_ms_;
};

class Tracer {
 public:
  struct Options {
    // Events kept across all stripes; spans beyond the cap still profile
    // into their stage histogram but drop their timeline event.
    std::size_t max_events = 1u << 20;
  };

  Tracer();
  explicit Tracer(Options options);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Two independent capture modes share the one enable word, so the
  // disabled hot path stays a single relaxed load no matter how many
  // consumers exist:
  //   * timeline mode (set_enabled / --trace): spans append to the global
  //     striped event buffer for whole-process Chrome export;
  //   * request mode (set_request_tracing / --trace-requests): spans
  //     forward to the calling thread's current RequestContext flight
  //     recorder (obs/request_trace.h).
  // Stage histograms record in either mode.
  static constexpr unsigned kTimelineMode = 1u;
  static constexpr unsigned kRequestMode = 2u;

  // The one branch on the disabled hot path: true when ANY mode is on.
  bool enabled() const {
    return mode_.load(std::memory_order_relaxed) != 0u;
  }
  bool timeline_enabled() const {
    return (mode_.load(std::memory_order_relaxed) & kTimelineMode) != 0u;
  }
  bool request_tracing_enabled() const {
    return (mode_.load(std::memory_order_relaxed) & kRequestMode) != 0u;
  }
  void set_enabled(bool on) {
    if (on) {
      mode_.fetch_or(kTimelineMode, std::memory_order_relaxed);
    } else {
      mode_.fetch_and(~kTimelineMode, std::memory_order_relaxed);
    }
  }
  void set_request_tracing(bool on) {
    if (on) {
      mode_.fetch_or(kRequestMode, std::memory_order_relaxed);
    } else {
      mode_.fetch_and(~kRequestMode, std::memory_order_relaxed);
    }
  }

  // Registers (or finds) the stage named `name`. Idempotent and
  // thread-safe; call once per site and cache the pointer. `name` and
  // `category` must outlive the tracer (string literals).
  StageStats* GetOrCreateStage(const char* name, const char* category);

  // Records a completed interval: appends a timeline event (unless the
  // event cap is hit) and profiles the duration into `stage`. Used by
  // Span on destruction and directly for externally-timed intervals
  // (e.g. scheduler queue wait, whose start predates the worker thread).
  void RecordInterval(StageStats* stage,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end);

  // Snapshot of the timeline, ordered by (tid, start time). Safe to call
  // while spans are still being recorded.
  std::vector<TraceEvent> events() const;
  std::uint64_t events_dropped() const {
    return events_dropped_.load(std::memory_order_relaxed);
  }
  // Timeline events currently buffered (kept events only, not drops);
  // the periodic trace flusher uses the delta as its size trigger.
  std::uint64_t num_events() const {
    return num_events_.load(std::memory_order_relaxed);
  }

  struct StageSummary {
    std::string name;
    std::string category;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };

  // Per-stage aggregates, sorted by name; stages that never recorded a
  // span are omitted.
  std::vector<StageSummary> Summary() const;
  // The same as one JSON array of flat objects ("[]" when nothing ran).
  std::string SummaryJson() const;

  // Drops all events and stage samples (registered stages survive, so
  // cached StageStats pointers stay valid).
  void Clear();

 private:
  struct Stripe;

  Stripe& StripeForThisThread() const;
  double ToUs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  Options options_;
  std::atomic<unsigned> mode_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex stages_mu_;
  std::vector<std::unique_ptr<StageStats>> stages_;

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::uint64_t> num_events_{0};
  std::atomic<std::uint64_t> events_dropped_{0};
};

// The process-wide tracer (never destroyed, so exit-time exporters can
// read it safely). On first use, if the MGARDP_TRACE environment variable
// is set to a non-empty path, tracing starts enabled and a Chrome trace
// is written to that path at process exit.
Tracer& GlobalTracer();

// Dense id for the calling thread (0, 1, 2, ... in first-use order);
// exported so trace consumers can correlate with pool workers.
int CurrentThreadId();

// RAII scope. Construction snapshots the clock when the tracer is
// enabled; destruction records the interval. When disabled both ends are
// a relaxed load plus dead stores — no locks, no allocation.
class Span {
 public:
  Span(Tracer* tracer, StageStats* stage)
      : tracer_(tracer->enabled() ? tracer : nullptr), stage_(stage) {
    if (tracer_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->RecordInterval(stage_, start_,
                              std::chrono::steady_clock::now());
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  StageStats* stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace mgardp

// Opens a span named `name` (a string literal) in `category` on the
// global tracer for the rest of the enclosing scope. The stage AND the
// tracer pointer are cached in function-local statics: with both cached
// and Span fully inline, the disabled path compiles down to the static
// guards plus one relaxed load — no out-of-line call, so the span does
// not clobber the enclosing function's registers.
#define MGARDP_TRACE_CONCAT2(a, b) a##b
#define MGARDP_TRACE_CONCAT(a, b) MGARDP_TRACE_CONCAT2(a, b)
#define MGARDP_TRACE_SPAN(name, category)                                  \
  static ::mgardp::obs::Tracer* const MGARDP_TRACE_CONCAT(                 \
      mgardp_trace_tracer_, __LINE__) = &::mgardp::obs::GlobalTracer();    \
  static ::mgardp::obs::StageStats* const MGARDP_TRACE_CONCAT(             \
      mgardp_trace_stage_, __LINE__) =                                     \
      MGARDP_TRACE_CONCAT(mgardp_trace_tracer_, __LINE__)                  \
          ->GetOrCreateStage((name), (category));                          \
  ::mgardp::obs::Span MGARDP_TRACE_CONCAT(mgardp_trace_span_, __LINE__)(   \
      MGARDP_TRACE_CONCAT(mgardp_trace_tracer_, __LINE__),                 \
      MGARDP_TRACE_CONCAT(mgardp_trace_stage_, __LINE__))

#endif  // MGARDP_OBS_TRACER_H_
