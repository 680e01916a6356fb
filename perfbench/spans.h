// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around calls into the library's public layer
// functions from the benchmark's own code; nothing under src/ is touched.
// Each span carries a name ("<layer>.<call>"), start, duration, the span
// that caused it, and the operation it belongs to. A span may also be an
// aggregate of many calls (e.g. every Estimate call of one plan): then it
// records the call count and the summed duration, and its start is the
// start of the enclosing span. Self time is a span's duration minus the
// durations of its children; children of one span never overlap, because
// every caller here runs its layer calls one after another.
//
// Recording is off by default; the disabled path of ScopedSpan is one
// branch. Spans stay in memory until the run writes them out at exit.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Microseconds on the steady clock since the first call in this process.
double NowUs();

struct Span {
  const char* name = "";  // static string: "<layer>.<call>" or "op"
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0: a root
  std::int64_t op = 0;      // operation id; 0: set-up or probe work
  double start_us = 0.0;
  double dur_us = 0.0;
  std::int64_t calls = 1;   // > 1 for aggregate spans
  double units = 0.0;       // work: coefficients or bytes, per span name
  double units2 = 0.0;      // secondary work (e.g. compressed bytes)
};

class SpanRecorder {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::int64_t NewId();
  void Record(const Span& span);
  // Moves out every span recorded so far.
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::int64_t next_id_ = 1;       // guarded by mu_
  std::vector<Span> spans_;        // guarded by mu_
};

SpanRecorder& Recorder();

// The operation and innermost open span of the calling thread; ScopedSpan
// and OpScope maintain them.
std::int64_t CurrentOp();
std::int64_t CurrentSpan();

// Times one layer call on the calling thread. Nests: spans opened inside
// become its children.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, double units = 0.0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void add_units(double u) { span_.units += u; }
  void add_units2(double u) { span_.units2 += u; }
  std::int64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  std::int64_t saved_parent_ = 0;
  Span span_;
};

// Root span of one operation: assigns a fresh op id that every span
// opened on this thread until destruction inherits.
class OpScope {
 public:
  OpScope();
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::int64_t saved_op_;  // initialised first: switches the thread's op
  ScopedSpan root_;
};

// Records an aggregate span (calls summed into one record) as a child of
// `parent` in operation `op`.
void RecordAggregate(const char* name, std::int64_t op, std::int64_t parent,
                     double start_us, std::int64_t calls, double dur_us,
                     double units = 0.0);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
