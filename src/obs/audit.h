// Error-control auditing: is the error control honest, and at what cost?
//
// The paper's central trade is D-MGARD giving up the hard error guarantee
// for one-shot efficiency while E-MGARD keeps the guarantee with learned
// per-level constants. The tracing layer (tracer.h) says where time goes;
// this layer says whether the *error control* held: every retrieval path
// feeds one AuditRecord per request — requested tolerance, the
// estimator/model's predicted error, the actual achieved error when the
// caller supplied ground truth (else the record is estimate-only), bytes
// fetched, the oracle-minimum bytes derived from the stored per-level
// error matrices, and the predicted vs. matrix-oracle bit-plane prefix
// per level.
//
// The ErrorControlAuditor aggregates per model (baseline / dmgard /
// emgard / hybrid / ...):
//   * bound-violation accounting: records = violations + satisfied +
//     estimate_only, violation magnitude (actual/requested) histogram;
//   * overfetch ratio (bytes fetched / oracle bytes) — how far from the
//     information floor the planner landed;
//   * estimator tightness (predicted/actual) — how conservative the
//     error model is;
//   * per-level b_l prediction-error distributions with a rolling window
//     that acts as a drift monitor for the D-MGARD CMOR chain and the
//     E-MGARD C_l encoders: snapshots surface window mean/max drift and
//     an alert flag against a configurable threshold.
//
// Cost contract: recording is a handful of relaxed atomic increments and
// wait-free histogram records plus one short per-model mutex hold for the
// drift window; no allocation on the steady path and never an O(N) pass
// over field data — actual errors are computed by the *caller*, and only
// when it opted in by providing ground truth.
//
// The process-wide instance is GlobalAuditor(); the retrieval paths
// (Reconstructor, RetrievalSession) feed it by default and accept an
// explicit auditor for tests.

#ifndef MGARDP_OBS_AUDIT_H_
#define MGARDP_OBS_AUDIT_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/stats.h"

namespace mgardp {
namespace obs {

class PromWriter;

// One audited retrieval request.
struct AuditRecord {
  std::string model;  // "baseline", "dmgard", "emgard", "hybrid", ...
  // Trace id of the request this retrieval served (0 when it ran outside
  // any traced request). Joins `mgardp audit` violations to the flight
  // recorder's retained lanes: a violated bound names the exact request
  // trace to pull up.
  std::uint64_t trace_id = 0;
  double requested_tolerance = 0.0;
  // What the estimator/model claimed the error would be at the fetched
  // prefix (for D-MGARD, the tolerance it aimed its prediction at).
  double predicted_error = 0.0;
  // Ground-truth max error; NaN (the default) marks estimate-only records.
  double actual_error = std::numeric_limits<double>::quiet_NaN();
  bool degraded = false;  // the session degraded around lost segments
  std::size_t bytes_fetched = 0;
  // Cheapest bytes per the stored error matrices (0: not computed).
  std::size_t oracle_bytes = 0;
  // Per-level plane counts: what the planner/model chose vs. what the
  // matrix oracle needed. Both empty or both num_levels long; they feed
  // the per-level drift monitors.
  std::vector<int> predicted_prefix;
  std::vector<int> oracle_prefix;

  // Optional training-example payload, populated by the retrieval paths
  // only when the auditor has sinks registered (wants_examples()): the
  // field summary the models derive data features from, the per-level
  // coefficient sketches, and the per-level error-matrix values at the
  // fetched prefix. Aggregation ignores these; they exist so AuditSink
  // subscribers (the learning subsystem's TrainingSetCollector) can
  // rebuild training rows without re-touching field data. sketches being
  // non-empty marks a record that carries examples.
  FieldSummary summary;
  std::vector<std::vector<double>> sketches;
  std::vector<double> level_errors;

  bool has_examples() const { return !sketches.empty(); }

  bool has_actual() const { return !std::isnan(actual_error); }
};

// Push-based subscription to audit records. Implementations must be
// thread-safe: OnRecord is invoked from whatever thread called
// ErrorControlAuditor::Record, potentially concurrently. Keep it cheap —
// it sits on the retrieval path.
class AuditSink {
 public:
  virtual ~AuditSink() = default;
  virtual void OnRecord(const AuditRecord& record) = 0;
};

class ErrorControlAuditor {
 public:
  struct Options {
    // Samples per (model, level) rolling drift window.
    int drift_window = 256;
    // Window mean |predicted - oracle| planes beyond which the level is
    // flagged as drifting (model needs retraining / constants went stale).
    double drift_alert_planes = 2.0;
  };

  // Flat summary of one ratio histogram.
  struct RatioSummary {
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  struct LevelDrift {
    int level = 0;
    std::uint64_t count = 0;      // lifetime samples
    double mean = 0.0;            // lifetime mean signed error (planes)
    double max_abs = 0.0;         // lifetime max |error|
    double window_mean = 0.0;     // rolling-window mean signed error
    double window_mean_abs = 0.0; // rolling-window mean |error|
    double window_max_abs = 0.0;  // rolling-window max |error|
    bool alert = false;           // window_mean_abs > drift_alert_planes
  };

  struct ModelSnapshot {
    std::string model;
    std::uint64_t records = 0;
    std::uint64_t violations = 0;     // actual > requested
    std::uint64_t satisfied = 0;      // actual <= requested
    std::uint64_t estimate_only = 0;  // no ground truth supplied
    std::uint64_t degraded = 0;
    // Trace id of the most recent bound violation (0: none yet, or the
    // violating request was not traced).
    std::uint64_t last_violation_trace_id = 0;
    RatioSummary violation_magnitude;  // actual / requested
    RatioSummary overfetch;            // bytes fetched / oracle bytes
    RatioSummary tightness;            // predicted / actual
    std::vector<LevelDrift> drift;

    // Violations over ground-truthed records (0 when none were checked).
    double violation_rate() const {
      const std::uint64_t checked = violations + satisfied;
      return checked == 0 ? 0.0
                          : static_cast<double>(violations) /
                                static_cast<double>(checked);
    }
    bool drift_alert() const {
      for (const LevelDrift& d : drift) {
        if (d.alert) {
          return true;
        }
      }
      return false;
    }
  };

  struct Snapshot {
    std::vector<ModelSnapshot> models;  // sorted by model name

    // JSON array of per-model objects ("[]" when no records yet).
    std::string ToJson() const;
  };

  ErrorControlAuditor();
  explicit ErrorControlAuditor(Options options);

  ErrorControlAuditor(const ErrorControlAuditor&) = delete;
  ErrorControlAuditor& operator=(const ErrorControlAuditor&) = delete;

  const Options& options() const { return options_; }

  // Thread-safe; see the cost contract above. Registered sinks are
  // invoked after aggregation, on the caller's thread.
  void Record(const AuditRecord& record);

  // Sink registration. The auditor does not own sinks; callers must
  // RemoveSink before destroying one. Both take an exclusive lock — they
  // are setup/teardown operations, not steady-path ones.
  void AddSink(AuditSink* sink);
  void RemoveSink(AuditSink* sink);

  // True when at least one sink is registered. Retrieval paths use this
  // to decide whether paying for AuditRecord's example payload (feature/
  // sketch copies) buys anything.
  bool wants_examples() const {
    return sink_count_.load(std::memory_order_acquire) > 0;
  }

  Snapshot snapshot() const;
  std::string ToJson() const { return snapshot().ToJson(); }

  // Total records across all models (cheap; for tests and gating).
  std::uint64_t total_records() const;

  // Drops all counts and windows; registered models survive.
  void Reset();

 private:
  friend void AppendAuditMetrics(const ErrorControlAuditor& auditor,
                                 PromWriter* writer);

  struct LevelDriftState {
    std::uint64_t count = 0;
    double sum = 0.0;      // lifetime signed sum
    double max_abs = 0.0;  // lifetime max |error|
    std::vector<double> ring;  // most recent window of signed errors
    std::size_t next = 0;      // ring write cursor
  };

  struct ModelStats {
    explicit ModelStats(std::string model_name);

    std::string name;
    std::atomic<std::uint64_t> records{0};
    std::atomic<std::uint64_t> violations{0};
    std::atomic<std::uint64_t> satisfied{0};
    std::atomic<std::uint64_t> estimate_only{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> last_violation_trace_id{0};
    Histogram violation_magnitude;
    Histogram overfetch;
    Histogram tightness;

    mutable std::mutex drift_mu;
    std::vector<LevelDriftState> drift;  // indexed by level
  };

  ModelStats* GetOrCreate(const std::string& model);

  Options options_;
  mutable std::shared_mutex mu_;  // guards the models_ vector itself
  std::vector<std::unique_ptr<ModelStats>> models_;

  mutable std::shared_mutex sinks_mu_;  // guards sinks_
  std::vector<AuditSink*> sinks_;
  std::atomic<int> sink_count_{0};  // fast-path gate for wants_examples()
};

// The process-wide auditor every retrieval path feeds by default. Never
// destroyed, so exit-time exporters (--prom) can read it safely.
ErrorControlAuditor& GlobalAuditor();

}  // namespace obs
}  // namespace mgardp

#endif  // MGARDP_OBS_AUDIT_H_
