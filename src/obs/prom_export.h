// Prometheus text-exposition (version 0.0.4) export for the audit layer
// and any Histogram-backed metric.
//
// PromWriter builds a well-formed exposition: one `# HELP` + `# TYPE`
// header per metric family, then the family's sample lines (labels
// escaped per the format: backslash, double-quote, and newline). For
// histograms it emits the cumulative `_bucket{le=...}` series, `_sum`,
// and `_count`, computed from one coherent pass over the bucket counters
// so `_count` always equals the `+Inf` bucket even while writers race.
//
// AppendAuditMetrics renders the ErrorControlAuditor as:
//   mgardp_audit_records_total{model=...}            counter
//   mgardp_audit_bound_violations_total{model=...}   counter
//   mgardp_audit_bound_satisfied_total{model=...}    counter
//   mgardp_audit_estimate_only_total{model=...}      counter
//   mgardp_audit_degraded_total{model=...}           counter
//   mgardp_audit_violation_magnitude{model=...}      histogram
//   mgardp_audit_overfetch_ratio{model=...}          histogram
//   mgardp_audit_tightness_ratio{model=...}          histogram
//   mgardp_audit_level_drift_window_mean_planes{model=...,level=...} gauge
//   mgardp_audit_level_drift_window_max_abs_planes{...}              gauge
//   mgardp_audit_level_drift_alert{...}                              gauge

#ifndef MGARDP_OBS_PROM_EXPORT_H_
#define MGARDP_OBS_PROM_EXPORT_H_

#include <string>
#include <utility>
#include <vector>

namespace mgardp {

class Histogram;

namespace obs {

class ErrorControlAuditor;

class PromWriter {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  // Starts a metric family: emits `# HELP` and `# TYPE` lines and makes
  // `name` the target of subsequent Sample/HistogramSeries calls. `type`
  // is "counter", "gauge", or "histogram".
  void Family(const std::string& name, const std::string& type,
              const std::string& help);

  // One sample line for the current family.
  void Sample(const Labels& labels, double value);

  // The cumulative _bucket/_sum/_count series of `histogram` under the
  // current (histogram-typed) family name, with `labels` on every line.
  void HistogramSeries(const Labels& labels, const Histogram& histogram);

  const std::string& str() const { return out_; }

  static std::string EscapeLabelValue(const std::string& value);
  static std::string EscapeHelp(const std::string& help);
  // Prometheus sample/`le` value formatting: "+Inf" for +infinity,
  // integers without a mantissa, %.9g otherwise.
  static std::string FormatValue(double value);

 private:
  void SeriesLine(const std::string& name, const Labels& labels,
                  const std::string& value);

  std::string out_;
  std::string family_;
};

// Renders `auditor` into `writer` (see the family list above).
void AppendAuditMetrics(const ErrorControlAuditor& auditor,
                        PromWriter* writer);

// Convenience: the global-style one-shot exposition of one auditor.
std::string RenderAuditPrometheus(const ErrorControlAuditor& auditor);

}  // namespace obs
}  // namespace mgardp

#endif  // MGARDP_OBS_PROM_EXPORT_H_
