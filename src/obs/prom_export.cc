#include "obs/prom_export.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "obs/audit.h"
#include "obs/build_info.h"
#include "util/histogram.h"
#include "util/logging.h"

namespace mgardp {
namespace obs {

void PromWriter::Family(const std::string& name, const std::string& type,
                        const std::string& help) {
  family_ = name;
  out_ += "# HELP " + name + " " + EscapeHelp(help) + "\n";
  out_ += "# TYPE " + name + " " + type + "\n";
}

void PromWriter::SeriesLine(const std::string& name, const Labels& labels,
                            const std::string& value) {
  out_ += name;
  if (!labels.empty()) {
    out_ += "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) {
        out_ += ",";
      }
      out_ += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) +
              "\"";
    }
    out_ += "}";
  }
  out_ += " " + value + "\n";
}

void PromWriter::Sample(const Labels& labels, double value) {
  MGARDP_CHECK(!family_.empty());
  SeriesLine(family_, labels, FormatValue(value));
}

void PromWriter::HistogramSeries(const Labels& labels,
                                 const Histogram& histogram) {
  MGARDP_CHECK(!family_.empty());
  // One pass over the bucket counters; _count is their total, so
  // _count == the +Inf bucket by construction even if Record() calls race
  // this read (the separate count_ atomic could disagree transiently).
  std::uint64_t cum = 0;
  Labels bucket_labels = labels;
  bucket_labels.emplace_back("le", "");
  for (int b = 0; b <= histogram.num_buckets(); ++b) {
    cum += histogram.bucket_count(b);
    bucket_labels.back().second =
        FormatValue(histogram.bucket_upper_edge(b));
    SeriesLine(family_ + "_bucket", bucket_labels,
               FormatValue(static_cast<double>(cum)));
  }
  SeriesLine(family_ + "_sum", labels, FormatValue(histogram.sum()));
  SeriesLine(family_ + "_count", labels,
             FormatValue(static_cast<double>(cum)));
}

std::string PromWriter::EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PromWriter::EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PromWriter::FormatValue(double value) {
  if (std::isinf(value)) {
    return value > 0 ? "+Inf" : "-Inf";
  }
  if (std::isnan(value)) {
    return "NaN";
  }
  // Counters and `le` edges print as plain integers when exact, which is
  // what scrapers (and golden files) expect.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

void AppendAuditMetrics(const ErrorControlAuditor& auditor,
                        PromWriter* writer) {
  std::shared_lock<std::shared_mutex> lock(auditor.mu_);
  using Stats = ErrorControlAuditor::ModelStats;

  struct CounterFamily {
    const char* name;
    const char* help;
    std::atomic<std::uint64_t> Stats::*member;
  };
  static const CounterFamily kCounters[] = {
      {"mgardp_audit_records_total", "Audited retrieval requests.",
       &Stats::records},
      {"mgardp_audit_bound_violations_total",
       "Ground-truthed requests whose actual error exceeded the requested "
       "tolerance.",
       &Stats::violations},
      {"mgardp_audit_bound_satisfied_total",
       "Ground-truthed requests whose actual error met the requested "
       "tolerance.",
       &Stats::satisfied},
      {"mgardp_audit_estimate_only_total",
       "Requests audited without ground truth (estimate-only).",
       &Stats::estimate_only},
      {"mgardp_audit_degraded_total",
       "Requests served degraded by the fault-tolerant path.",
       &Stats::degraded},
  };
  for (const CounterFamily& f : kCounters) {
    writer->Family(f.name, "counter", f.help);
    for (const auto& m : auditor.models_) {
      writer->Sample({{"model", m->name}},
                     static_cast<double>(
                         ((*m).*(f.member)).load(std::memory_order_relaxed)));
    }
  }

  struct HistFamily {
    const char* name;
    const char* help;
    Histogram Stats::*member;
  };
  static const HistFamily kHists[] = {
      {"mgardp_audit_violation_magnitude",
       "Actual error / requested tolerance for ground-truthed requests.",
       &Stats::violation_magnitude},
      {"mgardp_audit_overfetch_ratio",
       "Bytes fetched / oracle-minimum bytes per the stored error matrices.",
       &Stats::overfetch},
      {"mgardp_audit_tightness_ratio",
       "Predicted error / actual error for ground-truthed requests.",
       &Stats::tightness},
  };
  for (const HistFamily& f : kHists) {
    writer->Family(f.name, "histogram", f.help);
    for (const auto& m : auditor.models_) {
      writer->HistogramSeries({{"model", m->name}}, (*m).*(f.member));
    }
  }

  // Per-level drift gauges need the per-model drift locks; collect the
  // values first so each family's samples come from one coherent walk.
  struct DriftRow {
    std::string model;
    int level;
    double window_mean;
    double window_max_abs;
    bool alert;
  };
  std::vector<DriftRow> rows;
  const double alert_planes = auditor.options_.drift_alert_planes;
  for (const auto& m : auditor.models_) {
    std::lock_guard<std::mutex> drift_lock(m->drift_mu);
    for (std::size_t l = 0; l < m->drift.size(); ++l) {
      const auto& d = m->drift[l];
      if (d.ring.empty()) {
        continue;
      }
      double sum = 0.0, sum_abs = 0.0, max_abs = 0.0;
      for (const double e : d.ring) {
        sum += e;
        sum_abs += std::abs(e);
        max_abs = std::max(max_abs, std::abs(e));
      }
      const double n = static_cast<double>(d.ring.size());
      rows.push_back({m->name, static_cast<int>(l), sum / n, max_abs,
                      sum_abs / n > alert_planes});
    }
  }
  writer->Family("mgardp_audit_level_drift_window_mean_planes", "gauge",
                 "Rolling-window mean signed bit-plane prefix prediction "
                 "error per level.");
  for (const DriftRow& r : rows) {
    writer->Sample({{"model", r.model}, {"level", std::to_string(r.level)}},
                   r.window_mean);
  }
  writer->Family("mgardp_audit_level_drift_window_max_abs_planes", "gauge",
                 "Rolling-window max absolute bit-plane prefix prediction "
                 "error per level.");
  for (const DriftRow& r : rows) {
    writer->Sample({{"model", r.model}, {"level", std::to_string(r.level)}},
                   r.window_max_abs);
  }
  writer->Family("mgardp_audit_level_drift_alert", "gauge",
                 "1 when the level's rolling-window mean absolute drift "
                 "exceeds the alert threshold.");
  for (const DriftRow& r : rows) {
    writer->Sample({{"model", r.model}, {"level", std::to_string(r.level)}},
                   r.alert ? 1.0 : 0.0);
  }
}

std::string RenderAuditPrometheus(const ErrorControlAuditor& auditor) {
  PromWriter writer;
  AppendBuildInfoMetrics(&writer);
  AppendAuditMetrics(auditor, &writer);
  return writer.str();
}

}  // namespace obs
}  // namespace mgardp
