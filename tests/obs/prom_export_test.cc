// PromWriter golden expositions, label escaping, and the test-side format
// validator against real audit/service renders.

#include "obs/prom_export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "obs/audit.h"
#include "prom_validator.h"
#include "service/service_metrics.h"
#include "util/histogram.h"

namespace mgardp {
namespace obs {
namespace {

using mgardp::prom_test::ValidatePromExposition;

// Fills an auditor with enough variety to exercise every exported family:
// satisfied + violated + estimate-only records, overfetch, and drift.
void Populate(ErrorControlAuditor* auditor) {
  AuditRecord ok;
  ok.model = "emgard";
  ok.requested_tolerance = 1.0;
  ok.predicted_error = 0.8;
  ok.actual_error = 0.5;
  ok.bytes_fetched = 150;
  ok.oracle_bytes = 100;
  ok.predicted_prefix = {4, 2};
  ok.oracle_prefix = {3, 2};
  auditor->Record(ok);

  AuditRecord bad = ok;
  bad.model = "dmgard";
  bad.actual_error = 2.0;  // violation
  bad.degraded = true;
  auditor->Record(bad);

  AuditRecord blind;
  blind.model = "baseline";
  blind.requested_tolerance = 0.5;
  blind.predicted_error = 0.4;  // estimate-only
  auditor->Record(blind);
}

TEST(PromExportTest, GoldenCounterAndGaugeExposition) {
  PromWriter w;
  w.Family("test_total", "counter", "Things counted.");
  w.Sample({{"model", "alpha"}}, 3.0);
  w.Sample({{"model", "beta"}}, 7.0);
  w.Family("test_gauge", "gauge", "A gauge.");
  w.Sample({}, 0.25);
  const std::string expected =
      "# HELP test_total Things counted.\n"
      "# TYPE test_total counter\n"
      "test_total{model=\"alpha\"} 3\n"
      "test_total{model=\"beta\"} 7\n"
      "# HELP test_gauge A gauge.\n"
      "# TYPE test_gauge gauge\n"
      "test_gauge 0.25\n";
  EXPECT_EQ(w.str(), expected);
  EXPECT_EQ(ValidatePromExposition(w.str()), "");
}

TEST(PromExportTest, GoldenHistogramSeries) {
  Histogram::Options opts;
  opts.min_value = 1.0;
  opts.growth = 2.0;
  opts.num_buckets = 3;  // edges 2, 4, 8, then overflow
  Histogram h(opts);
  h.Record(0.5);
  h.Record(3.0);
  h.Record(100.0);  // overflow bucket
  PromWriter w;
  w.Family("test_hist", "histogram", "A test histogram.");
  w.HistogramSeries({{"model", "m"}}, h);
  const std::string expected =
      "# HELP test_hist A test histogram.\n"
      "# TYPE test_hist histogram\n"
      "test_hist_bucket{model=\"m\",le=\"2\"} 1\n"
      "test_hist_bucket{model=\"m\",le=\"4\"} 2\n"
      "test_hist_bucket{model=\"m\",le=\"8\"} 2\n"
      "test_hist_bucket{model=\"m\",le=\"+Inf\"} 3\n"
      "test_hist_sum{model=\"m\"} 103.5\n"
      "test_hist_count{model=\"m\"} 3\n";
  EXPECT_EQ(w.str(), expected);
  EXPECT_EQ(ValidatePromExposition(w.str()), "");
}

TEST(PromExportTest, LabelValueEscaping) {
  EXPECT_EQ(PromWriter::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PromWriter::EscapeLabelValue("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
  PromWriter w;
  w.Family("esc_total", "counter", "Escaping.");
  w.Sample({{"model", "a\\b\"c\nd"}}, 1.0);
  EXPECT_NE(w.str().find("esc_total{model=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos);
  EXPECT_EQ(ValidatePromExposition(w.str()), "");
}

TEST(PromExportTest, FormatValue) {
  EXPECT_EQ(PromWriter::FormatValue(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(PromWriter::FormatValue(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(PromWriter::FormatValue(std::nan("")), "NaN");
  EXPECT_EQ(PromWriter::FormatValue(0.0), "0");
  EXPECT_EQ(PromWriter::FormatValue(42.0), "42");
  EXPECT_EQ(PromWriter::FormatValue(-5.0), "-5");
  EXPECT_EQ(PromWriter::FormatValue(0.125), "0.125");
}

TEST(PromExportTest, AuditRenderPassesValidator) {
  ErrorControlAuditor auditor;
  Populate(&auditor);
  const std::string text = RenderAuditPrometheus(auditor);
  EXPECT_EQ(ValidatePromExposition(text), "") << text;
  // All three model labels and every family group are present.
  for (const char* needle :
       {"mgardp_audit_records_total{model=\"baseline\"} 1",
        "mgardp_audit_bound_violations_total{model=\"dmgard\"} 1",
        "mgardp_audit_degraded_total{model=\"dmgard\"} 1",
        "mgardp_audit_estimate_only_total{model=\"baseline\"} 1",
        "mgardp_audit_overfetch_ratio_count{model=\"emgard\"} 1",
        "mgardp_audit_tightness_ratio_sum{model=\"emgard\"} 1.6",
        "mgardp_audit_level_drift_window_mean_planes{model=\"emgard\","
        "level=\"0\"} 1",
        "mgardp_audit_level_drift_alert{model=\"emgard\",level=\"0\"} 0"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(PromExportTest, CombinedAuditAndServiceRenderPassesValidator) {
  ErrorControlAuditor auditor;
  Populate(&auditor);
  ServiceMetrics metrics;
  metrics.OnStarted(2, 1);
  metrics.OnCompleted(true, 12.5);
  metrics.OnCompleted(false, 80.0);
  PromWriter w;
  AppendAuditMetrics(auditor, &w);
  AppendServiceMetricsProm(metrics.snapshot(), &w);
  EXPECT_EQ(ValidatePromExposition(w.str()), "") << w.str();
  for (const char* family :
       {"mgardp_service_requests_completed_total",
        "mgardp_service_cache_evicted_bytes_total",
        "mgardp_service_single_flight_shared_bytes_total",
        "mgardp_service_requests_started_total",
        "mgardp_service_request_latency_samples_total",
        "mgardp_service_shadow_byte_ratio_mean"}) {
    EXPECT_NE(w.str().find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << family;
  }
}

TEST(PromExportTest, ValidatorRejectsBrokenInput) {
  // Sample whose family was never declared.
  EXPECT_NE(ValidatePromExposition("orphan_total 1\n"), "");
  // # TYPE without a preceding # HELP.
  EXPECT_NE(ValidatePromExposition("# TYPE x_total counter\nx_total 1\n"),
            "");
  // Illegal escape in a label value.
  EXPECT_NE(ValidatePromExposition("# HELP x_total h\n"
                                   "# TYPE x_total counter\n"
                                   "x_total{m=\"a\\q\"} 1\n"),
            "");
  // Histogram whose bucket counts regress.
  const std::string header =
      "# HELP h A histogram.\n"
      "# TYPE h histogram\n";
  EXPECT_NE(ValidatePromExposition(header +
                                   "h_bucket{le=\"1\"} 5\n"
                                   "h_bucket{le=\"+Inf\"} 3\n"
                                   "h_sum 1\n"
                                   "h_count 3\n"),
            "");
  // _count disagreeing with the +Inf bucket.
  EXPECT_NE(ValidatePromExposition(header +
                                   "h_bucket{le=\"+Inf\"} 3\n"
                                   "h_sum 1\n"
                                   "h_count 4\n"),
            "");
  // Missing _sum.
  EXPECT_NE(ValidatePromExposition(header +
                                   "h_bucket{le=\"+Inf\"} 3\n"
                                   "h_count 3\n"),
            "");
  // Missing +Inf bucket entirely.
  EXPECT_NE(ValidatePromExposition(header +
                                   "h_bucket{le=\"1\"} 3\n"
                                   "h_sum 1\n"
                                   "h_count 3\n"),
            "");
}

}  // namespace
}  // namespace obs
}  // namespace mgardp
