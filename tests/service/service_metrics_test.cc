// Service metrics: counter plumbing, hit-rate math, the golden JSON and
// Prometheus outputs, and exact totals under concurrent writers.

#include "service/service_metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/prom_export.h"
#include "obs/tracer.h"

namespace mgardp {
namespace {

// Calls every mutator a distinct number of times with fixed arguments, so
// a counter wired to the wrong field shows up as a wrong value.
void DriveEveryMutator(ServiceMetrics* m) {
  const auto repeat = [](int n, const auto& fn) {
    for (int i = 0; i < n; ++i) {
      fn(i);
    }
  };
  m->OnCacheHit(100);
  m->OnCacheHit(50);
  repeat(3, [&](int) { m->OnCacheMiss(200); });
  repeat(4, [&](int) { m->OnCacheEvict(25); });
  repeat(5, [&](int) { m->OnSingleFlightShared(10); });
  m->OnPlanesFetched(6, 300);
  m->OnPlanesReused(7, 700);
  repeat(8, [&](int) { m->OnNoopRefinement(); });
  m->OnRetries(9);
  m->OnRetries(0);
  repeat(10, [&](int) { m->OnFailover(); });
  repeat(11, [&](int) { m->OnReplicaLost(); });
  repeat(12, [&](int) { m->OnRetrain(); });
  repeat(13, [&](int) { m->OnModelPromoted(); });
  repeat(14, [&](int) { m->OnCandidateRejected(); });
  repeat(15, [&](int) { m->OnModelRolledBack(); });
  repeat(16, [&](int i) { m->OnShadowPair(0.5 + 0.1 * i); });
  m->OnShadowPair(0.0);  // counted, but no ratio to record
  repeat(18, [&](int i) { m->OnAdmitted(i % 7); });
  repeat(19, [&](int) { m->OnRejected(); });
  repeat(5, [&](int i) { m->OnStarted(4, 6 - i); });
  repeat(1000, [&](int i) { m->OnCompleted(true, 1.0 + 0.1 * i); });
  repeat(22, [&](int i) { m->OnCompleted(false, 150.0 + 2.0 * i); });
  m->OnCompleted(false, 1000.0);  // an outlier, so p999 != max
}

// Splits a service exposition into its three-line families (# HELP,
// # TYPE, one sample), keyed by family name.
std::map<std::string, std::string> PromFamilies(const std::string& text) {
  std::map<std::string, std::string> families;
  std::istringstream is(text);
  std::string help, type, sample;
  while (std::getline(is, help) && std::getline(is, type) &&
         std::getline(is, sample)) {
    const std::string name = sample.substr(0, sample.find(' '));
    families[name] = help + "\n" + type + "\n" + sample + "\n";
  }
  return families;
}

TEST(ServiceMetricsTest, CountersAccumulate) {
  ServiceMetrics m;
  m.OnCacheHit(100);
  m.OnCacheHit(50);
  m.OnCacheMiss(200);
  m.OnCacheEvict(25);
  m.OnSingleFlightShared(10);
  m.OnPlanesFetched(3, 300);
  m.OnPlanesReused(5, 500);
  m.OnNoopRefinement();

  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cache_hit_bytes, 150u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_miss_bytes, 200u);
  EXPECT_EQ(s.cache_evictions, 1u);
  EXPECT_EQ(s.cache_evicted_bytes, 25u);
  EXPECT_EQ(s.single_flight_shared, 1u);
  EXPECT_EQ(s.single_flight_shared_bytes, 10u);
  EXPECT_EQ(s.planes_fetched, 3u);
  EXPECT_EQ(s.fetched_bytes, 300u);
  EXPECT_EQ(s.planes_reused, 5u);
  EXPECT_EQ(s.reused_bytes, 500u);
  EXPECT_EQ(s.noop_refinements, 1u);
}

TEST(ServiceMetricsTest, HitRateCountsSharedFetchesAsHits) {
  ServiceMetrics m;
  EXPECT_DOUBLE_EQ(m.snapshot().cache_hit_rate(), 0.0);
  m.OnCacheHit(1);
  m.OnCacheMiss(1);
  m.OnSingleFlightShared(1);
  m.OnCacheMiss(1);
  // (1 hit + 1 shared) / 4 lookups.
  EXPECT_DOUBLE_EQ(m.snapshot().cache_hit_rate(), 0.5);
}

TEST(ServiceMetricsTest, SchedulerCountersAndLatency) {
  ServiceMetrics m;
  m.OnAdmitted(1);
  m.OnAdmitted(2);
  m.OnRejected();
  m.OnStarted(2, 0);
  m.OnCompleted(true, 10.0);
  m.OnCompleted(false, 20.0);

  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.requests_admitted, 2u);
  EXPECT_EQ(s.requests_rejected, 1u);
  EXPECT_EQ(s.requests_started, 2u);
  EXPECT_EQ(s.requests_completed, 1u);  // successes only
  EXPECT_EQ(s.requests_failed, 1u);
  EXPECT_EQ(s.queue_depth, 0u);  // what OnStarted left behind
  EXPECT_EQ(s.queue_depth_peak, 2u);
  EXPECT_EQ(s.latency_count, 2u);
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_LE(s.latency_p50_ms, s.latency_p99_ms);
  EXPECT_DOUBLE_EQ(s.latency_max_ms, 20.0);
}

TEST(ServiceMetricsTest, StartedCountsWholeBatches) {
  ServiceMetrics m;
  m.OnStarted(3, 5);
  m.OnStarted(4, 0);
  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.requests_started, 7u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServiceMetricsTest, JsonHasEveryCounterKey) {
  ServiceMetrics m;
  m.OnCacheHit(7);
  m.OnCompleted(true, 1.5);
  const std::string json = m.ToJson();
  for (const char* key :
       {"cache_hits", "cache_misses", "cache_hit_bytes", "cache_evictions",
        "single_flight_shared", "cache_hit_rate", "planes_fetched",
        "planes_reused", "noop_refinements", "requests_admitted",
        "requests_rejected", "requests_started", "queue_depth_peak",
        "latency_count",
        "latency_p50_ms", "latency_p99_ms", "latency_max_ms"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\":"), std::string::npos)
        << "missing key " << key << " in " << json;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ServiceMetricsTest, SnapshotJsonWithoutTracerIsPlainJson) {
  ServiceMetrics m;
  m.OnCacheHit(1);
  EXPECT_EQ(m.SnapshotJson(nullptr), m.ToJson());
  // A tracer that recorded nothing adds nothing.
  obs::Tracer idle;
  idle.set_enabled(true);
  EXPECT_EQ(m.SnapshotJson(&idle), m.ToJson());
}

TEST(ServiceMetricsTest, SnapshotJsonMergesStageSummary) {
  ServiceMetrics m;
  m.OnCacheHit(1);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::StageStats* stage = tracer.GetOrCreateStage("test/stage", "service");
  const auto t0 = std::chrono::steady_clock::now();
  tracer.RecordInterval(stage, t0, t0 + std::chrono::milliseconds(2));

  const std::string json = m.SnapshotJson(&tracer);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"test/stage\""), std::string::npos) << json;
  // Still one well-formed object: the stages array is spliced in before
  // the closing brace.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // The plain keys survive the splice.
  EXPECT_NE(json.find("\"cache_hits\":1"), std::string::npos) << json;
}

// The service exports, pinned byte for byte: the JSON snapshot exactly,
// and every mgardp_service_* family's # HELP, # TYPE and sample. Families
// are compared as a set so their order may change; families added later
// are not checked here.
TEST(ServiceMetricsTest, GoldenJsonAndPromFamilies) {
  ServiceMetrics m;
  DriveEveryMutator(&m);
  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.ToJson(),
      "{\"cache_hits\":2,\"cache_misses\":3,\"cache_hit_bytes\":150"
      ",\"cache_miss_bytes\":600,\"cache_evictions\":4"
      ",\"cache_evicted_bytes\":100,\"single_flight_shared\":5"
      ",\"single_flight_shared_bytes\":50,\"cache_hit_rate\":0.700000"
      ",\"planes_fetched\":6,\"planes_reused\":7,\"fetched_bytes\":300"
      ",\"reused_bytes\":700,\"noop_refinements\":8,\"retries_total\":9"
      ",\"failovers_total\":10,\"replicas_lost\":11,\"retrains_total\":12"
      ",\"model_promotions\":13,\"candidate_rejections\":14"
      ",\"model_rollbacks\":15,\"shadow_pairs\":17"
      ",\"shadow_byte_ratio_p50\":1.291299"
      ",\"shadow_byte_ratio_p90\":1.985121"
      ",\"shadow_byte_ratio_mean\":1.250000"
      ",\"requests_admitted\":18,\"requests_rejected\":19"
      ",\"requests_started\":20,\"requests_completed\":1000"
      ",\"requests_failed\":23,\"queue_depth\":2,\"queue_depth_peak\":6"
      ",\"latency_count\":1023,\"latency_p50_ms\":52.148321"
      ",\"latency_p90_ms\":96.568026,\"latency_p99_ms\":178.832257"
      ",\"latency_p999_ms\":213.821177,\"latency_max_ms\":1000.000000}");

  constexpr const char* kPromFamilies = R"(# HELP mgardp_service_cache_hits_total Segment cache hits.
# TYPE mgardp_service_cache_hits_total counter
mgardp_service_cache_hits_total 2
# HELP mgardp_service_cache_misses_total Segment cache misses (backend fills).
# TYPE mgardp_service_cache_misses_total counter
mgardp_service_cache_misses_total 3
# HELP mgardp_service_cache_hit_bytes_total Bytes served from the segment cache.
# TYPE mgardp_service_cache_hit_bytes_total counter
mgardp_service_cache_hit_bytes_total 150
# HELP mgardp_service_cache_miss_bytes_total Bytes read from the backend on cache misses.
# TYPE mgardp_service_cache_miss_bytes_total counter
mgardp_service_cache_miss_bytes_total 600
# HELP mgardp_service_cache_evictions_total Segment cache evictions.
# TYPE mgardp_service_cache_evictions_total counter
mgardp_service_cache_evictions_total 4
# HELP mgardp_service_single_flight_shared_total Fetches deduplicated onto an identical in-flight one.
# TYPE mgardp_service_single_flight_shared_total counter
mgardp_service_single_flight_shared_total 5
# HELP mgardp_service_planes_fetched_total Bit-planes fetched from the backend by sessions.
# TYPE mgardp_service_planes_fetched_total counter
mgardp_service_planes_fetched_total 6
# HELP mgardp_service_planes_reused_total Bit-planes reused from session or shared cache.
# TYPE mgardp_service_planes_reused_total counter
mgardp_service_planes_reused_total 7
# HELP mgardp_service_fetched_bytes_total Bytes fetched from the backend by sessions.
# TYPE mgardp_service_fetched_bytes_total counter
mgardp_service_fetched_bytes_total 300
# HELP mgardp_service_reused_bytes_total Bytes reused without touching the backend.
# TYPE mgardp_service_reused_bytes_total counter
mgardp_service_reused_bytes_total 700
# HELP mgardp_service_noop_refinements_total Refinements satisfied by the reconstruction already in hand.
# TYPE mgardp_service_noop_refinements_total counter
mgardp_service_noop_refinements_total 8
# HELP mgardp_service_retries_total Transient-fault segment read retries.
# TYPE mgardp_service_retries_total counter
mgardp_service_retries_total 9
# HELP mgardp_service_failovers_total Reads served by a non-primary replica.
# TYPE mgardp_service_failovers_total counter
mgardp_service_failovers_total 10
# HELP mgardp_service_replicas_lost_total Reads that found no live replica (permanent loss).
# TYPE mgardp_service_replicas_lost_total counter
mgardp_service_replicas_lost_total 11
# HELP mgardp_service_retrains_total Background model refits that published a candidate.
# TYPE mgardp_service_retrains_total counter
mgardp_service_retrains_total 12
# HELP mgardp_service_model_promotions_total Shadow-winning candidates promoted to serving.
# TYPE mgardp_service_model_promotions_total counter
mgardp_service_model_promotions_total 13
# HELP mgardp_service_candidate_rejections_total Shadow-losing candidates retired without serving.
# TYPE mgardp_service_candidate_rejections_total counter
mgardp_service_candidate_rejections_total 14
# HELP mgardp_service_model_rollbacks_total Automatic rollbacks after post-promotion regression.
# TYPE mgardp_service_model_rollbacks_total counter
mgardp_service_model_rollbacks_total 15
# HELP mgardp_service_shadow_pairs_total Live requests scored under both incumbent and candidate.
# TYPE mgardp_service_shadow_pairs_total counter
mgardp_service_shadow_pairs_total 17
# HELP mgardp_service_shadow_byte_ratio_p50 Median candidate/incumbent fetched-byte ratio while shadowing.
# TYPE mgardp_service_shadow_byte_ratio_p50 gauge
mgardp_service_shadow_byte_ratio_p50 1.29129938
# HELP mgardp_service_shadow_byte_ratio_p90 90th-percentile candidate/incumbent fetched-byte ratio.
# TYPE mgardp_service_shadow_byte_ratio_p90 gauge
mgardp_service_shadow_byte_ratio_p90 1.985121
# HELP mgardp_service_requests_admitted_total Requests admitted by the scheduler.
# TYPE mgardp_service_requests_admitted_total counter
mgardp_service_requests_admitted_total 18
# HELP mgardp_service_requests_rejected_total Requests rejected at admission.
# TYPE mgardp_service_requests_rejected_total counter
mgardp_service_requests_rejected_total 19
# HELP mgardp_service_requests_completed_total Requests completed successfully.
# TYPE mgardp_service_requests_completed_total counter
mgardp_service_requests_completed_total 1000
# HELP mgardp_service_requests_failed_total Requests that completed with an error.
# TYPE mgardp_service_requests_failed_total counter
mgardp_service_requests_failed_total 23
# HELP mgardp_service_queue_depth Scheduler queue depth at the last admission/start event.
# TYPE mgardp_service_queue_depth gauge
mgardp_service_queue_depth 2
# HELP mgardp_service_queue_depth_peak Peak scheduler queue depth since reset.
# TYPE mgardp_service_queue_depth_peak gauge
mgardp_service_queue_depth_peak 6
# HELP mgardp_service_cache_hit_rate Fraction of cache lookups that avoided the backend.
# TYPE mgardp_service_cache_hit_rate gauge
mgardp_service_cache_hit_rate 0.7
# HELP mgardp_service_request_latency_ms_p50 Median request latency (ms).
# TYPE mgardp_service_request_latency_ms_p50 gauge
mgardp_service_request_latency_ms_p50 52.1483214
# HELP mgardp_service_request_latency_ms_p90 90th-percentile request latency (ms).
# TYPE mgardp_service_request_latency_ms_p90 gauge
mgardp_service_request_latency_ms_p90 96.5680262
# HELP mgardp_service_request_latency_ms_p99 99th-percentile request latency (ms).
# TYPE mgardp_service_request_latency_ms_p99 gauge
mgardp_service_request_latency_ms_p99 178.832257
# HELP mgardp_service_request_latency_ms_p999 99.9th-percentile request latency (ms).
# TYPE mgardp_service_request_latency_ms_p999 gauge
mgardp_service_request_latency_ms_p999 213.821177
# HELP mgardp_service_request_latency_ms_max Maximum request latency (ms).
# TYPE mgardp_service_request_latency_ms_max gauge
mgardp_service_request_latency_ms_max 1000
)";
  obs::PromWriter w;
  AppendServiceMetricsProm(s, &w);
  const std::map<std::string, std::string> actual = PromFamilies(w.str());
  const std::map<std::string, std::string> expected =
      PromFamilies(kPromFamilies);
  ASSERT_EQ(expected.size(), 33u);
  for (const auto& [name, family] : expected) {
    const auto it = actual.find(name);
    ASSERT_NE(it, actual.end()) << "missing family " << name;
    EXPECT_EQ(it->second, family);
  }
}

TEST(ServiceMetricsTest, ResetZeroesEverything) {
  ServiceMetrics m;
  DriveEveryMutator(&m);
  m.Reset();
  EXPECT_EQ(m.snapshot().ToJson(), ServiceMetrics::Snapshot{}.ToJson());
}

// Eight writers call every mutator while a reader snapshots; relaxed
// atomics must still add up to exact totals once the writers are joined.
TEST(ServiceMetricsTest, ConcurrentMutatorsAddUpExactly) {
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  ServiceMetrics m;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      const ServiceMetrics::Snapshot s = m.snapshot();
      EXPECT_LE(s.cache_hits, std::uint64_t{kThreads} * kIters);
      EXPECT_FALSE(s.ToJson().empty());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&m, t] {
      for (int i = 0; i < kIters; ++i) {
        m.OnCacheHit(1);
        m.OnCacheMiss(2);
        m.OnCacheEvict(3);
        m.OnSingleFlightShared(4);
        m.OnPlanesFetched(2, 5);
        m.OnPlanesReused(3, 6);
        m.OnNoopRefinement();
        m.OnRetries(2);
        m.OnFailover();
        m.OnReplicaLost();
        m.OnRetrain();
        m.OnModelPromoted();
        m.OnCandidateRejected();
        m.OnModelRolledBack();
        m.OnShadowPair(1.0);
        m.OnAdmitted(static_cast<std::size_t>(t + 1));
        m.OnRejected();
        m.OnStarted(2, 0);
        m.OnCompleted(i % 2 == 0, 1.0);
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  done.store(true);
  reader.join();

  const std::uint64_t n = std::uint64_t{kThreads} * kIters;
  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.cache_hits, n);
  EXPECT_EQ(s.cache_hit_bytes, n);
  EXPECT_EQ(s.cache_misses, n);
  EXPECT_EQ(s.cache_miss_bytes, 2 * n);
  EXPECT_EQ(s.cache_evictions, n);
  EXPECT_EQ(s.cache_evicted_bytes, 3 * n);
  EXPECT_EQ(s.single_flight_shared, n);
  EXPECT_EQ(s.single_flight_shared_bytes, 4 * n);
  EXPECT_EQ(s.planes_fetched, 2 * n);
  EXPECT_EQ(s.fetched_bytes, 5 * n);
  EXPECT_EQ(s.planes_reused, 3 * n);
  EXPECT_EQ(s.reused_bytes, 6 * n);
  EXPECT_EQ(s.noop_refinements, n);
  EXPECT_EQ(s.retries_total, 2 * n);
  EXPECT_EQ(s.failovers_total, n);
  EXPECT_EQ(s.replicas_lost, n);
  EXPECT_EQ(s.retrains_total, n);
  EXPECT_EQ(s.model_promotions, n);
  EXPECT_EQ(s.candidate_rejections, n);
  EXPECT_EQ(s.model_rollbacks, n);
  EXPECT_EQ(s.shadow_pairs, n);
  EXPECT_DOUBLE_EQ(s.shadow_byte_ratio_mean, 1.0);
  EXPECT_EQ(s.requests_admitted, n);
  EXPECT_EQ(s.requests_rejected, n);
  EXPECT_EQ(s.requests_started, 2 * n);
  EXPECT_EQ(s.requests_completed, n / 2);
  EXPECT_EQ(s.requests_failed, n / 2);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.queue_depth_peak, std::uint64_t{kThreads});
  EXPECT_EQ(s.latency_count, n);
  EXPECT_DOUBLE_EQ(s.latency_max_ms, 1.0);
}

}  // namespace
}  // namespace mgardp
