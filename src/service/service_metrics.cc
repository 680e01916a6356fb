#include "service/service_metrics.h"

#include <cstdio>

#include "obs/audit.h"
#include "obs/prom_export.h"
#include "obs/slo.h"
#include "obs/tracer.h"

namespace mgardp {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

void AtomicPeak(std::atomic<std::uint64_t>* peak, std::uint64_t value) {
  std::uint64_t cur = peak->load(kRelaxed);
  while (value > cur && !peak->compare_exchange_weak(cur, value, kRelaxed)) {
  }
}
}  // namespace

ServiceMetrics::ServiceMetrics()
    // Latencies from microseconds to ~20 minutes at 25% resolution.
    : latency_ms_(Histogram::Options{1e-3, 1.25, 96}),
      // Candidate/incumbent byte ratios cluster around 1; 10% geometric
      // buckets over [0.01, ~2e3] match the audit ratio histograms.
      shadow_byte_ratio_(Histogram::Options{1e-2, 1.1, 128}) {}

void ServiceMetrics::OnCacheHit(std::size_t bytes) {
  Add(kCacheHits, 1);
  Add(kCacheHitBytes, bytes);
}

void ServiceMetrics::OnCacheMiss(std::size_t bytes) {
  Add(kCacheMisses, 1);
  Add(kCacheMissBytes, bytes);
}

void ServiceMetrics::OnCacheEvict(std::size_t bytes) {
  Add(kCacheEvictions, 1);
  Add(kCacheEvictedBytes, bytes);
}

void ServiceMetrics::OnSingleFlightShared(std::size_t bytes) {
  Add(kSingleFlightShared, 1);
  Add(kSingleFlightSharedBytes, bytes);
}

void ServiceMetrics::OnPlanesFetched(int planes, std::size_t bytes) {
  Add(kPlanesFetched, static_cast<std::uint64_t>(planes));
  Add(kFetchedBytes, bytes);
}

void ServiceMetrics::OnPlanesReused(int planes, std::size_t bytes) {
  Add(kPlanesReused, static_cast<std::uint64_t>(planes));
  Add(kReusedBytes, bytes);
}

void ServiceMetrics::OnNoopRefinement() { Add(kNoopRefinements, 1); }

void ServiceMetrics::OnRetries(int n) {
  if (n > 0) {
    Add(kRetries, static_cast<std::uint64_t>(n));
  }
}

void ServiceMetrics::OnFailover() { Add(kFailovers, 1); }

void ServiceMetrics::OnReplicaLost() { Add(kReplicasLost, 1); }

void ServiceMetrics::OnRetrain() { Add(kRetrains, 1); }

void ServiceMetrics::OnModelPromoted() { Add(kModelPromotions, 1); }

void ServiceMetrics::OnCandidateRejected() { Add(kCandidateRejections, 1); }

void ServiceMetrics::OnModelRolledBack() { Add(kModelRollbacks, 1); }

void ServiceMetrics::OnShadowPair(double byte_ratio) {
  Add(kShadowPairs, 1);
  if (byte_ratio > 0.0) {
    shadow_byte_ratio_.Record(byte_ratio);
  }
}

void ServiceMetrics::OnAdmitted(std::size_t queue_depth_now) {
  Add(kRequestsAdmitted, 1);
  counters_[kQueueDepth].store(queue_depth_now, kRelaxed);
  AtomicPeak(&counters_[kQueueDepthPeak], queue_depth_now);
}

void ServiceMetrics::OnRejected() { Add(kRequestsRejected, 1); }

void ServiceMetrics::OnStarted(std::size_t batch_size,
                               std::size_t queue_depth_now) {
  Add(kRequestsStarted, batch_size);
  counters_[kQueueDepth].store(queue_depth_now, kRelaxed);
}

void ServiceMetrics::OnCompleted(bool ok, double latency_ms) {
  Add(ok ? kRequestsCompleted : kRequestsFailed, 1);
  latency_ms_.Record(latency_ms);
}

namespace {

// The statistics a histogram contributes to the snapshot.
enum class Stat { kCount, kMean, kMax, kP50, kP90, kP99, kP999 };

double Statistic(const Histogram& h, Stat stat) {
  switch (stat) {
    case Stat::kCount:
      return static_cast<double>(h.count());
    case Stat::kMean:
      return h.count() == 0 ? 0.0
                            : h.sum() / static_cast<double>(h.count());
    case Stat::kMax:
      return h.max();
    case Stat::kP50:
      return h.Quantile(0.50);
    case Stat::kP90:
      return h.Quantile(0.90);
    case Stat::kP99:
      return h.Quantile(0.99);
    case Stat::kP999:
      return h.Quantile(0.999);
  }
  return 0.0;
}

}  // namespace

struct ServiceMetrics::Metric {
  const char* json;  // JSON key, and the name of the Snapshot field
  const char* prom;  // Prometheus family name
  const char* type;  // Prometheus type: "counter" or "gauge"
  const char* help;
  // Source: a counter, a histogram statistic, or neither for a value the
  // Snapshot derives from its other fields.
  Counter counter = kNumCounters;
  Histogram ServiceMetrics::*histogram = nullptr;
  Stat stat = Stat::kCount;
  // Destination: exactly one of these is set.
  std::uint64_t Snapshot::*u64 = nullptr;
  double Snapshot::*f64 = nullptr;
  double (Snapshot::*derived)() const = nullptr;

  double Value(const Snapshot& s) const {
    return u64 != nullptr   ? static_cast<double>(s.*u64)
           : f64 != nullptr ? s.*f64
                            : (s.*derived)();
  }
};

// Rows in JSON key order.
const ServiceMetrics::Metric ServiceMetrics::kMetrics[] = {
    {.json = "cache_hits", .prom = "mgardp_service_cache_hits_total",
     .type = "counter", .help = "Segment cache hits.", .counter = kCacheHits,
     .u64 = &Snapshot::cache_hits},
    {.json = "cache_misses", .prom = "mgardp_service_cache_misses_total",
     .type = "counter", .help = "Segment cache misses (backend fills).",
     .counter = kCacheMisses, .u64 = &Snapshot::cache_misses},
    {.json = "cache_hit_bytes", .prom = "mgardp_service_cache_hit_bytes_total",
     .type = "counter", .help = "Bytes served from the segment cache.",
     .counter = kCacheHitBytes, .u64 = &Snapshot::cache_hit_bytes},
    {.json = "cache_miss_bytes",
     .prom = "mgardp_service_cache_miss_bytes_total", .type = "counter",
     .help = "Bytes read from the backend on cache misses.",
     .counter = kCacheMissBytes, .u64 = &Snapshot::cache_miss_bytes},
    {.json = "cache_evictions", .prom = "mgardp_service_cache_evictions_total",
     .type = "counter", .help = "Segment cache evictions.",
     .counter = kCacheEvictions, .u64 = &Snapshot::cache_evictions},
    {.json = "cache_evicted_bytes",
     .prom = "mgardp_service_cache_evicted_bytes_total", .type = "counter",
     .help = "Bytes evicted from the segment cache.",
     .counter = kCacheEvictedBytes, .u64 = &Snapshot::cache_evicted_bytes},
    {.json = "single_flight_shared",
     .prom = "mgardp_service_single_flight_shared_total", .type = "counter",
     .help = "Fetches deduplicated onto an identical in-flight one.",
     .counter = kSingleFlightShared, .u64 = &Snapshot::single_flight_shared},
    {.json = "single_flight_shared_bytes",
     .prom = "mgardp_service_single_flight_shared_bytes_total",
     .type = "counter",
     .help = "Bytes served by fetches deduplicated onto an in-flight one.",
     .counter = kSingleFlightSharedBytes,
     .u64 = &Snapshot::single_flight_shared_bytes},
    {.json = "cache_hit_rate", .prom = "mgardp_service_cache_hit_rate",
     .type = "gauge",
     .help = "Fraction of cache lookups that avoided the backend.",
     .derived = &Snapshot::cache_hit_rate},
    {.json = "planes_fetched", .prom = "mgardp_service_planes_fetched_total",
     .type = "counter",
     .help = "Bit-planes fetched from the backend by sessions.",
     .counter = kPlanesFetched, .u64 = &Snapshot::planes_fetched},
    {.json = "planes_reused", .prom = "mgardp_service_planes_reused_total",
     .type = "counter",
     .help = "Bit-planes reused from session or shared cache.",
     .counter = kPlanesReused, .u64 = &Snapshot::planes_reused},
    {.json = "fetched_bytes", .prom = "mgardp_service_fetched_bytes_total",
     .type = "counter", .help = "Bytes fetched from the backend by sessions.",
     .counter = kFetchedBytes, .u64 = &Snapshot::fetched_bytes},
    {.json = "reused_bytes", .prom = "mgardp_service_reused_bytes_total",
     .type = "counter", .help = "Bytes reused without touching the backend.",
     .counter = kReusedBytes, .u64 = &Snapshot::reused_bytes},
    {.json = "noop_refinements",
     .prom = "mgardp_service_noop_refinements_total", .type = "counter",
     .help = "Refinements satisfied by the reconstruction already in hand.",
     .counter = kNoopRefinements, .u64 = &Snapshot::noop_refinements},
    {.json = "retries_total", .prom = "mgardp_service_retries_total",
     .type = "counter", .help = "Transient-fault segment read retries.",
     .counter = kRetries, .u64 = &Snapshot::retries_total},
    {.json = "failovers_total", .prom = "mgardp_service_failovers_total",
     .type = "counter", .help = "Reads served by a non-primary replica.",
     .counter = kFailovers, .u64 = &Snapshot::failovers_total},
    {.json = "replicas_lost", .prom = "mgardp_service_replicas_lost_total",
     .type = "counter",
     .help = "Reads that found no live replica (permanent loss).",
     .counter = kReplicasLost, .u64 = &Snapshot::replicas_lost},
    {.json = "retrains_total", .prom = "mgardp_service_retrains_total",
     .type = "counter",
     .help = "Background model refits that published a candidate.",
     .counter = kRetrains, .u64 = &Snapshot::retrains_total},
    {.json = "model_promotions",
     .prom = "mgardp_service_model_promotions_total", .type = "counter",
     .help = "Shadow-winning candidates promoted to serving.",
     .counter = kModelPromotions, .u64 = &Snapshot::model_promotions},
    {.json = "candidate_rejections",
     .prom = "mgardp_service_candidate_rejections_total", .type = "counter",
     .help = "Shadow-losing candidates retired without serving.",
     .counter = kCandidateRejections, .u64 = &Snapshot::candidate_rejections},
    {.json = "model_rollbacks", .prom = "mgardp_service_model_rollbacks_total",
     .type = "counter",
     .help = "Automatic rollbacks after post-promotion regression.",
     .counter = kModelRollbacks, .u64 = &Snapshot::model_rollbacks},
    {.json = "shadow_pairs", .prom = "mgardp_service_shadow_pairs_total",
     .type = "counter",
     .help = "Live requests scored under both incumbent and candidate.",
     .counter = kShadowPairs, .u64 = &Snapshot::shadow_pairs},
    {.json = "shadow_byte_ratio_p50",
     .prom = "mgardp_service_shadow_byte_ratio_p50", .type = "gauge",
     .help = "Median candidate/incumbent fetched-byte ratio while shadowing.",
     .histogram = &ServiceMetrics::shadow_byte_ratio_, .stat = Stat::kP50,
     .f64 = &Snapshot::shadow_byte_ratio_p50},
    {.json = "shadow_byte_ratio_p90",
     .prom = "mgardp_service_shadow_byte_ratio_p90", .type = "gauge",
     .help = "90th-percentile candidate/incumbent fetched-byte ratio.",
     .histogram = &ServiceMetrics::shadow_byte_ratio_, .stat = Stat::kP90,
     .f64 = &Snapshot::shadow_byte_ratio_p90},
    {.json = "shadow_byte_ratio_mean",
     .prom = "mgardp_service_shadow_byte_ratio_mean", .type = "gauge",
     .help = "Mean candidate/incumbent fetched-byte ratio while shadowing.",
     .histogram = &ServiceMetrics::shadow_byte_ratio_, .stat = Stat::kMean,
     .f64 = &Snapshot::shadow_byte_ratio_mean},
    {.json = "requests_admitted",
     .prom = "mgardp_service_requests_admitted_total", .type = "counter",
     .help = "Requests admitted by the scheduler.",
     .counter = kRequestsAdmitted, .u64 = &Snapshot::requests_admitted},
    {.json = "requests_rejected",
     .prom = "mgardp_service_requests_rejected_total", .type = "counter",
     .help = "Requests rejected at admission.", .counter = kRequestsRejected,
     .u64 = &Snapshot::requests_rejected},
    {.json = "requests_started",
     .prom = "mgardp_service_requests_started_total", .type = "counter",
     .help = "Admitted requests whose processing began.",
     .counter = kRequestsStarted, .u64 = &Snapshot::requests_started},
    {.json = "requests_completed",
     .prom = "mgardp_service_requests_completed_total", .type = "counter",
     .help = "Requests completed successfully.", .counter = kRequestsCompleted,
     .u64 = &Snapshot::requests_completed},
    {.json = "requests_failed", .prom = "mgardp_service_requests_failed_total",
     .type = "counter", .help = "Requests that completed with an error.",
     .counter = kRequestsFailed, .u64 = &Snapshot::requests_failed},
    {.json = "queue_depth", .prom = "mgardp_service_queue_depth",
     .type = "gauge",
     .help = "Scheduler queue depth at the last admission/start event.",
     .counter = kQueueDepth, .u64 = &Snapshot::queue_depth},
    {.json = "queue_depth_peak", .prom = "mgardp_service_queue_depth_peak",
     .type = "gauge", .help = "Peak scheduler queue depth since reset.",
     .counter = kQueueDepthPeak, .u64 = &Snapshot::queue_depth_peak},
    {.json = "latency_count",
     .prom = "mgardp_service_request_latency_samples_total", .type = "counter",
     .help = "Request latencies recorded (completed and failed).",
     .histogram = &ServiceMetrics::latency_ms_, .stat = Stat::kCount,
     .u64 = &Snapshot::latency_count},
    {.json = "latency_p50_ms", .prom = "mgardp_service_request_latency_ms_p50",
     .type = "gauge", .help = "Median request latency (ms).",
     .histogram = &ServiceMetrics::latency_ms_, .stat = Stat::kP50,
     .f64 = &Snapshot::latency_p50_ms},
    {.json = "latency_p90_ms", .prom = "mgardp_service_request_latency_ms_p90",
     .type = "gauge", .help = "90th-percentile request latency (ms).",
     .histogram = &ServiceMetrics::latency_ms_, .stat = Stat::kP90,
     .f64 = &Snapshot::latency_p90_ms},
    {.json = "latency_p99_ms", .prom = "mgardp_service_request_latency_ms_p99",
     .type = "gauge", .help = "99th-percentile request latency (ms).",
     .histogram = &ServiceMetrics::latency_ms_, .stat = Stat::kP99,
     .f64 = &Snapshot::latency_p99_ms},
    {.json = "latency_p999_ms",
     .prom = "mgardp_service_request_latency_ms_p999", .type = "gauge",
     .help = "99.9th-percentile request latency (ms).",
     .histogram = &ServiceMetrics::latency_ms_, .stat = Stat::kP999,
     .f64 = &Snapshot::latency_p999_ms},
    {.json = "latency_max_ms", .prom = "mgardp_service_request_latency_ms_max",
     .type = "gauge", .help = "Maximum request latency (ms).",
     .histogram = &ServiceMetrics::latency_ms_, .stat = Stat::kMax,
     .f64 = &Snapshot::latency_max_ms},
};

double ServiceMetrics::Snapshot::cache_hit_rate() const {
  const std::uint64_t reused = cache_hits + single_flight_shared;
  const std::uint64_t lookups = reused + cache_misses;
  return lookups == 0
             ? 0.0
             : static_cast<double>(reused) / static_cast<double>(lookups);
}

std::string ServiceMetrics::Snapshot::ToJson() const {
  std::string json = "{";
  for (const Metric& m : kMetrics) {
    char buf[96];
    if (m.u64 != nullptr) {
      std::snprintf(buf, sizeof(buf), "\"%s\":%llu", m.json,
                    static_cast<unsigned long long>(this->*m.u64));
    } else {
      std::snprintf(buf, sizeof(buf), "\"%s\":%.6f", m.json, m.Value(*this));
    }
    json += json.size() > 1 ? "," : "";
    json += buf;
  }
  return json + "}";
}

std::string ServiceMetrics::SnapshotJson(const obs::Tracer* tracer,
                                         const obs::ErrorControlAuditor* auditor,
                                         const obs::SloMonitor* slo) const {
  std::string json = ToJson();
  if (tracer != nullptr) {
    const std::string stages = tracer->SummaryJson();
    if (stages != "[]") {
      // Splice into the flat object: {...} -> {...,"stages":[...]}
      json.pop_back();
      json += ",\"stages\":";
      json += stages;
      json += "}";
    }
  }
  if (auditor != nullptr) {
    const std::string audit = auditor->ToJson();
    if (audit != "[]") {
      json.pop_back();
      json += ",\"audit\":";
      json += audit;
      json += "}";
    }
  }
  if (slo != nullptr && slo->has_data()) {
    json.pop_back();
    json += ",\"slo\":";
    json += slo->ToJson();
    json += "}";
  }
  return json;
}

void AppendServiceMetricsProm(const ServiceMetrics::Snapshot& s,
                              obs::PromWriter* writer) {
  for (const ServiceMetrics::Metric& m : ServiceMetrics::kMetrics) {
    writer->Family(m.prom, m.type, m.help);
    writer->Sample({}, m.Value(s));
  }
}

ServiceMetrics::Snapshot ServiceMetrics::snapshot() const {
  Snapshot s;
  for (const Metric& m : kMetrics) {
    if (m.counter != kNumCounters) {
      s.*m.u64 = counters_[m.counter].load(kRelaxed);
    } else if (m.histogram == nullptr) {
      continue;  // derived from the fields above
    } else if (m.stat == Stat::kCount) {
      s.*m.u64 = (this->*m.histogram).count();
    } else {
      s.*m.f64 = Statistic(this->*m.histogram, m.stat);
    }
  }
  return s;
}

void ServiceMetrics::Reset() {
  for (std::atomic<std::uint64_t>& counter : counters_) {
    counter = 0;
  }
  // A histogram behind several rows is reset once per row; that is harmless.
  for (const Metric& m : kMetrics) {
    if (m.histogram != nullptr) {
      (this->*m.histogram).Reset();
    }
  }
}

}  // namespace mgardp
