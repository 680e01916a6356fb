// Service-wide observability: atomic counters and latency histograms for
// the in-process retrieval service, snapshotable as JSON.
//
// One ServiceMetrics instance is shared by the segment cache, every
// retrieval session, and the scheduler; all mutators are single relaxed
// atomic operations (plus a wait-free histogram record), so instrumentation
// never serializes the serving hot path. snapshot() reads the counters
// without stopping writers — each field is individually coherent, the set
// is only approximately simultaneous, which is what monitoring wants.

#ifndef MGARDP_SERVICE_SERVICE_METRICS_H_
#define MGARDP_SERVICE_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/histogram.h"

namespace mgardp {

namespace obs {
class ErrorControlAuditor;
class PromWriter;
class SloMonitor;
class Tracer;
}  // namespace obs

class ServiceMetrics {
 public:
  ServiceMetrics();

  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  // -- segment cache ---------------------------------------------------
  void OnCacheHit(std::size_t bytes);
  void OnCacheMiss(std::size_t bytes);  // a fill: bytes read from below
  void OnCacheEvict(std::size_t bytes);
  // A fetch deduplicated onto an identical in-flight one (single-flight).
  void OnSingleFlightShared(std::size_t bytes);

  // -- sessions --------------------------------------------------------
  void OnPlanesFetched(int planes, std::size_t bytes);
  void OnPlanesReused(int planes, std::size_t bytes);
  void OnNoopRefinement();

  // -- storage resilience ---------------------------------------------
  // `n` transient-fault retries were performed for one segment read.
  void OnRetries(int n);
  // A read was served by a replica other than the first candidate.
  void OnFailover();
  // A read found no live replica at all (permanent loss surfaced).
  void OnReplicaLost();

  // -- online learning -------------------------------------------------
  // A background refit completed and published a candidate.
  void OnRetrain();
  // A shadow-winning candidate became the serving version.
  void OnModelPromoted();
  // A shadow-losing candidate was retired without serving.
  void OnCandidateRejected();
  // Post-promotion regression rolled the serving version back.
  void OnModelRolledBack();
  // One paired shadow observation; `byte_ratio` is candidate bytes over
  // incumbent bytes for the same request (the shadow-delta histogram).
  void OnShadowPair(double byte_ratio);

  // -- scheduler -------------------------------------------------------
  void OnAdmitted(std::size_t queue_depth_now);
  void OnRejected();
  // A drained batch of `batch_size` >= 1 requests began processing;
  // `queue_depth_now` is what remained queued after the batch was taken.
  // Never call with an empty batch — started must stay reconcilable with
  // admitted/completed.
  void OnStarted(std::size_t batch_size, std::size_t queue_depth_now);
  void OnCompleted(bool ok, double latency_ms);

  struct Snapshot {
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_hit_bytes = 0;
    std::uint64_t cache_miss_bytes = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_evicted_bytes = 0;
    std::uint64_t single_flight_shared = 0;
    std::uint64_t single_flight_shared_bytes = 0;

    std::uint64_t planes_fetched = 0;
    std::uint64_t planes_reused = 0;
    std::uint64_t fetched_bytes = 0;
    std::uint64_t reused_bytes = 0;
    std::uint64_t noop_refinements = 0;

    std::uint64_t retries_total = 0;
    std::uint64_t failovers_total = 0;
    std::uint64_t replicas_lost = 0;

    std::uint64_t retrains_total = 0;
    std::uint64_t model_promotions = 0;
    std::uint64_t candidate_rejections = 0;
    std::uint64_t model_rollbacks = 0;
    std::uint64_t shadow_pairs = 0;
    double shadow_byte_ratio_p50 = 0.0;
    double shadow_byte_ratio_p90 = 0.0;
    double shadow_byte_ratio_mean = 0.0;

    std::uint64_t requests_admitted = 0;
    std::uint64_t requests_rejected = 0;
    std::uint64_t requests_started = 0;
    std::uint64_t requests_completed = 0;
    std::uint64_t requests_failed = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t queue_depth_peak = 0;

    std::uint64_t latency_count = 0;
    double latency_p50_ms = 0.0;
    double latency_p90_ms = 0.0;
    double latency_p99_ms = 0.0;
    double latency_p999_ms = 0.0;
    double latency_max_ms = 0.0;

    // Hit fraction of all cache lookups that did not hit the backend
    // (hits + single-flight shares); 0 when there were none.
    double cache_hit_rate() const;

    // One flat JSON object; keys match the field names above, plus
    // "cache_hit_rate".
    std::string ToJson() const;
  };

  Snapshot snapshot() const;
  std::string ToJson() const { return snapshot().ToJson(); }

  // The counter snapshot with the tracer's per-stage profile merged in as
  // a "stages" array (span name -> count/total/min/max/quantiles), the
  // auditor's per-model error-control accounting as an "audit" array, and
  // the SLO monitor's burn rates as an "slo" object, so one JSON object
  // answers "how much", "where the time went", "did the error control
  // hold", and "are the promises holding". Passing nullptr (or a source
  // with nothing recorded) omits the corresponding section.
  std::string SnapshotJson(const obs::Tracer* tracer = nullptr,
                           const obs::ErrorControlAuditor* auditor = nullptr,
                           const obs::SloMonitor* slo = nullptr) const;

  void Reset();

 private:
  friend void AppendServiceMetricsProm(const Snapshot& snapshot,
                                       obs::PromWriter* writer);

  // One exported value: its JSON key, Prometheus family, and where
  // snapshot() reads it from. The table (service_metrics.cc) drives
  // snapshot(), Reset(), Snapshot::ToJson() and AppendServiceMetricsProm,
  // so a new counter needs only its enum entry, Snapshot field, table row
  // and mutator.
  struct Metric;
  static const Metric kMetrics[];

  enum Counter : std::size_t {
    kCacheHits, kCacheMisses, kCacheHitBytes, kCacheMissBytes,
    kCacheEvictions, kCacheEvictedBytes, kSingleFlightShared,
    kSingleFlightSharedBytes,
    kPlanesFetched, kPlanesReused, kFetchedBytes, kReusedBytes,
    kNoopRefinements,
    kRetries, kFailovers, kReplicasLost,
    kRetrains, kModelPromotions, kCandidateRejections, kModelRollbacks,
    kShadowPairs,
    kRequestsAdmitted, kRequestsRejected, kRequestsStarted,
    kRequestsCompleted, kRequestsFailed, kQueueDepth, kQueueDepthPeak,
    kNumCounters
  };

  void Add(Counter counter, std::uint64_t n) {
    counters_[counter].fetch_add(n, std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, kNumCounters> counters_{};

  // Declared in the constructor's initialisation order.
  Histogram latency_ms_;
  Histogram shadow_byte_ratio_;
};

// Renders a metrics snapshot into a Prometheus exposition: one
// `mgardp_service_*` counter or gauge family per snapshot value, the same
// values ToJson() writes. Lives beside ServiceMetrics so the obs layer
// stays free of service-layer types.
void AppendServiceMetricsProm(const ServiceMetrics::Snapshot& snapshot,
                              obs::PromWriter* writer);

}  // namespace mgardp

#endif  // MGARDP_SERVICE_SERVICE_METRICS_H_
