// Request scheduler: deadline->retry clamping, admission control, and
// concurrent drain over the shared thread pool.

#include "service/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/request_trace.h"
#include "obs/slo.h"
#include "progressive/refactorer.h"
#include "service/retrieval_session.h"
#include "service/segment_cache.h"
#include "service/service_metrics.h"
#include "sim/warpx.h"
#include "storage/fault_injection.h"
#include "storage/storage_backend.h"
#include "util/parallel.h"

namespace mgardp {
namespace {

TEST(ClampRetryToDeadlineTest, NoDeadlineKeepsPolicy) {
  RetryPolicy::Options base;
  base.max_attempts = 7;
  base.max_delay_ms = 500.0;
  const RetryPolicy::Options out = ClampRetryToDeadline(base, 0.0);
  EXPECT_EQ(out.max_attempts, 7);
  EXPECT_DOUBLE_EQ(out.max_delay_ms, 500.0);
}

TEST(ClampRetryToDeadlineTest, TruncatesAttemptsToFitBudget) {
  RetryPolicy::Options base;
  base.max_attempts = 5;
  base.base_delay_ms = 10.0;
  base.multiplier = 2.0;
  base.max_delay_ms = 1000.0;
  // Worst-case backoffs: 10, 20, 40, 80. Deadline 35 fits 10+20 only.
  const RetryPolicy::Options out = ClampRetryToDeadline(base, 35.0);
  EXPECT_EQ(out.max_attempts, 3);
  EXPECT_DOUBLE_EQ(out.max_delay_ms, 35.0);
}

TEST(ClampRetryToDeadlineTest, TinyDeadlineStillAllowsOneAttempt) {
  RetryPolicy::Options base;
  base.max_attempts = 5;
  base.base_delay_ms = 10.0;
  const RetryPolicy::Options out = ClampRetryToDeadline(base, 0.5);
  EXPECT_EQ(out.max_attempts, 1);
}

TEST(ClampRetryToDeadlineTest, DeadlineBelowBaseDelayMeansOneAttempt) {
  RetryPolicy::Options base;
  base.max_attempts = 8;
  base.base_delay_ms = 10.0;
  base.multiplier = 2.0;
  base.max_delay_ms = 1000.0;
  // Any deadline <= the first backoff leaves no room for a second attempt
  // (a backoff consuming the whole budget buys nothing), including the
  // exact-equality edge.
  EXPECT_EQ(ClampRetryToDeadline(base, 9.9).max_attempts, 1);
  EXPECT_EQ(ClampRetryToDeadline(base, 10.0).max_attempts, 1);
}

TEST(ClampRetryToDeadlineTest, DeadlineBetweenFirstAndSecondBackoff) {
  RetryPolicy::Options base;
  base.max_attempts = 8;
  base.base_delay_ms = 10.0;
  base.multiplier = 2.0;
  base.max_delay_ms = 1000.0;
  // Backoffs are 10, 20, ...: a 15 ms deadline fits the first backoff
  // only, so exactly two attempts survive.
  const RetryPolicy::Options out = ClampRetryToDeadline(base, 15.0);
  EXPECT_EQ(out.max_attempts, 2);
}

TEST(ClampRetryToDeadlineTest, MaxDelayBelowDeadlineIsNeverRaised) {
  RetryPolicy::Options base;
  base.max_attempts = 3;
  base.base_delay_ms = 1.0;
  base.multiplier = 2.0;
  base.max_delay_ms = 5.0;
  const RetryPolicy::Options out = ClampRetryToDeadline(base, 100.0);
  // Clamping takes min(max_delay, deadline); a cap already tighter than
  // the deadline must come through untouched, as must the attempt count
  // when every backoff fits.
  EXPECT_DOUBLE_EQ(out.max_delay_ms, 5.0);
  EXPECT_EQ(out.max_attempts, 3);
}

class RetrievalSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WarpXSimulator sim(Dims3{17, 17, 17});
    auto field = Refactorer().Refactor(sim.Field(WarpXField::kEx, 6));
    ASSERT_TRUE(field.ok());
    field_ = std::move(field).value();
    backend_ = std::make_unique<MemoryBackend>(&field_.segments);
    range_ = field_.data_summary.range();
  }

  std::unique_ptr<RetrievalSession> NewSession(SegmentCache* cache,
                                               ServiceMetrics* metrics) {
    return std::make_unique<RetrievalSession>("f", &field_, backend_.get(),
                                              &theory_, cache, metrics);
  }

  RefactoredField field_;
  std::unique_ptr<MemoryBackend> backend_;
  TheoryEstimator theory_;
  double range_ = 0.0;
};

TEST_F(RetrievalSchedulerTest, RejectsWhenQueueIsFull) {
  ServiceMetrics metrics;
  RetrievalScheduler::Options opts;
  opts.queue_capacity = 2;
  RetrievalScheduler scheduler(&metrics, opts);
  auto session = NewSession(nullptr, &metrics);

  const RetrievalScheduler::Request req{session.get(), 1e-2 * range_, 0.0,
                                        ""};
  EXPECT_TRUE(scheduler.Submit(req, nullptr).ok());
  EXPECT_TRUE(scheduler.Submit(req, nullptr).ok());
  const Status rejected = scheduler.Submit(req, nullptr);
  EXPECT_EQ(rejected.code(), StatusCode::kOverloaded);
  EXPECT_EQ(scheduler.queue_depth(), 2u);
  EXPECT_EQ(metrics.snapshot().requests_admitted, 2u);
  EXPECT_EQ(metrics.snapshot().requests_rejected, 1u);

  scheduler.Drain();
  EXPECT_EQ(scheduler.queue_depth(), 0u);
  // Capacity freed: admission works again.
  EXPECT_TRUE(scheduler.Submit(req, nullptr).ok());
  scheduler.Drain();
}

TEST_F(RetrievalSchedulerTest, PerTenantQuotaShedsOnlyTheHog) {
  ServiceMetrics metrics;
  RetrievalScheduler::Options opts;
  opts.queue_capacity = 16;
  opts.per_tenant_capacity = 2;
  RetrievalScheduler scheduler(&metrics, opts);
  auto session = NewSession(nullptr, &metrics);

  RetrievalScheduler::Request hog{session.get(), 1e-2 * range_, 0.0, "hog"};
  EXPECT_TRUE(scheduler.Submit(hog, nullptr).ok());
  EXPECT_TRUE(scheduler.Submit(hog, nullptr).ok());
  const Status shed = scheduler.Submit(hog, nullptr);
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);
  // The quota is per tenant: another tenant still gets in.
  RetrievalScheduler::Request other{session.get(), 1e-2 * range_, 0.0,
                                    "other"};
  EXPECT_TRUE(scheduler.Submit(other, nullptr).ok());
  EXPECT_EQ(scheduler.queue_depth(), 3u);
  scheduler.Drain();
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

TEST_F(RetrievalSchedulerTest, DrainInterleavesTenantsFairly) {
  // A 1-thread pool executes a drained batch inline and in order, making
  // the fair-dequeue assembly order directly observable.
  const int prev_threads = GlobalThreadCount();
  SetGlobalThreadCount(1);
  ServiceMetrics metrics;
  RetrievalScheduler scheduler(&metrics);
  auto session = NewSession(nullptr, &metrics);

  std::vector<std::string> order;
  auto record = [&order](const std::string& tenant) {
    return [&order, tenant](const RetrievalScheduler::Response&) {
      order.push_back(tenant);
    };
  };
  // Tenant "a" bursts 3 requests before tenant "b" submits one. A plain
  // FIFO would run b last; the round-robin dequeue runs it second.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(scheduler
                    .Submit({session.get(), 1e-2 * range_, 0.0, "a"},
                            record("a"))
                    .ok());
  }
  ASSERT_TRUE(scheduler
                  .Submit({session.get(), 1e-2 * range_, 0.0, "b"},
                          record("b"))
                  .ok());
  scheduler.Drain();
  SetGlobalThreadCount(prev_threads);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "a"}));
}

TEST_F(RetrievalSchedulerTest, SubmitRejectsNullSession) {
  RetrievalScheduler scheduler;
  EXPECT_FALSE(
      scheduler.Submit({nullptr, 1e-2 * range_, 0.0, ""}, nullptr).ok());
}

TEST_F(RetrievalSchedulerTest, DrainRunsEveryCallbackWithResults) {
  ServiceMetrics metrics;
  SegmentCache cache(SegmentCache::Options(), &metrics);
  RetrievalScheduler scheduler(&metrics);

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<RetrievalSession>> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(NewSession(&cache, &metrics));
  }
  std::atomic<int> called{0};
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(scheduler
                    .Submit({sessions[c].get(), 1e-3 * range_, 0.0, ""},
                            [&called, this](
                                const RetrievalScheduler::Response& resp) {
                              EXPECT_TRUE(resp.status.ok());
                              EXPECT_NE(resp.data, nullptr);
                              EXPECT_TRUE(resp.refinement.bound_met);
                              EXPECT_GE(resp.latency_ms, 0.0);
                              EXPECT_LE(resp.refinement.estimated_error,
                                        1e-3 * range_);
                              called.fetch_add(1);
                            })
                    .ok());
  }
  scheduler.Drain();
  EXPECT_EQ(called.load(), kClients);
  EXPECT_EQ(scheduler.queue_depth(), 0u);
  const ServiceMetrics::Snapshot s = metrics.snapshot();
  EXPECT_EQ(s.requests_completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.requests_failed, 0u);
  EXPECT_EQ(s.latency_count, static_cast<std::uint64_t>(kClients));
  // Concurrent identical retrievals shared segments through the cache.
  EXPECT_GT(s.cache_hits + s.single_flight_shared, 0u);
  // All sessions converged on the same prefix.
  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(sessions[c]->prefix(), sessions[0]->prefix());
  }
}

TEST_F(RetrievalSchedulerTest, CallbacksMaySubmitFollowUps) {
  ServiceMetrics metrics;
  RetrievalScheduler scheduler(&metrics);
  auto session = NewSession(nullptr, &metrics);

  std::atomic<int> completions{0};
  RetrievalScheduler::Callback tighten =
      [&](const RetrievalScheduler::Response& resp) {
        ASSERT_TRUE(resp.status.ok());
        completions.fetch_add(1);
        // First round at 1e-2 chains a tighter follow-up request.
        if (resp.refinement.requested_bound > 1e-3 * range_) {
          ASSERT_TRUE(scheduler
                          .Submit({session.get(), 1e-4 * range_, 0.0, ""},
                                  [&completions](
                                      const RetrievalScheduler::Response& r) {
                                    EXPECT_TRUE(r.status.ok());
                                    EXPECT_FALSE(r.refinement.noop);
                                    completions.fetch_add(1);
                                  })
                          .ok());
        }
      };
  ASSERT_TRUE(
      scheduler.Submit({session.get(), 1e-2 * range_, 0.0, ""}, tighten).ok());
  scheduler.Drain();
  EXPECT_EQ(completions.load(), 2);
  EXPECT_LE(session->estimated_error(), 1e-4 * range_);
}

TEST_F(RetrievalSchedulerTest, EmptyDrainStartsNothing) {
  // Regression: Drain() used to emit OnStarted for every sweep, including
  // sweeps that popped an empty queue, so requests_started drifted above
  // requests_admitted.
  ServiceMetrics metrics;
  RetrievalScheduler scheduler(&metrics);
  scheduler.Drain();
  scheduler.Drain();
  EXPECT_EQ(metrics.snapshot().requests_started, 0u);
  EXPECT_EQ(metrics.snapshot().queue_depth, 0u);
}

TEST_F(RetrievalSchedulerTest, StartedReconcilesWithAdmittedAndCompleted) {
  ServiceMetrics metrics;
  RetrievalScheduler scheduler(&metrics);
  constexpr int kClients = 5;
  std::vector<std::unique_ptr<RetrievalSession>> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(NewSession(nullptr, &metrics));
    ASSERT_TRUE(scheduler
                    .Submit({sessions.back().get(), 1e-2 * range_, 0.0, ""},
                            nullptr)
                    .ok());
  }
  scheduler.Drain();
  scheduler.Drain();  // empty: must not inflate started
  const ServiceMetrics::Snapshot s = metrics.snapshot();
  EXPECT_EQ(s.requests_admitted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.requests_started, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.requests_completed + s.requests_failed,
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST_F(RetrievalSchedulerTest, DeadlinedRequestsStillComplete) {
  ServiceMetrics metrics;
  RetrievalScheduler::Options opts;
  opts.retry.max_attempts = 5;
  opts.retry.base_delay_ms = 50.0;
  RetrievalScheduler scheduler(&metrics, opts);
  auto session = NewSession(nullptr, &metrics);

  std::atomic<bool> ok{false};
  ASSERT_TRUE(scheduler
                  .Submit({session.get(), 1e-3 * range_, /*deadline_ms=*/1.0, ""},
                          [&ok](const RetrievalScheduler::Response& resp) {
                            ok.store(resp.status.ok());
                          })
                  .ok());
  scheduler.Drain();
  EXPECT_TRUE(ok.load());
}

TEST_F(RetrievalSchedulerTest, FlightRecorderAndSloObserveAdmissionAndShed) {
  ServiceMetrics metrics;
  obs::RequestTraceRecorder::Options ropts;
  ropts.slow_threshold_ms = 1e9;  // nothing is "slow"
  ropts.head_sample_every = 1;    // ...but every completion is head-kept
  obs::RequestTraceRecorder recorder(ropts);
  obs::SloMonitor slo;

  RetrievalScheduler::Options opts;
  opts.queue_capacity = 2;
  opts.flight_recorder = &recorder;
  opts.slo = &slo;
  RetrievalScheduler scheduler(&metrics, opts);
  auto session = NewSession(nullptr, &metrics);

  RetrievalScheduler::Request req{session.get(), 1e-2 * range_, 0.0, "t"};
  req.baggage = "client=7";
  ASSERT_TRUE(scheduler.Submit(req, nullptr).ok());
  ASSERT_TRUE(scheduler.Submit(req, nullptr).ok());
  // The third is shed: the recorder must retain it without it ever running.
  EXPECT_EQ(scheduler.Submit(req, nullptr).code(), StatusCode::kOverloaded);
  scheduler.Drain();

  // RecordShed counts as a started+finished request too (3 = 2 admitted
  // plus the shed one).
  const obs::RequestTraceRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.started, 3u);
  EXPECT_EQ(stats.finished, 3u);
  EXPECT_EQ(stats.kept_shed, 1u);
  EXPECT_EQ(stats.kept_head, 2u);
  const auto retained = recorder.retained();
  ASSERT_EQ(retained.size(), 3u);
  // The shed record carries the request's tenant and baggage; the admitted
  // ones carry distinct trace ids.
  EXPECT_STREQ(retained[0].reason, "shed");
  EXPECT_EQ(retained[0].ctx->tenant(), "t");
  EXPECT_EQ(retained[0].ctx->baggage(), "client=7");
  EXPECT_NE(retained[1].ctx->trace_id(), retained[2].ctx->trace_id());

  // The SLO monitor counted all three: two completions plus one shed
  // (always bad) against the default "all" tier.
  ASSERT_TRUE(slo.has_data());
  const auto objectives = slo.snapshot();
  ASSERT_FALSE(objectives.empty());
  EXPECT_EQ(objectives[0].name, "latency:all");
  EXPECT_EQ(objectives[0].slo.total, 3u);
  EXPECT_GE(objectives[0].slo.bad, 1u);
}

TEST_F(RetrievalSchedulerTest, DegradedRefinementIsKeptAsDegraded) {
  // A lost segment no longer fails the request — the session degrades and
  // returns a field — but the flight recorder must still keep its lane as
  // "degraded" and the SLO must count it bad.
  FaultInjectingBackend faulty(backend_.get());
  faulty.SetFault(0, 0, {FaultKind::kMissing});
  RetrievalSession session("f", &field_, &faulty, &theory_);

  obs::RequestTraceRecorder::Options ropts;
  ropts.slow_threshold_ms = 1e9;  // nothing is "slow"
  obs::RequestTraceRecorder recorder(ropts);
  obs::SloMonitor slo;
  RetrievalScheduler::Options opts;
  opts.flight_recorder = &recorder;
  opts.slo = &slo;
  RetrievalScheduler scheduler(nullptr, opts);

  RetrievalScheduler::Response response;
  RetrievalScheduler::Request req;
  req.session = &session;
  req.error_bound = 1e-2 * range_;
  ASSERT_TRUE(scheduler
                  .Submit(req,
                          [&response](const RetrievalScheduler::Response& r) {
                            response = r;
                          })
                  .ok());
  scheduler.Drain();

  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_NE(response.data, nullptr);
  EXPECT_TRUE(response.refinement.degraded);

  const obs::RequestTraceRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.kept_degraded, 1u);
  const auto retained = recorder.retained();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_STREQ(retained[0].reason, "degraded");
  EXPECT_EQ(retained[0].code, StatusCode::kDataLoss);

  const auto objectives = slo.snapshot();
  ASSERT_FALSE(objectives.empty());
  EXPECT_EQ(objectives[0].slo.total, 1u);
  EXPECT_EQ(objectives[0].slo.bad, 1u);
}

}  // namespace
}  // namespace mgardp
