// Request-scoped tracing: context identity and TLS scoping, span capture
// through the tracer's request mode, pool hops, the bounded
// per-request buffer, and the tail-sampling flight recorder.

#include "obs/request_trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "util/parallel.h"
#include "util/status.h"

namespace mgardp {
namespace obs {
namespace {

std::shared_ptr<RequestContext> MakeCtx(std::uint64_t id,
                                        std::size_t max_spans = 64) {
  return RequestContext::Create(id, "tenant", 0.0, "", max_spans);
}

TraceEvent MakeEvent(const char* name = "t/span") {
  TraceEvent ev;
  ev.name = name;
  ev.category = "test";
  ev.ts_us = 1.0;
  ev.dur_us = 2.0;
  ev.tid = CurrentThreadId();
  return ev;
}

TEST(RequestTraceTest, RecorderMintsUniqueNonZeroTraceIds) {
  RequestTraceRecorder recorder;
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 256; ++i) {
    auto ctx = recorder.StartRequest("t", 0.0, "");
    ASSERT_NE(ctx, nullptr);
    EXPECT_NE(ctx->trace_id(), 0u);
    ids.insert(ctx->trace_id());
  }
  EXPECT_EQ(ids.size(), 256u);
}

TEST(RequestTraceTest, ScopedContextInstallsNestsAndRestores) {
  EXPECT_EQ(ScopedRequestContext::Current(), nullptr);
  EXPECT_EQ(ScopedRequestContext::CurrentTraceId(), 0u);
  auto outer = MakeCtx(11);
  {
    ScopedRequestContext a(outer);
    EXPECT_EQ(ScopedRequestContext::Current(), outer.get());
    EXPECT_EQ(ScopedRequestContext::CurrentTraceId(), 11u);
    auto inner = MakeCtx(22);
    {
      ScopedRequestContext b(inner);
      EXPECT_EQ(ScopedRequestContext::CurrentTraceId(), 22u);
    }
    EXPECT_EQ(ScopedRequestContext::CurrentTraceId(), 11u);
    // A null scope is a no-op, not a clear.
    {
      ScopedRequestContext c(nullptr);
      EXPECT_EQ(ScopedRequestContext::CurrentTraceId(), 11u);
    }
  }
  EXPECT_EQ(ScopedRequestContext::Current(), nullptr);
}

TEST(RequestTraceTest, TracerRequestModeForwardsSpansToCurrentContext) {
  Tracer tracer;
  tracer.set_request_tracing(true);
  ASSERT_TRUE(tracer.enabled());
  ASSERT_FALSE(tracer.timeline_enabled());
  StageStats* stage = tracer.GetOrCreateStage("t/req", "test");
  auto ctx = MakeCtx(1);
  {
    ScopedRequestContext scope(ctx);
    Span span(&tracer, stage);
  }
  // Outside any scope, spans go nowhere (and must not crash).
  { Span span(&tracer, stage); }

  const auto spans = ctx->spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "t/req");
  // Request mode alone leaves the global timeline empty; the stage
  // profile still records both spans.
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(stage->durations_ms().count(), 2u);
}

TEST(RequestTraceTest, SpanBudgetDropsBeyondMaxAndCountsExactly) {
  auto ctx = MakeCtx(1, /*max_spans=*/8);
  for (int i = 0; i < 20; ++i) {
    ctx->AppendSpan(MakeEvent());
  }
  EXPECT_EQ(ctx->spans().size(), 8u);
  EXPECT_EQ(ctx->spans_dropped(), 12u);
}

TEST(RequestTraceTest, ContextSurvivesParallelForHop) {
  Tracer tracer;
  tracer.set_request_tracing(true);
  StageStats* stage = tracer.GetOrCreateStage("t/pool", "test");
  auto ctx = MakeCtx(1, /*max_spans=*/4096);
  constexpr std::size_t kIters = 512;
  {
    ScopedRequestContext scope(ctx);
    ParallelFor(0, kIters, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        Span span(&tracer, stage);
      }
    });
  }
  // Every iteration's span landed in the submitting request's recorder,
  // no matter which pool worker ran it.
  EXPECT_EQ(ctx->spans().size(), kIters);
  EXPECT_EQ(ctx->spans_dropped(), 0u);
  if (GlobalThreadCount() > 1) {
    std::set<int> tids;
    for (const TraceEvent& ev : ctx->spans()) {
      tids.insert(ev.tid);
    }
    EXPECT_GT(tids.size(), 1u);
  }
}

TEST(RequestTraceTest, PoolWorkersDoNotLeakContextAfterRun) {
  Tracer tracer;
  tracer.set_request_tracing(true);
  StageStats* stage = tracer.GetOrCreateStage("t/leak", "test");
  auto ctx = MakeCtx(1, 4096);
  {
    ScopedRequestContext scope(ctx);
    ParallelFor(0, 64, 1, [](std::size_t, std::size_t) {});
  }
  const std::size_t before = ctx->spans().size();
  // A later uncontexted ParallelFor on the same pool must not append to
  // the finished request.
  ParallelFor(0, 64, 1, [&](std::size_t, std::size_t) {
    Span span(&tracer, stage);
  });
  EXPECT_EQ(ctx->spans().size(), before);
}

// ---- tail sampling ---------------------------------------------------------

RequestTraceRecorder::Options FastSlowOptions() {
  RequestTraceRecorder::Options o;
  o.slow_threshold_ms = 100.0;
  return o;
}

TEST(RequestTraceTest, TailSamplerKeepsOnlyInterestingOutcomes) {
  RequestTraceRecorder recorder(FastSlowOptions());
  auto finish = [&](const Status& status, double ms) {
    recorder.FinishRequest(recorder.StartRequest("t", 0.0, ""), status, ms);
  };
  finish(Status::OK(), 1.0);                     // fast + ok: dropped
  finish(Status::OK(), 250.0);                   // slow
  finish(Status::Internal("boom"), 1.0);         // error
  finish(Status::DataLoss("segment gone"), 1.0); // degraded
  finish(Status::Overloaded("queue full"), 1.0); // shed

  const auto retained = recorder.retained();
  ASSERT_EQ(retained.size(), 4u);
  EXPECT_STREQ(retained[0].reason, "slow");
  EXPECT_STREQ(retained[1].reason, "error");
  EXPECT_STREQ(retained[2].reason, "degraded");
  EXPECT_STREQ(retained[3].reason, "shed");
  EXPECT_EQ(retained[3].code, StatusCode::kOverloaded);

  const RequestTraceRecorder::Stats s = recorder.stats();
  EXPECT_EQ(s.started, 5u);
  EXPECT_EQ(s.finished, 5u);
  EXPECT_EQ(s.retained, 4u);
  EXPECT_EQ(s.kept_slow, 1u);
  EXPECT_EQ(s.kept_error, 1u);
  EXPECT_EQ(s.kept_degraded, 1u);
  EXPECT_EQ(s.kept_shed, 1u);
  EXPECT_EQ(s.kept_head, 0u);
}

TEST(RequestTraceTest, HeadSamplingKeepsOneInN) {
  RequestTraceRecorder::Options o = FastSlowOptions();
  o.head_sample_every = 4;
  RequestTraceRecorder recorder(o);
  for (int i = 0; i < 16; ++i) {
    recorder.FinishRequest(recorder.StartRequest("t", 0.0, ""), Status::OK(),
                           1.0);
  }
  const RequestTraceRecorder::Stats s = recorder.stats();
  EXPECT_EQ(s.kept_head, 4u);
  EXPECT_EQ(recorder.retained().size(), 4u);
}

TEST(RequestTraceTest, RollingP99RuleNeedsWarmupThenCatchesOutliers) {
  RequestTraceRecorder::Options o;
  o.slow_threshold_ms = 0.0;  // rolling-p99 rule
  o.min_latency_samples = 64;
  RequestTraceRecorder recorder(o);
  // Warmup: a huge latency before enough samples exist is NOT kept.
  recorder.FinishRequest(recorder.StartRequest("t", 0.0, ""), Status::OK(),
                         500.0);
  EXPECT_EQ(recorder.retained().size(), 0u);
  for (int i = 0; i < 64; ++i) {
    recorder.FinishRequest(recorder.StartRequest("t", 0.0, ""), Status::OK(),
                           1.0);
  }
  // Past warmup an outlier far above the 1 ms bulk is kept as slow.
  recorder.FinishRequest(recorder.StartRequest("t", 0.0, ""), Status::OK(),
                         500.0);
  const auto retained = recorder.retained();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_STREQ(retained[0].reason, "slow");
  EXPECT_DOUBLE_EQ(retained[0].latency_ms, 500.0);
}

TEST(RequestTraceTest, RetainedRingEvictsOldestAndCounts) {
  RequestTraceRecorder::Options o = FastSlowOptions();
  o.max_retained = 4;
  o.head_sample_every = 1;  // keep everything so eviction is exercised
  RequestTraceRecorder recorder(o);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    auto ctx = recorder.StartRequest("t", 0.0, "");
    ids.push_back(ctx->trace_id());
    recorder.FinishRequest(ctx, Status::OK(), 1.0);
  }
  const auto retained = recorder.retained();
  ASSERT_EQ(retained.size(), 4u);
  // The four newest survive, oldest-first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(retained[i].ctx->trace_id(), ids[6 + i]);
  }
  const RequestTraceRecorder::Stats s = recorder.stats();
  EXPECT_EQ(s.retained, 10u);
  EXPECT_EQ(s.evicted, 6u);
}

TEST(RequestTraceTest, RecordShedMintsAndRetainsImmediately) {
  RequestTraceRecorder recorder;
  recorder.RecordShed("hog", "why=quota");
  const auto retained = recorder.retained();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_STREQ(retained[0].reason, "shed");
  EXPECT_EQ(retained[0].code, StatusCode::kOverloaded);
  EXPECT_NE(retained[0].ctx->trace_id(), 0u);
  EXPECT_EQ(retained[0].ctx->tenant(), "hog");
  EXPECT_EQ(retained[0].ctx->baggage(), "why=quota");
}

TEST(RequestTraceTest, NullContextFinishIsIgnored) {
  RequestTraceRecorder recorder;
  recorder.FinishRequest(nullptr, Status::OK(), 1.0);
  EXPECT_EQ(recorder.stats().finished, 0u);
}

TEST(RequestTraceTest, ConcurrentFinishLosesNothing) {
  RequestTraceRecorder::Options o = FastSlowOptions();
  o.max_retained = 128;
  o.head_sample_every = 1;
  RequestTraceRecorder recorder(o);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.FinishRequest(recorder.StartRequest("t", 0.0, ""),
                               Status::OK(), 1.0);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const RequestTraceRecorder::Stats s = recorder.stats();
  EXPECT_EQ(s.started, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.finished, s.started);
  // Every finish was retained (head 1-in-1); the ring bounds live records
  // and the eviction counter accounts for the difference exactly.
  EXPECT_EQ(s.retained, s.finished);
  EXPECT_EQ(s.retained - s.evicted, 128u);
  EXPECT_EQ(recorder.retained().size(), 128u);
}

// ---- export ----------------------------------------------------------------

TEST(RequestTraceTest, RequestLanesExportOneEventPerLineWithArgs) {
  RequestTraceRecorder recorder;
  auto ctx = recorder.StartRequest("tenant9", 125.0, "key=val");
  ctx->AppendSpan(MakeEvent("t/work"));
  recorder.FinishRequest(ctx, Status::Internal("boom"), 9.5);

  const std::string json = ToChromeRequestLanesJson(recorder.retained());
  // Machine-readable lane metadata.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"tenant9\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\":9.500"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_ms\":125.000"), std::string::npos);
  EXPECT_NE(json.find("\"baggage\":\"key=val\""), std::string::npos);
  // The span.
  EXPECT_NE(json.find("\"name\":\"t/work\""), std::string::npos);
  // One event per line: every line break sits between objects.
  EXPECT_NE(json.find("},\n{"), std::string::npos);
}

TEST(RequestTraceTest, EmptyRecorderExportsEmptyArray) {
  RequestTraceRecorder recorder;
  EXPECT_EQ(ToChromeRequestLanesJson(recorder.retained()), "[]\n");
}

}  // namespace
}  // namespace obs
}  // namespace mgardp
