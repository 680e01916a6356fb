// Stateful retrieval sessions: incremental refinement must be bit-identical
// to a cold one-shot retrieval at the final bound while fetching strictly
// fewer bytes per step, and loosening must be a free no-op.

#include "service/retrieval_session.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/audit.h"
#include "progressive/refactorer.h"
#include "service/segment_cache.h"
#include "service/service_metrics.h"
#include "sim/warpx.h"
#include "storage/storage_backend.h"
#include "util/stats.h"

namespace mgardp {
namespace {

class RetrievalSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WarpXSimulator sim(Dims3{17, 17, 17});
    original_ = sim.Field(WarpXField::kEx, 6);
    auto field = Refactorer().Refactor(original_);
    ASSERT_TRUE(field.ok());
    field_ = std::move(field).value();
    backend_ = std::make_unique<MemoryBackend>(&field_.segments);
    range_ = field_.data_summary.range();
  }

  Array3Dd original_;
  RefactoredField field_;
  std::unique_ptr<MemoryBackend> backend_;
  TheoryEstimator theory_;
  double range_ = 0.0;
};

TEST_F(RetrievalSessionTest, RefineMeetsBoundAndReportsAccounting) {
  RetrievalSession session("f", &field_, backend_.get(), &theory_);
  RetrievalSession::Refinement info;
  auto data = session.Refine(1e-3 * range_, &info);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(info.bound_met);
  EXPECT_FALSE(info.noop);
  EXPECT_GT(info.planes_fetched, 0);
  EXPECT_GT(info.fetched_bytes, 0u);
  EXPECT_EQ(info.planes_reused, 0);
  EXPECT_EQ(info.prefix, session.prefix());
  EXPECT_LE(session.estimated_error(), 1e-3 * range_);
  EXPECT_LE(MaxAbsError(original_.vector(), data.value()->vector()),
            1e-3 * range_);
  EXPECT_EQ(session.lifetime_fetched_bytes(), info.fetched_bytes);
}

TEST_F(RetrievalSessionTest, IncrementalChainIsBitIdenticalToOneShot) {
  ServiceMetrics warm_metrics;
  RetrievalSession warm("f", &field_, backend_.get(), &theory_, nullptr,
                        &warm_metrics);
  const std::vector<double> ladder = {1e-1, 1e-2, 1e-3, 1e-4};
  std::size_t prev_lifetime = 0;
  for (const double rel : ladder) {
    RetrievalSession::Refinement info;
    auto data = warm.Refine(rel * range_, &info);
    ASSERT_TRUE(data.ok());
    EXPECT_TRUE(info.bound_met);
    // Each step paid only its delta on top of what was already in hand.
    EXPECT_EQ(warm.lifetime_fetched_bytes(),
              prev_lifetime + info.fetched_bytes);
    prev_lifetime = warm.lifetime_fetched_bytes();
  }

  ServiceMetrics cold_metrics;
  RetrievalSession cold("f", &field_, backend_.get(), &theory_, nullptr,
                        &cold_metrics);
  auto one_shot = cold.Refine(ladder.back() * range_, nullptr);
  ASSERT_TRUE(one_shot.ok());

  // The greedy trajectory does not depend on the bound, so the chain lands
  // on the cold session's exact prefix and the SAME total fetched bytes...
  EXPECT_EQ(warm.prefix(), cold.prefix());
  EXPECT_EQ(warm_metrics.snapshot().fetched_bytes,
            cold_metrics.snapshot().fetched_bytes);
  // ...and the reconstruction is bit-identical.
  auto warm_final = warm.Refine(ladder.back() * range_, nullptr);
  ASSERT_TRUE(warm_final.ok());
  EXPECT_EQ(warm_final.value()->vector(), one_shot.value()->vector());

  // Every incremental step after the first fetched strictly fewer bytes
  // than the cold one-shot paid (asserted via ServiceMetrics).
  const std::uint64_t cold_total = cold_metrics.snapshot().fetched_bytes;
  RetrievalSession warm2("f", &field_, backend_.get(), &theory_);
  ASSERT_TRUE(warm2.Refine(ladder[0] * range_, nullptr).ok());
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    RetrievalSession::Refinement info;
    ASSERT_TRUE(warm2.Refine(ladder[i] * range_, &info).ok());
    EXPECT_LT(info.fetched_bytes, cold_total);
  }
}

TEST_F(RetrievalSessionTest, LooseningIsANoopServedFromMemory) {
  ServiceMetrics metrics;
  RetrievalSession session("f", &field_, backend_.get(), &theory_, nullptr,
                           &metrics);
  auto tight = session.Refine(1e-4 * range_, nullptr);
  ASSERT_TRUE(tight.ok());
  const std::size_t fetched_before = session.lifetime_fetched_bytes();

  RetrievalSession::Refinement info;
  auto loose = session.Refine(1e-1 * range_, &info);
  ASSERT_TRUE(loose.ok());
  EXPECT_TRUE(info.noop);
  EXPECT_TRUE(info.bound_met);
  EXPECT_EQ(info.planes_fetched, 0);
  EXPECT_EQ(info.fetched_bytes, 0u);
  EXPECT_GT(info.reused_bytes, 0u);
  // Same reconstruction object, zero extra I/O, and the noop was counted.
  EXPECT_EQ(loose.value(), tight.value());
  EXPECT_EQ(session.lifetime_fetched_bytes(), fetched_before);
  EXPECT_EQ(metrics.snapshot().noop_refinements, 1u);
}

TEST_F(RetrievalSessionTest, GroundTruthFillsHonestFieldsAndAudits) {
  obs::ErrorControlAuditor auditor;
  RetrievalSession session("f", &field_, backend_.get(), &theory_);
  session.set_ground_truth(&original_);
  session.set_auditor(&auditor);

  const double bound = 1e-3 * range_;
  RetrievalSession::Refinement info;
  auto data = session.Refine(bound, &info);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(info.has_actual);
  EXPECT_DOUBLE_EQ(
      info.actual_error,
      MaxAbsError(original_.vector(), data.value()->vector()));
  EXPECT_EQ(info.actual_bound_met, info.actual_error <= bound);

  // The refinement was audited into the session-local auditor with ground
  // truth, so the record is classified (not estimate-only).
  auto snap = auditor.snapshot();
  ASSERT_EQ(snap.models.size(), 1u);
  EXPECT_EQ(snap.models[0].model, "baseline");
  EXPECT_EQ(snap.models[0].records, 1u);
  EXPECT_EQ(snap.models[0].estimate_only, 0u);
  EXPECT_EQ(snap.models[0].violations + snap.models[0].satisfied, 1u);

  // A loosening noop is served from memory and not re-audited.
  ASSERT_TRUE(session.Refine(1e-1 * range_, &info).ok());
  EXPECT_TRUE(info.noop);
  EXPECT_EQ(auditor.total_records(), 1u);
}

TEST_F(RetrievalSessionTest, WithoutGroundTruthRefinementIsEstimateOnly) {
  obs::ErrorControlAuditor auditor;
  RetrievalSession session("f", &field_, backend_.get(), &theory_);
  session.set_auditor(&auditor);
  RetrievalSession::Refinement info;
  ASSERT_TRUE(session.Refine(1e-3 * range_, &info).ok());
  EXPECT_FALSE(info.has_actual);
  auto snap = auditor.snapshot();
  ASSERT_EQ(snap.models.size(), 1u);
  EXPECT_EQ(snap.models[0].estimate_only, 1u);
}

TEST_F(RetrievalSessionTest, AuditsUnderItsEstimatorsModelId) {
  // A session plans with the estimator it was built with and audits under
  // that estimator's model id.
  SNormEstimator snorm;
  obs::ErrorControlAuditor auditor;
  RetrievalSession session("f", &field_, backend_.get(), &snorm);
  session.set_auditor(&auditor);
  RetrievalSession::Refinement info;
  ASSERT_TRUE(session.Refine(1e-3 * range_, &info).ok());
  ASSERT_TRUE(session.Refine(1e-5 * range_, &info).ok());
  auto snap = auditor.snapshot();
  ASSERT_EQ(snap.models.size(), 1u);
  EXPECT_EQ(snap.models[0].model, AuditModelId(snorm.name()));
  EXPECT_EQ(snap.models[0].model, "snorm");
  EXPECT_EQ(snap.models[0].records, 2u);
}

TEST_F(RetrievalSessionTest, RejectsNonPositiveBound) {
  RetrievalSession session("f", &field_, backend_.get(), &theory_);
  EXPECT_FALSE(session.Refine(0.0, nullptr).ok());
  EXPECT_FALSE(session.Refine(-1.0, nullptr).ok());
}

TEST_F(RetrievalSessionTest, SessionsShareSegmentsThroughTheCache) {
  ServiceMetrics metrics;
  SegmentCache cache(SegmentCache::Options(), &metrics);
  RetrievalSession a("f", &field_, backend_.get(), &theory_, &cache,
                     &metrics);
  RetrievalSession b("f", &field_, backend_.get(), &theory_, &cache,
                     &metrics);

  ASSERT_TRUE(a.Refine(1e-3 * range_, nullptr).ok());
  RetrievalSession::Refinement info;
  ASSERT_TRUE(b.Refine(1e-3 * range_, &info).ok());
  // The second session found every segment already resident.
  EXPECT_EQ(info.planes_fetched, 0);
  EXPECT_GT(info.planes_cached, 0);
  EXPECT_EQ(b.lifetime_fetched_bytes(), 0u);
  EXPECT_GT(metrics.snapshot().cache_hits, 0u);
  // Both reconstructions are the same bits.
  EXPECT_EQ(a.prefix(), b.prefix());

  // A distinct field_id does NOT share: it namespaces the cache.
  RetrievalSession c("other", &field_, backend_.get(), &theory_, &cache,
                     &metrics);
  RetrievalSession::Refinement cinfo;
  ASSERT_TRUE(c.Refine(1e-3 * range_, &cinfo).ok());
  EXPECT_GT(cinfo.planes_fetched, 0);
}

TEST_F(RetrievalSessionTest, UnreachableBoundReturnsBestEffort) {
  RetrievalSession session("f", &field_, backend_.get(), &theory_);
  RetrievalSession::Refinement info;
  // Far below anything the artifact can represent: every plane is fetched
  // and the session reports the bound as missed rather than failing.
  auto data = session.Refine(1e-300, &info);
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(info.bound_met);
  for (int l = 0; l < field_.num_levels(); ++l) {
    EXPECT_EQ(info.prefix[l], field_.num_planes);
  }
}

}  // namespace
}  // namespace mgardp
