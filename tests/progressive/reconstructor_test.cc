#include "progressive/reconstructor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "obs/audit.h"
#include "progressive/refactorer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mgardp {
namespace {

Array3Dd MakeField(Dims3 dims, std::uint64_t seed = 11) {
  Rng rng(seed);
  Array3Dd a(dims);
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (std::size_t k = 0; k < dims.nz; ++k) {
        a(i, j, k) =
            std::sin(0.5 * i) + std::cos(0.3 * j) * std::sin(0.2 * k) +
            0.02 * rng.NextGaussian();
      }
    }
  }
  return a;
}

// Forwards to an inner estimator and counts the calls the planners make.
// With `forward_terms` false it hides the inner table, as a decorator does.
class CountingEstimator : public ErrorEstimator {
 public:
  CountingEstimator(const ErrorEstimator* inner, bool forward_terms)
      : inner_(inner), forward_terms_(forward_terms) {}

  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override {
    ++estimate_calls;
    return inner_->Estimate(field, prefix);
  }
  std::optional<TermTable> Terms(const RefactoredField& field) const override {
    ++terms_calls;
    return forward_terms_ ? inner_->Terms(field) : std::nullopt;
  }
  std::string name() const override { return inner_->name(); }

  mutable int estimate_calls = 0;
  mutable int terms_calls = 0;

 private:
  const ErrorEstimator* inner_;
  bool forward_terms_;
};

class ReconstructorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_ = MakeField(Dims3{17, 17, 17});
    auto result = Refactorer().Refactor(original_);
    ASSERT_TRUE(result.ok());
    field_ = std::move(result).value();
  }

  Array3Dd original_;
  RefactoredField field_;
  TheoryEstimator theory_;
};

TEST_F(ReconstructorTest, PlanSatisfiesBoundAndActualErrorBelowIt) {
  Reconstructor rec(&theory_);
  const double range = field_.data_summary.range();
  for (double rel : {1e-2, 1e-4, 1e-6}) {
    const double bound = rel * range;
    RetrievalPlan plan;
    auto data = rec.Retrieve(field_, bound, &plan);
    ASSERT_TRUE(data.ok());
    const bool full = plan.prefix ==
                      std::vector<int>(field_.num_levels(), field_.num_planes);
    if (plan.estimated_error > bound) {
      // A bound below the conservative quantization floor is unreachable;
      // the planner must then have fetched everything (MGARD's behaviour).
      EXPECT_TRUE(full) << "rel=" << rel;
    } else {
      // Conservative estimator => the actual error respects the bound.
      EXPECT_LE(MaxAbsError(original_.vector(), data.value().vector()),
                bound);
    }
  }
}

TEST_F(ReconstructorTest, TighterBoundFetchesMoreBytes) {
  Reconstructor rec(&theory_);
  const double range = field_.data_summary.range();
  std::size_t prev_bytes = 0;
  for (double rel : {1e-1, 1e-3, 1e-5, 1e-7}) {
    auto plan = rec.Plan(field_, rel * range);
    ASSERT_TRUE(plan.ok());
    EXPECT_GE(plan.value().total_bytes, prev_bytes);
    prev_bytes = plan.value().total_bytes;
  }
  EXPECT_GT(prev_bytes, 0u);
}

TEST_F(ReconstructorTest, ImpossibleBoundFetchesEverything) {
  Reconstructor rec(&theory_);
  auto plan = rec.Plan(field_, 1e-300);
  ASSERT_TRUE(plan.ok());
  for (int l = 0; l < field_.num_levels(); ++l) {
    EXPECT_EQ(plan.value().prefix[l], field_.num_planes);
  }
}

TEST_F(ReconstructorTest, RejectsNonPositiveBound) {
  Reconstructor rec(&theory_);
  EXPECT_FALSE(rec.Plan(field_, 0.0).ok());
  EXPECT_FALSE(rec.Plan(field_, -1.0).ok());
}

TEST_F(ReconstructorTest, PlanFromPrefixClampsAndCosts) {
  Reconstructor rec(&theory_);
  auto plan = rec.PlanFromPrefix(field_, {99, -5, 4, 4, 4});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().prefix[0], field_.num_planes);
  EXPECT_EQ(plan.value().prefix[1], 0);
  EXPECT_GT(plan.value().total_bytes, 0u);
  EXPECT_FALSE(rec.PlanFromPrefix(field_, {1, 2}).ok());
}

TEST_F(ReconstructorTest, FullPrefixIsNearLossless) {
  Reconstructor rec(&theory_);
  auto plan = rec.PlanFromPrefix(
      field_, std::vector<int>(field_.num_levels(), field_.num_planes));
  ASSERT_TRUE(plan.ok());
  auto data = rec.Reconstruct(field_, plan.value());
  ASSERT_TRUE(data.ok());
  const double err = MaxAbsError(original_.vector(), data.value().vector());
  // Quantization floor: ~2^-30 of per-level magnitude amplified by
  // recomposition; far below 1e-6 of the data range here.
  EXPECT_LT(err, 1e-6 * field_.data_summary.range());
}

TEST_F(ReconstructorTest, GreedyPrefersCoarseLevels) {
  // At loose bounds the plan should retrieve more planes from coarse levels
  // than fine ones (Fig. 5b).
  Reconstructor rec(&theory_);
  auto plan = rec.Plan(field_, 1e-2 * field_.data_summary.range());
  ASSERT_TRUE(plan.ok());
  const auto& prefix = plan.value().prefix;
  EXPECT_GE(prefix[0], prefix[field_.num_levels() - 1]);
}

TEST_F(ReconstructorTest, ZeroPrefixReconstructsZeros) {
  Reconstructor rec(&theory_);
  auto plan = rec.PlanFromPrefix(field_,
                                 std::vector<int>(field_.num_levels(), 0));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().total_bytes, 0u);
  auto data = rec.Reconstruct(field_, plan.value());
  ASSERT_TRUE(data.ok());
  for (double v : data.value().vector()) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST_F(ReconstructorTest, BytesMatchSizeInterpreter) {
  Reconstructor rec(&theory_);
  RetrievalPlan plan;
  auto data = rec.Retrieve(field_, 1e-4 * field_.data_summary.range(), &plan);
  ASSERT_TRUE(data.ok());
  SizeInterpreter si = MakeSizeInterpreter(field_);
  EXPECT_EQ(plan.total_bytes, si.TotalBytes(plan.prefix));
}

TEST_F(ReconstructorTest, AuditModelIdMapsEstimatorNames) {
  EXPECT_EQ(AuditModelId("theory"), "baseline");
  EXPECT_EQ(AuditModelId("e-mgard"), "emgard");
  EXPECT_EQ(AuditModelId("dmgard"), "dmgard");
  EXPECT_EQ(AuditModelId("hybrid"), "hybrid");
  EXPECT_EQ(AuditModelId("snorm"), "snorm");
}

TEST_F(ReconstructorTest, OracleMinPlanNeverCostsMoreThanTheoryPlan) {
  Reconstructor rec(&theory_);
  const double range = field_.data_summary.range();
  for (double rel : {1e-1, 1e-2, 1e-4, 1e-6}) {
    const double bound = rel * range;
    auto theory_plan = rec.Plan(field_, bound);
    ASSERT_TRUE(theory_plan.ok());
    auto oracle = OracleMinPlan(field_, bound);
    ASSERT_TRUE(oracle.ok());
    // The oracle plans against the raw error matrices (C = 1), the theory
    // estimator against C * the same sums; the oracle byte floor can never
    // exceed the conservative plan's cost.
    EXPECT_LE(oracle.value().total_bytes, theory_plan.value().total_bytes)
        << "rel=" << rel;
    // When the oracle stops short of the full artifact its idealized
    // estimate respects the bound.
    const bool full =
        oracle.value().prefix ==
        std::vector<int>(field_.num_levels(), field_.num_planes);
    if (!full) {
      EXPECT_LE(oracle.value().estimated_error, bound) << "rel=" << rel;
    }
  }
}

TEST_F(ReconstructorTest, OracleMinPlanMonotoneInTolerance) {
  const double range = field_.data_summary.range();
  std::size_t prev_bytes = 0;
  for (double rel : {1e-1, 1e-3, 1e-5, 1e-7}) {
    auto plan = OracleMinPlan(field_, rel * range);
    ASSERT_TRUE(plan.ok());
    EXPECT_GE(plan.value().total_bytes, prev_bytes);
    prev_bytes = plan.value().total_bytes;
  }
  EXPECT_GT(prev_bytes, 0u);
  EXPECT_FALSE(OracleMinPlan(field_, 0.0).ok());
}

TEST_F(ReconstructorTest, RetrieveAuditsWithGroundTruthAndOracleBytes) {
  obs::ErrorControlAuditor auditor;
  Reconstructor rec(&theory_);
  rec.set_ground_truth(&original_);
  rec.set_auditor(&auditor);
  const double bound = 1e-3 * field_.data_summary.range();
  RetrievalPlan plan;
  ASSERT_TRUE(rec.Retrieve(field_, bound, &plan).ok());
  auto snap = auditor.snapshot();
  ASSERT_EQ(snap.models.size(), 1u);
  const auto& m = snap.models[0];
  EXPECT_EQ(m.model, "baseline");
  EXPECT_EQ(m.records, 1u);
  EXPECT_EQ(m.estimate_only, 0u);          // ground truth was available
  EXPECT_EQ(m.overfetch.count, 1u);        // oracle bytes were computed
  EXPECT_GE(m.overfetch.min, 1.0 - 1e-9);  // cannot beat the oracle floor
  EXPECT_FALSE(m.drift.empty());
}

TEST_F(ReconstructorTest, RetrieveWithoutGroundTruthIsEstimateOnly) {
  obs::ErrorControlAuditor auditor;
  Reconstructor rec(&theory_);
  rec.set_auditor(&auditor);
  ASSERT_TRUE(
      rec.Retrieve(field_, 1e-3 * field_.data_summary.range(), nullptr)
          .ok());
  auto snap = auditor.snapshot();
  ASSERT_EQ(snap.models.size(), 1u);
  EXPECT_EQ(snap.models[0].model, AuditModelId(theory_.name()));
  EXPECT_EQ(snap.models[0].estimate_only, 1u);
}

TEST_F(ReconstructorTest, RetrieveAuditsUnderItsEstimatorsModelId) {
  SNormEstimator snorm;
  obs::ErrorControlAuditor auditor;
  Reconstructor rec(&snorm);
  rec.set_ground_truth(&original_);
  rec.set_auditor(&auditor);
  ASSERT_TRUE(
      rec.Retrieve(field_, 1e-3 * field_.data_summary.range(), nullptr)
          .ok());
  auto snap = auditor.snapshot();
  ASSERT_EQ(snap.models.size(), 1u);
  EXPECT_EQ(snap.models[0].model, "snorm");
  EXPECT_EQ(snap.models[0].records, 1u);
  EXPECT_EQ(snap.models[0].estimate_only, 0u);
}

TEST_F(ReconstructorTest, TrimPlanOfFullPrefixIsSuffixMinimal) {
  const double bound = 1e-4 * field_.data_summary.range();
  const std::vector<int> full(field_.num_levels(), field_.num_planes);
  const RetrievalPlan plan = TrimPlan(field_, theory_, bound, full);
  ASSERT_LE(plan.estimated_error, bound);
  EXPECT_NE(plan.prefix, full);
  for (int l = 0; l < field_.num_levels(); ++l) {
    SCOPED_TRACE(l);
    EXPECT_LE(plan.prefix[l], field_.num_planes);
    if (plan.prefix[l] == 0) {
      continue;
    }
    // Dropping any level's last plane would break the bound.
    std::vector<int> shorter = plan.prefix;
    --shorter[l];
    EXPECT_GT(theory_.Estimate(field_, shorter), bound);
  }
}

TEST_F(ReconstructorTest, TrimPlanReportsItsPrefixCostAndEstimate) {
  const double bound = 1e-3 * field_.data_summary.range();
  const RetrievalPlan plan =
      TrimPlan(field_, theory_, bound,
               std::vector<int>(field_.num_levels(), 20));
  EXPECT_EQ(plan.total_bytes,
            MakeSizeInterpreter(field_).TotalBytes(plan.prefix));
  EXPECT_EQ(plan.estimated_error, theory_.Estimate(field_, plan.prefix));
}

TEST_F(ReconstructorTest, TrimPlanKeepsAPrefixThatMissesTheBound) {
  // No plane can go when the estimate is already above the bound.
  const std::vector<int> prefix = {3, 2, 2, 1, 1};
  ASSERT_EQ(static_cast<int>(prefix.size()), field_.num_levels());
  const double bound = 1e-6 * field_.data_summary.range();
  ASSERT_GT(theory_.Estimate(field_, prefix), bound);
  const RetrievalPlan plan = TrimPlan(field_, theory_, bound, prefix);
  EXPECT_EQ(plan.prefix, prefix);
  EXPECT_EQ(plan.estimated_error, theory_.Estimate(field_, prefix));
}

TEST_F(ReconstructorTest, EachPlanningCallBuildsOneTableAndNoEstimates) {
  const CountingEstimator counting(&theory_, /*forward_terms=*/true);
  Reconstructor rec(&counting);
  const double bound = 1e-4 * field_.data_summary.range();
  const std::vector<int> held(field_.num_levels(), 2);
  ASSERT_TRUE(rec.Plan(field_, bound).ok());
  ASSERT_TRUE(rec.PlanRefinement(field_, held, bound).ok());
  ASSERT_TRUE(rec.PlanWithinBudget(field_, 4000).ok());
  EXPECT_FALSE(rec.Progression(field_).empty());
  TrimPlan(field_, counting, bound,
           std::vector<int>(field_.num_levels(), field_.num_planes));
  EXPECT_EQ(counting.terms_calls, 5);
  EXPECT_EQ(counting.estimate_calls, 0);
}

TEST_F(ReconstructorTest, WithoutATableEveryCandidateIsEstimated) {
  const CountingEstimator hidden(&theory_, /*forward_terms=*/false);
  const double bound = 1e-4 * field_.data_summary.range();
  auto with_table = Reconstructor(&theory_).Plan(field_, bound);
  auto without = Reconstructor(&hidden).Plan(field_, bound);
  ASSERT_TRUE(with_table.ok() && without.ok());
  EXPECT_EQ(without.value().prefix, with_table.value().prefix);
  EXPECT_EQ(without.value().total_bytes, with_table.value().total_bytes);
  EXPECT_EQ(without.value().estimated_error,
            with_table.value().estimated_error);
  EXPECT_EQ(hidden.terms_calls, 1);
  // At least the start plus one candidate per level in the first round.
  EXPECT_GT(hidden.estimate_calls, field_.num_levels());
}

}  // namespace
}  // namespace mgardp
