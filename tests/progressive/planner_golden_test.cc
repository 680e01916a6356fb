// Golden prefixes for every greedy planner entry point on one seeded 17^3
// field. The planners share a single block-lookahead loop; these pins make
// any change to that loop (or to what each entry point feeds it) show up
// as an exact prefix or byte-count diff rather than a drift in benches.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "sim/warpx.h"

namespace mgardp {
namespace {

struct Golden {
  double knob;  // relative bound, or byte budget for PlanWithinBudget
  std::vector<int> prefix;
  std::size_t total_bytes;
};

class PlannerGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WarpXSimulator sim(Dims3{17, 17, 17});
    auto field = Refactorer().Refactor(sim.Field(WarpXField::kEx, 5));
    field.status().Abort("refactor");
    field_ = new RefactoredField(std::move(field).value());
  }
  static void TearDownTestSuite() { delete field_; }

  static double Bound(double rel) {
    return rel * field_->data_summary.range();
  }

  static void ExpectPlan(const Result<RetrievalPlan>& plan,
                         const Golden& g) {
    SCOPED_TRACE(g.knob);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan.value().prefix, g.prefix);
    EXPECT_EQ(plan.value().total_bytes, g.total_bytes);
  }

  static RefactoredField* field_;
  TheoryEstimator theory_;
};

RefactoredField* PlannerGoldenTest::field_ = nullptr;

TEST_F(PlannerGoldenTest, Plan) {
  const Golden kGolden[] = {
      {1e-1, {20, 17, 16, 13, 9}, 1434},
      {1e-2, {24, 24, 21, 16, 12}, 2516},
      {1e-3, {26, 25, 22, 19, 16}, 4130},
      {1e-4, {30, 29, 28, 22, 19}, 5695},
      {1e-6, {32, 32, 32, 30, 27}, 9850},
      {1e-12, {32, 32, 32, 32, 32}, 12305},
  };
  Reconstructor rec(&theory_);
  for (const Golden& g : kGolden) {
    ExpectPlan(rec.Plan(*field_, Bound(g.knob)), g);
  }
}

TEST_F(PlannerGoldenTest, PlanRefinementFromZero) {
  const Golden kGolden[] = {
      {1e-1, {21, 20, 17, 13, 9}, 1462},
      {1e-3, {28, 27, 25, 20, 16}, 4261},
      {1e-6, {32, 32, 32, 32, 27}, 10004},
  };
  Reconstructor rec(&theory_);
  const std::vector<int> zero(field_->num_levels(), 0);
  for (const Golden& g : kGolden) {
    ExpectPlan(rec.PlanRefinement(*field_, zero, Bound(g.knob)), g);
  }
}

TEST_F(PlannerGoldenTest, PlanRefinementFromHeldPrefix) {
  // Starting points both on the greedy trajectory (a 1e-2 refinement's
  // prefix) and off it (a hand-picked prefix heavy on the coarse level).
  Reconstructor rec(&theory_);
  const std::vector<int> zero(field_->num_levels(), 0);
  auto coarse = rec.PlanRefinement(*field_, zero, Bound(1e-2));
  ASSERT_TRUE(coarse.ok());
  ExpectPlan(rec.PlanRefinement(*field_, coarse.value().prefix, Bound(1e-5)),
             {1e-5, {32, 32, 32, 26, 22}, 7366});
  ExpectPlan(rec.PlanRefinement(*field_, {12, 1, 0, 0, 0}, Bound(1e-4)),
             {1e-4, {32, 30, 28, 23, 19}, 5780});
}

TEST_F(PlannerGoldenTest, PlanConstrained) {
  const std::vector<int> zero(field_->num_levels(), 0);
  const std::vector<int> caps = {3, field_->num_planes, field_->num_planes,
                                 field_->num_planes, 2};
  ExpectPlan(PlanConstrained(*field_, theory_, Bound(1e-4), zero, caps),
             {1e-4, {3, 32, 32, 32, 2}, 2507});
}

TEST_F(PlannerGoldenTest, PlanWithinBudget) {
  const Golden kGolden[] = {
      {0, {0, 0, 0, 0, 0}, 0},
      {100, {11, 10, 5, 0, 0}, 100},
      {1000, {22, 19, 16, 11, 7}, 999},
      {3000, {26, 25, 22, 18, 13}, 2999},
      {6000, {32, 32, 32, 25, 19}, 5998},
      {1e9, {32, 32, 32, 32, 32}, 12305},
  };
  Reconstructor rec(&theory_);
  for (const Golden& g : kGolden) {
    ExpectPlan(
        rec.PlanWithinBudget(*field_, static_cast<std::size_t>(g.knob)), g);
  }
}

TEST_F(PlannerGoldenTest, OracleMinPlan) {
  const Golden kGolden[] = {
      {1e-1, {6, 7, 8, 6, 6}, 442},
      {1e-3, {14, 14, 14, 14, 12}, 2204},
      {1e-5, {21, 19, 21, 20, 19}, 5385},
      {1e-12, {32, 32, 32, 32, 32}, 12305},
  };
  for (const Golden& g : kGolden) {
    ExpectPlan(OracleMinPlan(*field_, Bound(g.knob)), g);
  }
}

}  // namespace
}  // namespace mgardp
