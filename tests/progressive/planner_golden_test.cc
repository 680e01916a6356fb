// Golden prefixes for every greedy planner entry point on one seeded 17^3
// field. The planners share a single block-lookahead loop; these pins make
// any change to that loop (or to what each entry point feeds it) show up
// as an exact prefix, byte-count or estimate diff rather than a drift in
// benches.
//
// PlannerTableTest then checks that scoring candidates from an
// estimator's per-field term table (ErrorEstimator::Terms) plans exactly
// as scoring them through Estimate: for the theory estimator and a learned
// E-MGARD estimator, every planner gives the same prefix, bytes and
// estimate with and without a decorator that hides the table.

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <thread>
#include <vector>

#include "models/dmgard.h"
#include "models/emgard.h"
#include "models/hybrid.h"
#include "models/training_data.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "sim/dataset.h"
#include "sim/warpx.h"
#include "util/rng.h"

namespace mgardp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Golden {
  double knob;  // relative bound, or byte budget for PlanWithinBudget
  std::vector<int> prefix;
  std::size_t total_bytes;
  double estimated_error;
};

void ExpectPlan(const Result<RetrievalPlan>& plan, const Golden& g) {
  SCOPED_TRACE(g.knob);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().prefix, g.prefix);
  EXPECT_EQ(plan.value().total_bytes, g.total_bytes);
  EXPECT_EQ(plan.value().estimated_error, g.estimated_error);
}

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

  static RefactoredField* field_;
  TheoryEstimator theory_;
};

RefactoredField* PlannerGoldenTest::field_ = nullptr;

TEST_F(PlannerGoldenTest, Plan) {
  const Golden kGolden[] = {
      {1e-1, {20, 17, 16, 13, 9}, 1434, 0.80396098360596191},
      {1e-2, {24, 24, 21, 16, 12}, 2516, 0.08107313414777037},
      {1e-3, {26, 25, 22, 19, 16}, 4130, 0.0081345712483561206},
      {1e-4, {30, 29, 28, 22, 19}, 5695, 0.00080706816131355321},
      {1e-6, {32, 32, 32, 30, 27}, 9850, 8.0933234341065696e-06},
      {1e-12, {32, 32, 32, 32, 32}, 12305, 5.471248437816708e-06},
  };
  Reconstructor rec(&theory_);
  for (const Golden& g : kGolden) {
    ExpectPlan(rec.Plan(*field_, Bound(g.knob)), g);
  }
}

TEST_F(PlannerGoldenTest, PlanRefinementFromZero) {
  const Golden kGolden[] = {
      {1e-1, {21, 20, 17, 13, 9}, 1462, 0.6809882472933213},
      {1e-3, {28, 27, 25, 20, 16}, 4261, 0.0051319995218494672},
      {1e-6, {32, 32, 32, 32, 27}, 10004, 7.1919811859416649e-06},
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
             {1e-5, {32, 32, 32, 26, 22}, 7366, 8.0188955482234699e-05});
  ExpectPlan(rec.PlanRefinement(*field_, {12, 1, 0, 0, 0}, Bound(1e-4)),
             {1e-4, {32, 30, 28, 23, 19}, 5780, 0.00063684975154321708});
}

TEST_F(PlannerGoldenTest, PlanConstrained) {
  const std::vector<int> zero(field_->num_levels(), 0);
  const std::vector<int> caps = {3, field_->num_planes, field_->num_planes,
                                 field_->num_planes, 2};
  ExpectPlan(PlanConstrained(*field_, theory_, Bound(1e-4), zero, caps),
             {1e-4, {3, 32, 32, 32, 2}, 2507, 1043.7148314047242});
}

TEST_F(PlannerGoldenTest, PlanWithinBudget) {
  const Golden kGolden[] = {
      {0, {0, 0, 0, 0, 0}, 0, 9013.5200105463227},
      {100, {11, 10, 5, 0, 0}, 100, 589.3536954654212},
      {1000, {22, 19, 16, 11, 7}, 999, 2.5860767969122174},
      {3000, {26, 25, 22, 18, 13}, 2999, 0.035637210812814207},
      {6000, {32, 32, 32, 25, 19}, 5998, 0.00049088742830383572},
      {1e9, {32, 32, 32, 32, 32}, 12305, 5.471248437816708e-06},
  };
  Reconstructor rec(&theory_);
  for (const Golden& g : kGolden) {
    ExpectPlan(
        rec.PlanWithinBudget(*field_, static_cast<std::size_t>(g.knob)), g);
  }
}

TEST_F(PlannerGoldenTest, OracleMinPlan) {
  const Golden kGolden[] = {
      {1e-1, {6, 7, 8, 6, 6}, 442, 0.80767661747839603},
      {1e-3, {14, 14, 14, 14, 12}, 2204, 0.0080773910668704013},
      {1e-5, {21, 19, 21, 20, 19}, 5385, 8.119623337794372e-05},
      {1e-12, {32, 32, 32, 32, 32}, 12305, 1.2174593973582337e-08},
  };
  for (const Golden& g : kGolden) {
    ExpectPlan(OracleMinPlan(*field_, Bound(g.knob)), g);
  }
}

// Forwards Estimate and TryEstimate only, like a timing decorator: the
// planners cannot see the inner estimator's term table and score every
// candidate through Estimate.
class HideTable : public ErrorEstimator {
 public:
  explicit HideTable(const ErrorEstimator* inner) : inner_(inner) {}

  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override {
    return inner_->Estimate(field, prefix);
  }
  Result<double> TryEstimate(const RefactoredField& field,
                             const std::vector<int>& prefix) const override {
    return inner_->TryEstimate(field, prefix);
  }
  std::string name() const override { return inner_->name(); }

 private:
  const ErrorEstimator* inner_;
};

// The plans of every greedy entry point for `field` under `estimator`, in
// a fixed order; Progression's states are compared separately.
std::vector<RetrievalPlan> AllPlans(const RefactoredField& field,
                                    const ErrorEstimator& estimator,
                                    const DMgardModel& dmgard) {
  std::vector<RetrievalPlan> plans;
  const auto add = [&plans](const Result<RetrievalPlan>& plan) {
    if (plan.ok()) {
      plans.push_back(plan.value());
    } else {
      ADD_FAILURE() << plan.status().ToString();
    }
  };
  const int L = field.num_levels();
  const std::vector<int> zero(L, 0);
  const std::vector<int> held(L, 4);
  const std::vector<int> full(L, field.num_planes);
  std::vector<int> caps(L, field.num_planes);
  caps.front() = 3;
  caps.back() = 2;
  Reconstructor rec(&estimator);
  for (double rel : {1e-3}) {
    const double bound = rel * field.data_summary.range();
    add(rec.Plan(field, bound));
    add(rec.PlanRefinement(field, held, bound));
    add(PlanConstrained(field, estimator, bound, zero, caps));
    add(PlanHybrid(field, bound, dmgard, estimator));
    add(TrimPlan(field, estimator, bound, full));
  }
  for (std::size_t budget : {3000}) {
    add(rec.PlanWithinBudget(field, budget));
  }
  return plans;
}

void ExpectSamePlans(const std::vector<RetrievalPlan>& a,
                     const std::vector<RetrievalPlan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].prefix, b[i].prefix);
    EXPECT_EQ(a[i].total_bytes, b[i].total_bytes);
    EXPECT_EQ(a[i].estimated_error, b[i].estimated_error);
  }
}

class PlannerTableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WarpXDatasetOptions opts;
    opts.dims = Dims3{17, 17, 17};
    opts.num_timesteps = 3;
    FieldSeries series = GenerateWarpX(opts, WarpXField::kJx);
    CollectOptions copts;
    copts.rel_bounds = SubsampledRelativeErrorBounds(1);
    auto records = CollectRecords(series, {0, 1, 2}, copts);
    records.status().Abort("collect");

    EMgardConfig econfig;
    econfig.train.epochs = 2;
    auto emgard = EMgardModel::TrainModel(records.value(), econfig);
    emgard.status().Abort("train E-MGARD");
    emgard_ = new EMgardModel(std::move(emgard).value());

    DMgardConfig dconfig;
    dconfig.hidden_width = 16;
    dconfig.train.epochs = 2;
    auto dmgard = DMgardModel::TrainModel(records.value(), dconfig);
    dmgard.status().Abort("train D-MGARD");
    dmgard_ = new DMgardModel(std::move(dmgard).value());

    WarpXSimulator sim(Dims3{17, 17, 17});
    auto field = Refactorer().Refactor(sim.Field(WarpXField::kEx, 5));
    field.status().Abort("refactor");
    field_ = new RefactoredField(std::move(field).value());
    // Half the sketch bins the model was trained on.
    RefactorOptions half_sketch;
    half_sketch.sketch_bins = 16;
    auto mismatched =
        Refactorer(half_sketch).Refactor(sim.Field(WarpXField::kEx, 5));
    mismatched.status().Abort("refactor");
    mismatched_ = new RefactoredField(std::move(mismatched).value());
  }

  static void TearDownTestSuite() {
    delete emgard_;
    delete dmgard_;
    delete field_;
    delete mismatched_;
  }

  static const EMgardModel& emgard() { return *emgard_; }

  static EMgardModel* emgard_;
  static DMgardModel* dmgard_;
  static RefactoredField* field_;
  static RefactoredField* mismatched_;
};

EMgardModel* PlannerTableTest::emgard_ = nullptr;
DMgardModel* PlannerTableTest::dmgard_ = nullptr;
RefactoredField* PlannerTableTest::field_ = nullptr;
RefactoredField* PlannerTableTest::mismatched_ = nullptr;

TEST_F(PlannerTableTest, TablePathPlansLikeEstimatePath) {
  const TheoryEstimator theory;
  const LearnedConstantsEstimator learned(&emgard());
  for (const ErrorEstimator* estimator :
       std::vector<const ErrorEstimator*>{&theory, &learned}) {
    SCOPED_TRACE(estimator->name());
    ASSERT_TRUE(estimator->Terms(*field_).has_value());
    const HideTable hidden(estimator);
    ASSERT_FALSE(hidden.Terms(*field_).has_value());
    ExpectSamePlans(AllPlans(*field_, *estimator, *dmgard_),
                    AllPlans(*field_, hidden, *dmgard_));
    EXPECT_EQ(Reconstructor(estimator).Progression(*field_),
              Reconstructor(&hidden).Progression(*field_));
  }
}

TEST_F(PlannerTableTest, TermsEqualPerLevelEstimateTerms) {
  const TheoryEstimator theory;
  const LearnedConstantsEstimator learned(&emgard());
  const auto theory_terms = theory.Terms(*field_);
  const auto learned_terms = learned.Terms(*field_);
  ASSERT_TRUE(theory_terms.has_value());
  ASSERT_TRUE(learned_terms.has_value());
  EXPECT_EQ(theory_terms->scale, 1.0);
  EXPECT_EQ(learned_terms->scale, emgard().safety_margin());
  ASSERT_EQ(theory_terms->term.size(), 5u);
  ASSERT_EQ(learned_terms->term.size(), 5u);
  std::size_t predicted = 0;
  for (int l = 0; l < field_->num_levels(); ++l) {
    const auto& max_abs = field_->level_errors[l].max_abs;
    ASSERT_EQ(theory_terms->term[l].size(), max_abs.size());
    ASSERT_EQ(learned_terms->term[l].size(), max_abs.size());
    for (int b = 0; b < static_cast<int>(max_abs.size()); ++b) {
      SCOPED_TRACE(testing::Message() << "level " << l << " planes " << b);
      const double err = max_abs[b];
      EXPECT_EQ(theory_terms->term[l][b],
                theory.LevelConstant(*field_, l) * err);
      if (err > 0.0) {
        auto c = emgard().PredictConstant(l, field_->level_sketches[l], err,
                                          b);
        ASSERT_TRUE(c.ok());
        EXPECT_EQ(learned_terms->term[l][b], c.value() * err);
        ++predicted;
      } else {
        EXPECT_EQ(learned_terms->term[l][b], 0.0);
      }
    }
  }
  EXPECT_GT(predicted, 0u);
}

TEST_F(PlannerTableTest, TableSumEqualsEstimateOnRandomPrefixes) {
  const TheoryEstimator theory;
  const LearnedConstantsEstimator learned(&emgard());
  Rng rng(7);
  for (const ErrorEstimator* estimator :
       std::vector<const ErrorEstimator*>{&theory, &learned}) {
    SCOPED_TRACE(estimator->name());
    const auto terms = estimator->Terms(*field_);
    ASSERT_TRUE(terms.has_value());
    for (int k = 0; k < 200; ++k) {
      // Entries in [-2, num_planes + 2]: out-of-range counts clamp alike.
      std::vector<int> prefix(field_->num_levels());
      for (int& b : prefix) {
        b = static_cast<int>(rng.NextUint64() %
                             static_cast<std::uint64_t>(field_->num_planes +
                                                        5)) -
            2;
      }
      EXPECT_EQ(terms->Sum(prefix), estimator->Estimate(*field_, prefix));
    }
  }
}

// Eight threads plan concurrently on one shared learned estimator (each
// planning call builds its own table from the shared model) and must
// reproduce the serial plans exactly.
TEST_F(PlannerTableTest, ConcurrentPlansOnSharedEstimatorMatchSerial) {
  const LearnedConstantsEstimator learned(&emgard());
  const std::vector<RetrievalPlan> serial =
      AllPlans(*field_, learned, *dmgard_);
  constexpr int kThreads = 8;
  std::vector<std::vector<RetrievalPlan>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = AllPlans(*field_, learned, *dmgard_);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    ExpectSamePlans(serial, results[t]);
  }
}

// A model whose sketch size differs from the field's cannot build a table;
// planning falls back to Estimate, which reports +infinity for every prefix
// with error left, so the planners stop where they start.
TEST_F(PlannerTableTest, SketchMismatchFallsBackAndPlansAsBefore) {
  const LearnedConstantsEstimator learned(&emgard());
  EXPECT_FALSE(learned.Terms(*mismatched_).has_value());
  Reconstructor rec(&learned);
  const double range = mismatched_->data_summary.range();
  ExpectPlan(rec.Plan(*mismatched_, 1e-1 * range),
             {1e-1, {0, 0, 0, 0, 0}, 0, kInf});
  ExpectPlan(rec.Plan(*mismatched_, 1e-4 * range),
             {1e-4, {0, 0, 0, 0, 0}, 0, kInf});
  ExpectPlan(rec.PlanRefinement(*mismatched_, {4, 4, 4, 4, 4}, 1e-3 * range),
             {1e-3, {4, 4, 4, 4, 4}, 180, kInf});
  ExpectPlan(rec.PlanWithinBudget(*mismatched_, 1000),
             {1000, {0, 0, 0, 0, 0}, 0, kInf});
}

}  // namespace
}  // namespace mgardp
