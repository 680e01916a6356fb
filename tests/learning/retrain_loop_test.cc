// The closed drift-recovery loop, end to end: an incumbent D-MGARD model
// trained on Gray-Scott traffic serves live requests whose audit records
// feed a TrainingSetCollector; mid-run the traffic shifts to WarpX, the
// bound-violation rate spikes and the auditor's drift monitor fires; the
// BackgroundTrainer refits on the collected (now mostly shifted) traffic,
// the candidate shadows the incumbent and is promoted; the violation rate
// recovers — all without a restart, which is the subsystem's success
// metric. A companion test pins the other half of the contract: a junk
// candidate demonstrably loses its shadow run and never serves.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "learning/background_trainer.h"
#include "learning/model_registry.h"
#include "learning/serving.h"
#include "learning/shadow.h"
#include "learning/training_set.h"
#include "models/training_data.h"
#include "obs/audit.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "service/service_metrics.h"
#include "sim/dataset.h"
#include "util/stats.h"

namespace mgardp {
namespace learning {
namespace {

constexpr int kFrames = 6;
const Dims3 kDims{17, 17, 17};

struct Corpus {
  std::vector<Array3Dd> truths;
  std::vector<RefactoredField> fields;
};

Corpus Refactored(const FieldSeries& series) {
  Corpus corpus;
  for (const Array3Dd& frame : series.frames) {
    auto field = Refactorer().Refactor(frame);
    field.status().Abort("refactor");
    corpus.truths.push_back(frame);
    corpus.fields.push_back(std::move(field).value());
  }
  return corpus;
}

class RetrainLoopTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GrayScottDatasetOptions gopts;
    gopts.dims = kDims;
    gopts.num_timesteps = kFrames;
    FieldSeries smooth = std::move(GenerateGrayScott(gopts)[0]);

    WarpXDatasetOptions wopts;
    wopts.dims = kDims;
    wopts.num_timesteps = kFrames;
    FieldSeries shifted = GenerateWarpX(wopts, WarpXField::kJx);

    CollectOptions copts;
    copts.rel_bounds = SubsampledRelativeErrorBounds(2);
    auto records = CollectRecords(smooth, {0, 1, 2, 3, 4, 5}, copts);
    records.status().Abort("collect");

    DMgardConfig config;
    config.train.epochs = 120;
    config.train.batch_size = 32;
    config.train.learning_rate = 1e-3;
    auto model = DMgardModel::TrainModel(records.value(), config);
    model.status().Abort("train incumbent");

    smooth_ = new Corpus(Refactored(smooth));
    shifted_ = new Corpus(Refactored(shifted));
    incumbent_blob_ = new std::string(model.value().Serialize());
  }

  static void TearDownTestSuite() {
    delete smooth_;
    delete shifted_;
    delete incumbent_blob_;
  }

  static Corpus* smooth_;
  static Corpus* shifted_;
  static std::string* incumbent_blob_;
};

Corpus* RetrainLoopTest::smooth_ = nullptr;
Corpus* RetrainLoopTest::shifted_ = nullptr;
std::string* RetrainLoopTest::incumbent_blob_ = nullptr;

// The serving loop of the retrain bench, condensed: plan with whatever
// version the lock-free handle sees, reconstruct, audit (which feeds the
// collector through the sink), score the shadow pair when a candidate is
// watching, and give the trainer a chance to fire.
class Harness {
 public:
  Harness(const std::string& blob, ShadowEvaluator::Options shadow_options,
          BackgroundTrainer::Options trainer_options)
      : auditor_(obs::ErrorControlAuditor::Options{
            .drift_window = 32, .drift_alert_planes = 2.0}),
        shadow_(&registry_, &metrics_, shadow_options),
        trainer_(&collector_, &registry_, &shadow_, &auditor_, &metrics_,
                 trainer_options) {
    auditor_.AddSink(&collector_);
    auto v1 = registry_.Publish("dmgard", blob);
    v1.status().Abort("publish incumbent");
    registry_.Promote("dmgard", v1.value()).Abort("promote incumbent");
    handle_ = registry_.Handle("dmgard");
  }

  ~Harness() { auditor_.RemoveSink(&collector_); }

  // Serves one request; returns whether the serving model violated.
  bool Serve(const RefactoredField& field, const Array3Dd& truth,
             double rel_bound) {
    const double bound = rel_bound * field.data_summary.range();
    auto version = handle_.load();
    auto plan = PlanWithModelVersion(field, bound, *version);
    plan.status().Abort("plan");
    auto data = ReconstructFromPrefix(field, plan.value().prefix);
    data.status().Abort("reconstruct");
    AuditRetrieval(field, VersionAuditId(*version), bound, plan.value(),
                   &truth, &data.value(), /*degraded=*/false, &auditor_);
    const double actual = MaxAbsError(truth.vector(), data.value().vector());
    const bool violation = actual > bound;

    if (shadow_.state("dmgard") == ShadowEvaluator::State::kShadowing) {
      auto candidate = shadow_.Candidate("dmgard");
      if (candidate != nullptr) {
        auto cplan = PlanWithModelVersion(field, bound, *candidate);
        cplan.status().Abort("plan candidate");
        auto cdata = ReconstructFromPrefix(field, cplan.value().prefix);
        cdata.status().Abort("reconstruct candidate");
        const double cactual =
            MaxAbsError(truth.vector(), cdata.value().vector());
        shadow_.ObservePair(
            "dmgard",
            ShadowScore{true, violation, plan.value().total_bytes},
            ShadowScore{true, cactual > bound, cplan.value().total_bytes});
      }
    } else if (shadow_.state("dmgard") ==
               ShadowEvaluator::State::kProbation) {
      shadow_.ObserveServing(
          "dmgard", ShadowScore{true, violation, plan.value().total_bytes});
    }
    auto trained = trainer_.RunOnce();
    trained.status().Abort("trainer");
    return violation;
  }

  // Serves `requests` against the corpus, cycling frames and bounds;
  // returns the violation rate.
  double ServePhase(const Corpus& corpus, int requests,
                    const std::vector<double>& rel_bounds) {
    int violations = 0;
    for (int i = 0; i < requests; ++i) {
      const std::size_t f = i % corpus.fields.size();
      const double rel = rel_bounds[i % rel_bounds.size()];
      violations += Serve(corpus.fields[f], corpus.truths[f], rel) ? 1 : 0;
    }
    return static_cast<double>(violations) / requests;
  }

  ModelRegistry registry_;
  ServingHandle handle_;
  ServiceMetrics metrics_;
  obs::ErrorControlAuditor auditor_;
  TrainingSetCollector collector_;
  ShadowEvaluator shadow_;
  BackgroundTrainer trainer_;
};

const std::vector<double> kBounds{1e-2, 3e-3, 1e-3, 3e-4};

TEST_F(RetrainLoopTest, DriftRecoveryWithoutRestart) {
  ShadowEvaluator::Options shadow_options;
  shadow_options.window = 16;
  shadow_options.probation_window = 16;
  shadow_options.violation_epsilon = 0.0;
  shadow_options.overfetch_slack = 1.25;

  BackgroundTrainer::Options trainer_options;
  trainer_options.model_id = "dmgard";
  trainer_options.min_rows = 48;
  trainer_options.watermark = 0;  // drift-triggered only
  trainer_options.drift_cooldown_rows = 48;
  trainer_options.dmgard.train.epochs = 120;
  trainer_options.dmgard.train.batch_size = 32;
  trainer_options.dmgard.train.learning_rate = 1e-3;

  Harness harness(*incumbent_blob_, shadow_options, trainer_options);

  // Phase A: matched traffic. The incumbent was trained on this
  // distribution; its violation rate is the baseline.
  const double pre_rate = harness.ServePhase(*smooth_, 48, kBounds);

  // Phase B: the distribution shifts under the model. Violations climb and
  // the per-level drift monitors cross the alert threshold, so somewhere
  // in this phase the trainer refits, the candidate out-scores the
  // incumbent in its shadow window, and promotion swaps serving to v2.
  const double shift_rate = harness.ServePhase(*shifted_, 160, kBounds);

  EXPECT_GE(harness.trainer_.retrains(), 1u);
  EXPECT_GE(harness.shadow_.stats().promotions, 1u);
  EXPECT_GE(harness.registry_.serving_version("dmgard"), 2);
  EXPECT_GT(shift_rate, pre_rate);  // the shift demonstrably hurt

  // Phase C: same shifted traffic, now served by the retrained model. The
  // success metric: the violation rate returns to within 1.5x of the
  // pre-shift rate (with an absolute floor so a pre_rate of zero does not
  // demand perfection) — without any restart.
  const double post_rate = harness.ServePhase(*shifted_, 96, kBounds);
  const double recovery_ceiling = std::max(1.5 * pre_rate, 0.10);
  EXPECT_LE(post_rate, recovery_ceiling)
      << "pre " << pre_rate << " shift " << shift_rate << " post "
      << post_rate;
  EXPECT_LT(post_rate, shift_rate);

  // The metrics surface agrees with what happened.
  const ServiceMetrics::Snapshot snap = harness.metrics_.snapshot();
  EXPECT_GE(snap.retrains_total, 1u);
  EXPECT_GE(snap.model_promotions, 1u);
  EXPECT_GT(snap.shadow_pairs, 0u);
}

TEST_F(RetrainLoopTest, JunkCandidateIsNotPromoted) {
  ShadowEvaluator::Options shadow_options;
  shadow_options.window = 16;

  BackgroundTrainer::Options trainer_options;
  trainer_options.on_drift = false;
  trainer_options.watermark = 0;  // the trainer never fires here

  Harness harness(*incumbent_blob_, shadow_options, trainer_options);

  // A "candidate" whose training saw only rows pointing at a near-empty
  // prefix: it will predict shallow fetches and violate almost always.
  CollectOptions copts;
  copts.rel_bounds = {0.5};  // only the loosest bound: trivial prefixes
  copts.ladder_points = 0;
  FieldSeries junk_series;
  junk_series.frames = smooth_->truths;
  auto junk_records = CollectRecords(junk_series, {0, 1, 2}, copts);
  ASSERT_TRUE(junk_records.ok());
  DMgardConfig junk_config;
  junk_config.train.epochs = 2;
  auto junk = DMgardModel::TrainModel(junk_records.value(), junk_config);
  ASSERT_TRUE(junk.ok());

  auto v2 = harness.registry_.Publish("dmgard", junk.value().Serialize());
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(harness.shadow_.StartShadow("dmgard", v2.value()).ok());

  // Matched traffic at tight bounds: the incumbent is fine, the junk
  // candidate under-fetches and loses its shadow run.
  harness.ServePhase(*smooth_, 32, {1e-4, 3e-5});

  EXPECT_EQ(harness.shadow_.stats().promotions, 0u);
  EXPECT_EQ(harness.shadow_.stats().rejections, 1u);
  EXPECT_EQ(harness.registry_.serving_version("dmgard"), 1);
  EXPECT_EQ(harness.handle_.load()->version, 1);
  bool junk_retired = false;
  for (const auto& entry : harness.registry_.List()) {
    if (entry.version == v2.value()) {
      junk_retired = entry.state == VersionState::kRetired;
    }
  }
  EXPECT_TRUE(junk_retired);
  EXPECT_EQ(harness.metrics_.snapshot().candidate_rejections, 1u);
}

TEST_F(RetrainLoopTest, WatermarkTriggersRefitWithoutDrift) {
  ShadowEvaluator::Options shadow_options;
  shadow_options.window = 4;

  BackgroundTrainer::Options trainer_options;
  trainer_options.model_id = "dmgard";
  trainer_options.min_rows = 32;
  trainer_options.watermark = 64;
  trainer_options.on_drift = false;
  trainer_options.dmgard.train.epochs = 4;

  Harness harness(*incumbent_blob_, shadow_options, trainer_options);
  EXPECT_FALSE(harness.trainer_.ShouldTrain());  // no rows yet

  harness.ServePhase(*smooth_, 70, kBounds);
  EXPECT_GE(harness.trainer_.retrains(), 1u);
  // Watermark resets after the refit: another one only after 64 more rows.
  EXPECT_FALSE(harness.trainer_.ShouldTrain());
}

}  // namespace
}  // namespace learning
}  // namespace mgardp
