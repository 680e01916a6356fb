// TrainingSetCollector: audit-record conversion, reservoir bounds and
// determinism, and model-id normalization.

#include "learning/training_set.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "obs/audit.h"
#include "util/stats.h"

namespace mgardp {
namespace learning {
namespace {

obs::AuditRecord ExampleRecord(const std::string& model, int levels,
                               double actual = 0.5) {
  obs::AuditRecord r;
  r.model = model;
  r.requested_tolerance = 1.0;
  r.predicted_error = 0.8;
  r.actual_error = actual;
  r.bytes_fetched = 4096;
  r.predicted_prefix.assign(levels, 7);
  r.summary = Summarize({0.0, 1.0, 2.0, 3.0});
  r.level_errors.assign(levels, 0.25);
  r.sketches.assign(levels, std::vector<double>{1.0, 0.5, 0.25});
  return r;
}

TEST(BaseModelIdTest, StripsOnlyRealVersionSuffixes) {
  EXPECT_EQ(BaseModelId("dmgard"), "dmgard");
  EXPECT_EQ(BaseModelId("dmgard@v3"), "dmgard");
  EXPECT_EQ(BaseModelId("emgard@v12"), "emgard");
  EXPECT_EQ(BaseModelId("weird@vX"), "weird@vX");
  EXPECT_EQ(BaseModelId("weird@v"), "weird@v");
  EXPECT_EQ(BaseModelId("a@v1b"), "a@v1b");
}

TEST(TrainingSetCollectorTest, ConvertsAuditRecordsToRows) {
  TrainingSetCollector collector;
  collector.OnRecord(ExampleRecord("dmgard@v2", 4));
  ASSERT_EQ(collector.RowCount("dmgard"), 1u);
  const std::vector<RetrievalRecord> rows = collector.Rows("dmgard");
  const RetrievalRecord& row = rows[0];
  EXPECT_EQ(row.bitplanes, std::vector<int>(4, 7));
  EXPECT_DOUBLE_EQ(row.achieved_error, 0.5);
  EXPECT_DOUBLE_EQ(row.estimated_error, 0.8);
  EXPECT_DOUBLE_EQ(row.requested_abs_error, 1.0);
  EXPECT_DOUBLE_EQ(row.requested_rel_error, 1.0 / 3.0);  // range() == 3
  EXPECT_EQ(row.total_bytes, 4096u);
  EXPECT_EQ(row.level_errors.size(), 4u);
  EXPECT_EQ(row.sketches.size(), 4u);
  EXPECT_FALSE(row.is_ladder);
  EXPECT_FALSE(row.features.empty());
}

TEST(TrainingSetCollectorTest, DistinctRequestsGetDistinctTimesteps) {
  // DMgard's trainer dedups rows by (timestep, prefix); two identical live
  // requests must survive as two rows.
  TrainingSetCollector collector;
  collector.OnRecord(ExampleRecord("dmgard", 3));
  collector.OnRecord(ExampleRecord("dmgard", 3));
  const std::vector<RetrievalRecord> rows = collector.Rows("dmgard");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[0].timestep, rows[1].timestep);
}

TEST(TrainingSetCollectorTest, SkipsRecordsWithoutExamplesOrGroundTruth) {
  TrainingSetCollector collector;
  obs::AuditRecord no_examples;
  no_examples.model = "dmgard";
  no_examples.actual_error = 0.5;
  collector.OnRecord(no_examples);

  obs::AuditRecord no_truth = ExampleRecord("dmgard", 3);
  no_truth.actual_error = std::numeric_limits<double>::quiet_NaN();
  collector.OnRecord(no_truth);

  obs::AuditRecord mismatched = ExampleRecord("dmgard", 3);
  mismatched.level_errors.pop_back();
  collector.OnRecord(mismatched);

  EXPECT_EQ(collector.RowCount("dmgard"), 0u);
  EXPECT_EQ(collector.skipped(), 3u);
  EXPECT_EQ(collector.total_accepted(), 0u);
}

TEST(TrainingSetCollectorTest, EstimateOnlyAcceptedWhenNotRequiringActual) {
  TrainingSetCollector::Options options;
  options.require_actual = false;
  TrainingSetCollector collector(options);
  obs::AuditRecord r = ExampleRecord("emgard", 3);
  r.actual_error = std::numeric_limits<double>::quiet_NaN();
  collector.OnRecord(r);
  EXPECT_EQ(collector.RowCount("emgard"), 1u);
}

TEST(TrainingSetCollectorTest, ReservoirStaysBoundedAndCountsLifetime) {
  TrainingSetCollector::Options options;
  options.capacity = 16;
  options.seed = 7;
  TrainingSetCollector collector(options);
  for (int i = 0; i < 200; ++i) {
    collector.OnRecord(ExampleRecord("dmgard", 3, 0.1 + i * 0.001));
  }
  EXPECT_EQ(collector.RowCount("dmgard"), 16u);
  EXPECT_EQ(collector.accepted("dmgard"), 200u);
  EXPECT_EQ(collector.total_accepted(), 200u);
}

TEST(TrainingSetCollectorTest, ReservoirIsDeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    TrainingSetCollector::Options options;
    options.capacity = 8;
    options.seed = seed;
    TrainingSetCollector collector(options);
    for (int i = 0; i < 100; ++i) {
      collector.OnRecord(ExampleRecord("dmgard", 3, 0.1 + i));
    }
    std::vector<double> achieved;
    for (const RetrievalRecord& r : collector.Rows("dmgard")) {
      achieved.push_back(r.achieved_error);
    }
    return achieved;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

TEST(TrainingSetCollectorTest, BucketsByLevelCountAndServesLargest) {
  TrainingSetCollector collector;
  collector.OnRecord(ExampleRecord("dmgard", 3));
  collector.OnRecord(ExampleRecord("dmgard", 5));
  collector.OnRecord(ExampleRecord("dmgard", 5));
  const std::vector<RetrievalRecord> rows = collector.Rows("dmgard");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].bitplanes.size(), 5u);
}

}  // namespace
}  // namespace learning
}  // namespace mgardp
