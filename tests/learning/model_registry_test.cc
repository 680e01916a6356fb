// ModelRegistry: version numbering, magic sniffing, the promote / pin /
// rollback / retire state machine, lock-free serving handles (including a
// TSan-targeted swap-vs-read hammer), and checksummed directory
// persistence.

#include "learning/model_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "models/training_data.h"
#include "sim/dataset.h"

namespace mgardp {
namespace learning {
namespace {

class ModelRegistryTest : public ::testing::Test {
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

    DMgardConfig dconfig;
    dconfig.train.epochs = 2;
    auto dmodel = DMgardModel::TrainModel(records.value(), dconfig);
    dmodel.status().Abort("train dmgard");
    dmgard_blob_ = new std::string(dmodel.value().Serialize());

    EMgardConfig econfig;
    econfig.train.epochs = 2;
    auto emodel = EMgardModel::TrainModel(records.value(), econfig);
    emodel.status().Abort("train emgard");
    emgard_blob_ = new std::string(emodel.value().Serialize());
  }

  static void TearDownTestSuite() {
    delete dmgard_blob_;
    delete emgard_blob_;
  }

  static std::string* dmgard_blob_;
  static std::string* emgard_blob_;
};

std::string* ModelRegistryTest::dmgard_blob_ = nullptr;
std::string* ModelRegistryTest::emgard_blob_ = nullptr;

TEST_F(ModelRegistryTest, PublishAssignsMonotonicVersionsAndSniffsKind) {
  ModelRegistry registry;
  auto v1 = registry.Publish("dmgard", *dmgard_blob_);
  auto v2 = registry.Publish("dmgard", *dmgard_blob_);
  auto e1 = registry.Publish("emgard", *emgard_blob_);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(v1.value(), 1);
  EXPECT_EQ(v2.value(), 2);
  EXPECT_EQ(e1.value(), 1);

  const auto entries = registry.List();
  ASSERT_EQ(entries.size(), 3u);
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.state, VersionState::kCandidate);
    EXPECT_NE(entry.crc32c, 0u);
    EXPECT_GT(entry.blob_bytes, 0u);
    EXPECT_EQ(entry.kind, entry.model_id == "emgard" ? ModelKind::kEMgard
                                                     : ModelKind::kDMgard);
  }
  // Nothing serves until a promotion.
  EXPECT_EQ(registry.serving_version("dmgard"), 0);
  EXPECT_EQ(registry.Serving("dmgard"), nullptr);
}

TEST_F(ModelRegistryTest, RejectsGarbageBlobs) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.Publish("dmgard", "not a model").ok());
  EXPECT_FALSE(registry.Publish("dmgard", "").ok());
  // A valid magic with a mangled body must also fail to deserialize.
  std::string mangled = *dmgard_blob_;
  mangled.resize(mangled.size() / 2);
  EXPECT_FALSE(registry.Publish("dmgard", mangled).ok());
}

TEST_F(ModelRegistryTest, PromoteSwapsServingAndHandleObservesIt) {
  ModelRegistry registry;
  ServingHandle handle = registry.Handle("dmgard");
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.load(), nullptr);

  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  ASSERT_TRUE(registry.Promote("dmgard", 1).ok());
  auto serving = handle.load();
  ASSERT_NE(serving, nullptr);
  EXPECT_EQ(serving->version, 1);
  EXPECT_EQ(serving->kind, ModelKind::kDMgard);
  ASSERT_NE(serving->dmgard, nullptr);
  EXPECT_EQ(registry.serving_version("dmgard"), 1);

  // An in-flight reader that pinned v1 keeps it across the v2 swap.
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  ASSERT_TRUE(registry.Promote("dmgard", 2).ok());
  EXPECT_EQ(serving->version, 1);  // the pinned epoch is untouched
  EXPECT_EQ(handle.load()->version, 2);
}

TEST_F(ModelRegistryTest, RollbackReturnsToPreviousServing) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());

  // Nothing served before the first promotion: rollback has no target.
  EXPECT_FALSE(registry.Rollback("dmgard").ok());

  ASSERT_TRUE(registry.Promote("dmgard", 1).ok());
  EXPECT_FALSE(registry.Rollback("dmgard").ok());

  ASSERT_TRUE(registry.Promote("dmgard", 2).ok());
  ASSERT_TRUE(registry.Rollback("dmgard").ok());
  EXPECT_EQ(registry.serving_version("dmgard"), 1);
  EXPECT_EQ(registry.Handle("dmgard").load()->version, 1);
}

TEST_F(ModelRegistryTest, RetireRejectsServingVersion) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  ASSERT_TRUE(registry.Promote("dmgard", 1).ok());
  EXPECT_FALSE(registry.Retire("dmgard", 1).ok());

  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  ASSERT_TRUE(registry.Retire("dmgard", 2).ok());
  bool found = false;
  for (const auto& entry : registry.List()) {
    if (entry.version == 2) {
      found = true;
      EXPECT_EQ(entry.state, VersionState::kRetired);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ModelRegistryTest, UnknownIdsAndVersionsFail) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.Promote("nope", 1).ok());
  EXPECT_FALSE(registry.Rollback("nope").ok());
  EXPECT_FALSE(registry.Retire("nope", 1).ok());
  EXPECT_EQ(registry.Get("nope", 1), nullptr);
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  EXPECT_FALSE(registry.Promote("dmgard", 9).ok());
  EXPECT_EQ(registry.Get("dmgard", 9), nullptr);
}

TEST_F(ModelRegistryTest, DirectoryPersistenceRoundTrips) {
  const std::string dir = ::testing::TempDir() + "/registry_roundtrip";
  std::filesystem::remove_all(dir);
  {
    ModelRegistry registry;
    ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
    ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
    ASSERT_TRUE(registry.Publish("emgard", *emgard_blob_).ok());
    ASSERT_TRUE(registry.Promote("dmgard", 2).ok());
    ASSERT_TRUE(registry.Promote("emgard", 1).ok());
    ASSERT_TRUE(registry.SaveToDirectory(dir).ok());
  }
  ModelRegistry loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir).ok());
  EXPECT_EQ(loaded.serving_version("dmgard"), 2);
  EXPECT_EQ(loaded.serving_version("emgard"), 1);
  EXPECT_EQ(loaded.List().size(), 3u);
  auto serving = loaded.Handle("dmgard").load();
  ASSERT_NE(serving, nullptr);
  EXPECT_EQ(serving->version, 2);
  ASSERT_NE(serving->dmgard, nullptr);
  std::filesystem::remove_all(dir);
}

TEST_F(ModelRegistryTest, CorruptBlobOrIndexIsDataLoss) {
  const std::string dir = ::testing::TempDir() + "/registry_corrupt";
  std::filesystem::remove_all(dir);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  ASSERT_TRUE(registry.SaveToDirectory(dir).ok());

  // Flip one byte in the weight blob.
  const std::string blob_path = dir + "/dmgard_v1.bin";
  {
    std::FILE* f = std::fopen(blob_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 64, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 64, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  {
    ModelRegistry loaded;
    const Status status = loaded.LoadFromDirectory(dir);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }

  // Restore the blob, corrupt the index trailer instead.
  ASSERT_TRUE(registry.SaveToDirectory(dir).ok());
  const std::string idx_path = dir + "/registry.idx";
  {
    std::FILE* f = std::fopen(idx_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 8, SEEK_SET);
    std::fputc(c ^ 0x10, f);
    std::fclose(f);
  }
  {
    ModelRegistry loaded;
    const Status status = loaded.LoadFromDirectory(dir);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }
  std::filesystem::remove_all(dir);
}

// The torn-read hammer behind the learning_tsan ctest target: one writer
// publishing and promoting new versions as fast as it can, many readers
// doing lock-free handle loads and dereferencing whatever they see. Under
// TSan this is the proof that the atomic shared_ptr swap never hands out a
// torn or freed ModelVersion; under the normal build it still checks the
// invariants (monotonic version, deserialized weights present).
TEST_F(ModelRegistryTest, HammerConcurrentSwapAndRead) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  ASSERT_TRUE(registry.Promote("dmgard", 1).ok());

  constexpr int kSwaps = 40;
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      ServingHandle handle = registry.Handle("dmgard");
      int last_seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto version = handle.load();
        if (version == nullptr || version->dmgard == nullptr ||
            version->version < last_seen || version->version > kSwaps + 1 ||
            version->model_id != "dmgard") {
          failures.fetch_add(1);
          return;
        }
        last_seen = version->version;
      }
    });
  }

  for (int i = 0; i < kSwaps; ++i) {
    auto version = registry.Publish("dmgard", *dmgard_blob_);
    ASSERT_TRUE(version.ok());
    ASSERT_TRUE(registry.Promote("dmgard", version.value()).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.serving_version("dmgard"), kSwaps + 1);
}

}  // namespace
}  // namespace learning
}  // namespace mgardp
