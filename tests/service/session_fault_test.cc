// Fault-injection matrix for RetrievalSession's degradation path.
//
// For every fault kind (corrupt / missing / transient) hitting every depth
// (coarsest level / finest level), a refinement must never crash, and:
//   * transient faults end in a result bit-identical to the fault-free run,
//   * permanent faults end in a degraded-but-honest refinement whose
//     estimate dominates the error actually measured against the original,
//   * once a fault clears, the next refinement lands on the field a cold
//     fault-free session reconstructs.

#include "service/retrieval_session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "progressive/refactorer.h"
#include "storage/fault_injection.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mgardp {
namespace {

Array3Dd MakeField(Dims3 dims, std::uint64_t seed = 29) {
  Rng rng(seed);
  Array3Dd a(dims);
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (std::size_t k = 0; k < dims.nz; ++k) {
        a(i, j, k) = std::sin(0.4 * i) * std::cos(0.25 * j) +
                     0.5 * std::sin(0.15 * k) + 0.01 * rng.NextGaussian();
      }
    }
  }
  return a;
}

// Serves one segment as an empty payload, which reads back fine but cannot
// be decompressed: damage that only the decode can reveal.
class EmptyingBackend : public StorageBackend {
 public:
  EmptyingBackend(StorageBackend* inner, int level, int plane)
      : inner_(inner), level_(level), plane_(plane) {}
  Result<std::string> Get(int level, int plane) override {
    if (level == level_ && plane == plane_) {
      return std::string();
    }
    return inner_->Get(level, plane);
  }
  Status Put(int level, int plane, std::string payload) override {
    return inner_->Put(level, plane, std::move(payload));
  }
  bool Contains(int level, int plane) const override {
    return inner_->Contains(level, plane);
  }
  std::vector<std::pair<int, int>> Keys() const override {
    return inner_->Keys();
  }
  std::string name() const override { return "emptying"; }

 private:
  StorageBackend* inner_;
  int level_;
  int plane_;
};

class SessionFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_ = MakeField(Dims3{17, 17, 17});
    auto result = Refactorer().Refactor(original_);
    ASSERT_TRUE(result.ok());
    field_ = std::move(result).value();
    bound_ = 1e-4 * field_.data_summary.range();

    // The fault-free baseline everything else is compared against.
    MemoryBackend clean(&field_.segments);
    RetrievalSession session("f", &field_, &clean, &theory_);
    RetrievalSession::Refinement info;
    auto data = session.Refine(bound_, &info);
    ASSERT_TRUE(data.ok());
    ASSERT_FALSE(info.degraded);
    baseline_ = *data.value();
    baseline_prefix_ = info.prefix;
  }

  // A session whose retries are instant (recorded, not slept).
  std::unique_ptr<RetrievalSession> FastSession(StorageBackend* backend) {
    RetryPolicy retry;
    retry.set_sleep([](double) {});
    return std::make_unique<RetrievalSession>("f", &field_, backend, &theory_,
                                              nullptr, nullptr, retry);
  }

  Array3Dd original_{Dims3{1, 1, 1}};
  RefactoredField field_;
  TheoryEstimator theory_;
  double bound_ = 0.0;
  Array3Dd baseline_{Dims3{1, 1, 1}};
  std::vector<int> baseline_prefix_;
};

TEST_F(SessionFaultTest, MatrixOfFaultsByLevel) {
  struct Case {
    const char* name;
    FaultKind kind;
    bool permanent;
  };
  const Case kCases[] = {
      {"corrupt", FaultKind::kBitFlip, true},
      {"missing", FaultKind::kMissing, true},
      {"transient", FaultKind::kTransient, false},
  };
  const int levels[] = {0, field_.num_levels() - 1};

  for (const Case& c : kCases) {
    for (int level : levels) {
      SCOPED_TRACE(std::string(c.name) + " at level " +
                   std::to_string(level));
      // Hit a plane the fault-free plan actually fetches, so the fault is
      // guaranteed to be on the retrieval path.
      const int plane = std::max(0, baseline_prefix_[level] / 2);

      MemoryBackend memory(&field_.segments);
      FaultInjectingBackend faulty(&memory);
      FaultInjectingBackend::FaultRule rule;
      rule.kind = c.kind;
      rule.fail_attempts = c.permanent ? -1 : 1;
      faulty.SetFault(level, plane, rule);
      VerifyingBackend backend(&faulty, field_.segments);

      auto session = FastSession(&backend);
      RetrievalSession::Refinement info;
      auto data = session->Refine(bound_, &info);
      ASSERT_TRUE(data.ok()) << data.status().ToString();

      if (c.permanent) {
        EXPECT_TRUE(info.degraded);
        ASSERT_FALSE(info.skipped.empty());
        EXPECT_EQ(info.skipped.front().level, level);
        EXPECT_EQ(info.skipped.front().plane, plane);
        EXPECT_GE(info.replans, 1);
        // The level's prefix stops at the last verified plane.
        EXPECT_LE(info.prefix[level], plane);
        // The reported bound must dominate the measured error: degraded,
        // but never silently wrong.
        const double measured =
            MaxAbsError(original_.vector(), data.value()->vector());
        EXPECT_GE(info.estimated_error, measured);
      } else {
        EXPECT_FALSE(info.degraded);
        EXPECT_TRUE(info.skipped.empty());
        EXPECT_GE(info.retries, 1);
        // Bit-identical to the fault-free run once the retry lands.
        EXPECT_EQ(data.value()->vector(), baseline_.vector());
        EXPECT_EQ(info.prefix, baseline_prefix_);
      }
    }
  }
}

TEST_F(SessionFaultTest, PermanentlyFlakySegmentExhaustsRetriesThenDegrades) {
  const int level = 0;
  const int plane = std::max(0, baseline_prefix_[level] / 2);
  MemoryBackend memory(&field_.segments);
  FaultInjectingBackend faulty(&memory);
  faulty.SetFault(level, plane, {FaultKind::kTransient, -1});

  auto session = FastSession(&faulty);
  RetrievalSession::Refinement info;
  auto data = session->Refine(bound_, &info);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(info.degraded);
  EXPECT_GE(info.retries, RetryPolicy().options().max_attempts - 1);
  ASSERT_FALSE(info.skipped.empty());
  EXPECT_EQ(info.skipped.front().reason.code(), StatusCode::kIOError);
}

TEST_F(SessionFaultTest, WholeLevelLossStillReconstructs) {
  // Every plane of the finest level is gone; the refinement must fall back
  // to the surviving levels and say so.
  const int level = field_.num_levels() - 1;
  MemoryBackend memory(&field_.segments);
  FaultInjectingBackend faulty(&memory);
  for (int p = 0; p < field_.num_planes; ++p) {
    faulty.SetFault(level, p, {FaultKind::kMissing});
  }

  auto session = FastSession(&faulty);
  RetrievalSession::Refinement info;
  auto data = session->Refine(bound_, &info);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(info.degraded);
  EXPECT_EQ(info.prefix[level], 0);
  const double measured =
      MaxAbsError(original_.vector(), data.value()->vector());
  EXPECT_GE(info.estimated_error, measured);
}

TEST_F(SessionFaultTest, ToStringMentionsSkips) {
  MemoryBackend memory(&field_.segments);
  FaultInjectingBackend faulty(&memory);
  faulty.SetFault(0, 0, {FaultKind::kMissing});
  auto session = FastSession(&faulty);
  RetrievalSession::Refinement info;
  ASSERT_TRUE(session->Refine(bound_, &info).ok());
  const std::string text = info.ToString();
  EXPECT_NE(text.find("DEGRADED"), std::string::npos);
  EXPECT_NE(text.find("level=0"), std::string::npos);
}

TEST_F(SessionFaultTest, DirectoryBackendEndToEnd) {
  // Store to disk, corrupt one plane's bytes on disk, refine tolerantly.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mgardp_session_fault_dir").string();
  fs::remove_all(dir);
  ASSERT_TRUE(field_.segments.WriteToDirectory(dir).ok());

  const int level = 0;
  const int plane = std::max(0, baseline_prefix_[level] / 2);
  {
    const std::string path = container::LevelFileName(dir, level);
    auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    std::string damaged = bytes.value();
    // The plane's offset within the level file is the sum of the preceding
    // plane sizes; damage one byte inside its range.
    std::size_t offset = 0;
    for (int p = 0; p < plane; ++p) {
      offset += field_.segments.SizeOf(level, p);
    }
    ASSERT_LT(offset, damaged.size());
    damaged[offset] ^= 0x40;
    ASSERT_TRUE(WriteFile(path, damaged).ok());
  }

  auto backend = DirectoryBackend::Open(dir);
  ASSERT_TRUE(backend.ok());
  auto session = FastSession(&backend.value());
  RetrievalSession::Refinement info;
  auto data = session->Refine(bound_, &info);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(info.degraded);
  ASSERT_FALSE(info.skipped.empty());
  EXPECT_EQ(info.skipped.front().level, level);
  EXPECT_EQ(info.skipped.front().reason.code(), StatusCode::kDataLoss);
  const double measured =
      MaxAbsError(original_.vector(), data.value()->vector());
  EXPECT_GE(info.estimated_error, measured);
  fs::remove_all(dir);
}

TEST_F(SessionFaultTest, LegacyV1DirectoryRetrievesWithoutChecksums) {
  // A pre-checksum container: same layout, v1 index. The session must
  // still plan, fetch, and reconstruct bit-identically.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mgardp_session_fault_v1").string();
  fs::remove_all(dir);
  ASSERT_TRUE(field_.segments.WriteToDirectory(dir).ok());
  {
    // Strip the v2 index down to v1 (drop magic/version and the CRCs).
    auto idx = ReadFileToString(dir + "/segments.idx");
    ASSERT_TRUE(idx.ok());
    std::vector<container::IndexRecord> records;
    ASSERT_TRUE(container::ParseIndex(idx.value(), &records).ok());
    BinaryWriter w;
    w.Put<std::uint64_t>(records.size());
    for (const container::IndexRecord& rec : records) {
      w.Put<std::int32_t>(rec.level);
      w.Put<std::int32_t>(rec.plane);
      w.Put<std::uint64_t>(rec.offset);
      w.Put<std::uint64_t>(rec.size);
    }
    ASSERT_TRUE(WriteFile(dir + "/segments.idx", w.TakeBuffer()).ok());
  }

  auto backend = DirectoryBackend::Open(dir);
  ASSERT_TRUE(backend.ok());
  auto session = FastSession(&backend.value());
  RetrievalSession::Refinement info;
  auto data = session->Refine(bound_, &info);
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(info.degraded);
  EXPECT_EQ(data.value()->vector(), baseline_.vector());
  fs::remove_all(dir);
}

TEST_F(SessionFaultTest, UndecodableSegmentIsFoundAfterTheDecodeFails) {
  // No integrity layer (as with a v1 container): the emptied payload
  // reaches the decode, which fails; the session then finds the damaged
  // plane by decompressing what it fetched, caps the level there and
  // degrades instead of failing.
  const int level = field_.num_levels() - 1;
  const int plane = std::max(0, baseline_prefix_[level] / 2);
  MemoryBackend memory(&field_.segments);
  EmptyingBackend damaged(&memory, level, plane);

  auto session = FastSession(&damaged);
  RetrievalSession::Refinement info;
  auto data = session->Refine(bound_, &info);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_TRUE(info.degraded);
  ASSERT_EQ(info.skipped.size(), 1u);
  EXPECT_EQ(info.skipped.front().level, level);
  EXPECT_EQ(info.skipped.front().plane, plane);
  EXPECT_GE(info.replans, 1);
  EXPECT_LE(info.prefix[level], plane);
  const double measured =
      MaxAbsError(original_.vector(), data.value()->vector());
  EXPECT_GE(info.estimated_error, measured);
}

TEST_F(SessionFaultTest, ClearedFaultRecoversBitIdenticallyToColdSession) {
  const int level = 0;
  const int plane = std::max(0, baseline_prefix_[level] / 2);
  MemoryBackend memory(&field_.segments);
  FaultInjectingBackend faulty(&memory);
  faulty.SetFault(level, plane, {FaultKind::kMissing});
  auto session = FastSession(&faulty);

  RetrievalSession::Refinement lost;
  ASSERT_TRUE(session->Refine(bound_, &lost).ok());
  ASSERT_TRUE(lost.degraded);
  EXPECT_LE(lost.prefix[level], plane);

  // The fault clears. The same bound is not a no-op for a degraded
  // session: it retries the lost plane and lands on the cold prefix.
  faulty.ClearFault(level, plane);
  RetrievalSession::Refinement healed;
  auto data = session->Refine(bound_, &healed);
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(healed.noop);
  EXPECT_FALSE(healed.degraded);
  EXPECT_GE(healed.planes_fetched, 1);
  EXPECT_EQ(healed.prefix, baseline_prefix_);
  EXPECT_EQ(data.value()->vector(), baseline_.vector());

  // Back on the fault-free trajectory: repeating is free again, and a
  // further tightening matches a cold session at the tighter bound.
  RetrievalSession::Refinement repeat;
  ASSERT_TRUE(session->Refine(bound_, &repeat).ok());
  EXPECT_TRUE(repeat.noop);
  auto tighter = session->Refine(bound_ / 100.0, nullptr);
  ASSERT_TRUE(tighter.ok());
  MemoryBackend clean(&field_.segments);
  RetrievalSession cold("f", &field_, &clean, &theory_);
  auto cold_data = cold.Refine(bound_ / 100.0, nullptr);
  ASSERT_TRUE(cold_data.ok());
  EXPECT_EQ(session->prefix(), cold.prefix());
  EXPECT_EQ(tighter.value()->vector(), cold_data.value()->vector());
}

TEST_F(SessionFaultTest, DegradedRefinementIsRetriedEvenWhenItMetTheBound) {
  // The last plane a loose plan takes on the coarsest level is lost: the
  // other levels compensate and the degraded refinement still meets the
  // bound. Repeating the bound must retry the lost plane, not serve the
  // degraded field as a no-op.
  const double loose = 1e-1 * field_.data_summary.range();
  MemoryBackend clean(&field_.segments);
  RetrievalSession cold("f", &field_, &clean, &theory_);
  RetrievalSession::Refinement cold_info;
  auto cold_data = cold.Refine(loose, &cold_info);
  ASSERT_TRUE(cold_data.ok());
  const int plane = cold_info.prefix[0] - 1;
  ASSERT_GE(plane, 0);

  MemoryBackend memory(&field_.segments);
  FaultInjectingBackend faulty(&memory);
  faulty.SetFault(0, plane, {FaultKind::kMissing});
  auto session = FastSession(&faulty);
  RetrievalSession::Refinement lost;
  ASSERT_TRUE(session->Refine(loose, &lost).ok());
  ASSERT_TRUE(lost.degraded);
  ASSERT_TRUE(lost.bound_met);

  faulty.ClearFault(0, plane);
  RetrievalSession::Refinement healed;
  auto data = session->Refine(loose, &healed);
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(healed.noop);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.prefix, cold_info.prefix);
  EXPECT_EQ(data.value()->vector(), cold_data.value()->vector());
}

}  // namespace
}  // namespace mgardp
