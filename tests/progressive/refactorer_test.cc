#include "progressive/refactorer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "lossless/codec.h"
#include "progressive/reconstructor.h"
#include "util/rng.h"

namespace mgardp {
namespace {

Array3Dd TestField(Dims3 dims, std::uint64_t seed = 1) {
  Rng rng(seed);
  Array3Dd a(dims);
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (std::size_t k = 0; k < dims.nz; ++k) {
        const double x = static_cast<double>(i) / dims.nx;
        const double y = static_cast<double>(j) / dims.ny;
        a(i, j, k) = std::sin(6.0 * x + 2.0 * y) + 0.05 * rng.NextGaussian();
      }
    }
  }
  return a;
}

TEST(RefactorerTest, ProducesCompleteArtifact) {
  Refactorer refactorer;
  auto result = refactorer.Refactor(TestField(Dims3{17, 17, 17}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RefactoredField& f = result.value();
  EXPECT_EQ(f.num_levels(), 5);
  EXPECT_EQ(f.num_planes, 32);
  EXPECT_EQ(static_cast<int>(f.level_exponents.size()), 5);
  EXPECT_EQ(static_cast<int>(f.level_errors.size()), 5);
  EXPECT_EQ(static_cast<int>(f.plane_sizes.size()), 5);
  EXPECT_EQ(static_cast<int>(f.level_sketches.size()), 5);
  for (int l = 0; l < 5; ++l) {
    EXPECT_EQ(static_cast<int>(f.plane_sizes[l].size()), 32);
    EXPECT_EQ(f.level_errors[l].max_abs.size(), 33u);
    EXPECT_EQ(f.level_sketches[l].size(), 32u);
    for (int p = 0; p < 32; ++p) {
      EXPECT_TRUE(f.segments.Contains(l, p));
      EXPECT_EQ(f.segments.SizeOf(l, p), f.plane_sizes[l][p]);
    }
  }
  EXPECT_EQ(f.data_summary.count, 17u * 17u * 17u);
}

TEST(RefactorerTest, OptionsArePropagated) {
  RefactorOptions opts;
  opts.num_planes = 16;
  opts.target_steps = 2;
  opts.sketch_bins = 8;
  opts.use_correction = false;
  Refactorer refactorer(opts);
  auto result = refactorer.Refactor(TestField(Dims3{17, 17, 1}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_levels(), 3);
  EXPECT_EQ(result.value().num_planes, 16);
  EXPECT_FALSE(result.value().use_correction);
  EXPECT_EQ(result.value().level_sketches[0].size(), 8u);
}

TEST(RefactorerTest, RejectsBadOptions) {
  RefactorOptions opts;
  opts.num_planes = 1;
  EXPECT_FALSE(Refactorer(opts).Refactor(TestField(Dims3{9, 9, 1})).ok());
  opts.num_planes = 61;
  EXPECT_FALSE(Refactorer(opts).Refactor(TestField(Dims3{9, 9, 1})).ok());
  opts = RefactorOptions{};
  opts.sketch_bins = 0;
  EXPECT_FALSE(Refactorer(opts).Refactor(TestField(Dims3{9, 9, 1})).ok());
}

TEST(RefactorerTest, CodecNamesTheClosedSet) {
  RefactorOptions opts;
  opts.codec = "zstd";
  auto rejected = Refactorer(opts).Refactor(TestField(Dims3{9, 9, 9}));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  for (const char* codec : {"auto", "pipeline", "rice"}) {
    opts.codec = codec;
    auto field = Refactorer(opts).Refactor(TestField(Dims3{9, 9, 9}));
    ASSERT_TRUE(field.ok()) << codec << ": " << field.status().ToString();
    for (const auto& [level, plane] : field.value().segments.Keys()) {
      const char* name = lossless::CodecName(
          field.value().segments.CodecOf(level, plane));
      ASSERT_NE(name, nullptr);
      if (std::string(codec) != "auto") {
        EXPECT_STREQ(name, codec);
      }
    }
  }
}

TEST(RefactorerTest, CodecChoiceDoesNotChangeReconstruction) {
  // Only the stored containers depend on the codec: every plane decodes to
  // the same bytes, so metadata and reconstructions are identical.
  const Array3Dd data = TestField(Dims3{17, 17, 17}, 4);
  std::vector<RefactoredField> fields;
  for (const char* codec : {"pipeline", "rice", "auto"}) {
    RefactorOptions opts;
    opts.codec = codec;
    auto field = Refactorer(opts).Refactor(data);
    ASSERT_TRUE(field.ok()) << codec << ": " << field.status().ToString();
    fields.push_back(std::move(field).value());
  }
  const RefactoredField& ref = fields.front();
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const RefactoredField& f = fields[i];
    EXPECT_EQ(f.level_exponents, ref.level_exponents);
    for (int l = 0; l < ref.num_levels(); ++l) {
      EXPECT_EQ(f.level_errors[l].max_abs, ref.level_errors[l].max_abs);
      for (int p = 0; p < ref.num_planes; ++p) {
        auto a = ref.segments.Get(l, p);
        auto b = f.segments.Get(l, p);
        ASSERT_TRUE(a.ok() && b.ok());
        auto da = lossless::Decompress(a.value());
        auto db = lossless::Decompress(b.value());
        ASSERT_TRUE(da.ok() && db.ok());
        EXPECT_EQ(da.value(), db.value()) << "level " << l << " plane " << p;
      }
    }
    for (int planes : {3, 20, ref.num_planes}) {
      const std::vector<int> prefix(ref.num_levels(), planes);
      auto ra = ReconstructFromPrefix(ref, prefix);
      auto rb = ReconstructFromPrefix(f, prefix);
      ASSERT_TRUE(ra.ok() && rb.ok());
      EXPECT_EQ(ra.value().vector(), rb.value().vector());
    }
  }
}

TEST(RefactorerTest, PadsNonconformingDims) {
  // 16^3 is not 2^k + 1; the refactorer pads to 17^3 transparently.
  Refactorer refactorer;
  auto field = refactorer.Refactor(TestField(Dims3{16, 16, 16}));
  ASSERT_TRUE(field.ok());
  EXPECT_TRUE(field.value().hierarchy.dims() == (Dims3{17, 17, 17}));
  EXPECT_TRUE(field.value().original_dims == (Dims3{16, 16, 16}));
}

TEST(RefactorerTest, RejectsEmptyData) {
  Refactorer refactorer;
  EXPECT_FALSE(refactorer.Refactor(Array3Dd()).ok());
}

TEST(RefactorerTest, HigherPlanesCompressBetter) {
  // The most significant planes of nega-binary coefficients are mostly
  // zero, so their lossless-coded size should be well below the raw size.
  Refactorer refactorer;
  auto result = refactorer.Refactor(TestField(Dims3{33, 33, 1}));
  ASSERT_TRUE(result.ok());
  const RefactoredField& f = result.value();
  const int finest = f.num_levels() - 1;
  const std::size_t raw = (f.hierarchy.LevelSize(finest) + 7) / 8;
  EXPECT_LT(f.plane_sizes[finest][0], raw / 2);
}

TEST(RefactorerTest, ConstantFieldHasZeroDetailErrors) {
  Refactorer refactorer;
  auto result = refactorer.Refactor(Array3Dd(Dims3{17, 17, 1}, 5.0));
  ASSERT_TRUE(result.ok());
  const RefactoredField& f = result.value();
  // All detail levels of a constant field are exactly zero.
  for (int l = 1; l < f.num_levels(); ++l) {
    EXPECT_EQ(f.level_errors[l].max_abs[0], 0.0) << "level " << l;
  }
}

}  // namespace
}  // namespace mgardp
