// Thread-count determinism: the parallelism layer promises bit-identical
// results for MGARDP_THREADS=1 vs N. This exercises the full refactor +
// reconstruct pipeline (decomposition, interleaving, bit-plane encoding
// with error matrices, chunked lossless coding, planning, recomposition)
// under several pool sizes and compares every output byte for byte. The
// odd size gives the striped per-plane lossless tasks uneven stripes.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "sim/warpx.h"
#include "util/parallel.h"

namespace mgardp {
namespace {

struct PipelineOutputs {
  std::string metadata;                 // exponents, error matrices, sizes
  std::vector<std::string> segments;    // compressed planes, (l, p) order
  std::vector<int> plan_prefix;
  std::vector<double> reconstructed;
  bool fetched_chunked = false;         // a planned segment is chunked
};

constexpr int kThreadCounts[] = {2, 3, 8};

PipelineOutputs RunPipeline(int threads, Dims3 dims) {
  SetGlobalThreadCount(threads);
  WarpXSimulator sim(dims);
  const Array3Dd data = sim.Field(WarpXField::kEx, 7);
  RefactoredField field = Refactorer().Refactor(data).ValueOrDie();

  PipelineOutputs out;
  out.metadata = field.SerializeMetadata();
  for (int l = 0; l < field.num_levels(); ++l) {
    for (int p = 0; p < static_cast<int>(field.plane_sizes[l].size()); ++p) {
      out.segments.push_back(field.segments.Get(l, p).ValueOrDie());
    }
  }
  TheoryEstimator theory;
  Reconstructor rec(&theory);
  RetrievalPlan plan;
  const double bound = 1e-4 * field.data_summary.range();
  Array3Dd restored = rec.Retrieve(field, bound, &plan).ValueOrDie();
  out.plan_prefix = plan.prefix;
  out.reconstructed = restored.vector();
  for (int l = 0; l < field.num_levels(); ++l) {
    for (int p = 0; p < plan.prefix[l]; ++p) {
      out.fetched_chunked |= field.segments.Get(l, p).ValueOrDie()[0] == '\x08';
    }
  }
  return out;
}

void ExpectIdentical(const PipelineOutputs& serial,
                     const PipelineOutputs& threaded) {
  // Metadata covers level_exponents, the LevelErrorStats doubles, and the
  // compressed plane sizes: any reduction-order drift shows up here.
  EXPECT_EQ(serial.metadata, threaded.metadata);
  ASSERT_EQ(serial.segments.size(), threaded.segments.size());
  for (std::size_t i = 0; i < serial.segments.size(); ++i) {
    EXPECT_EQ(serial.segments[i], threaded.segments[i]) << "segment " << i;
  }
  EXPECT_EQ(serial.plan_prefix, threaded.plan_prefix);
  ASSERT_EQ(serial.reconstructed.size(), threaded.reconstructed.size());
  // Bit-level comparison, not EXPECT_DOUBLE_EQ: the contract is identical
  // bytes, and memcmp also distinguishes -0.0 from 0.0.
  EXPECT_EQ(std::memcmp(serial.reconstructed.data(),
                        threaded.reconstructed.data(),
                        serial.reconstructed.size() * sizeof(double)),
            0);
}

TEST(DeterminismTest, PipelineIsBitIdenticalAcrossThreadCounts) {
  const int ambient = GlobalThreadCount();
  const PipelineOutputs serial = RunPipeline(1, Dims3{33, 33, 33});
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    ExpectIdentical(serial, RunPipeline(threads, Dims3{33, 33, 33}));
  }
  SetGlobalThreadCount(ambient);
}

TEST(DeterminismTest, ChunkedPlanesAreBitIdenticalAcrossThreadCounts) {
  // The finest level of 129 x 129 x 65 holds 942,240 coefficients, so its
  // planes (~115 KiB) exceed one 64 KiB chunk: the pipeline codec encodes
  // and decodes chunked containers inside the per-plane fan-out.
  const int ambient = GlobalThreadCount();
  const Dims3 dims{129, 129, 65};
  const PipelineOutputs serial = RunPipeline(1, dims);
  EXPECT_TRUE(serial.fetched_chunked);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    ExpectIdentical(serial, RunPipeline(threads, dims));
  }
  SetGlobalThreadCount(ambient);
}

TEST(DeterminismTest, LevelErrorStatsMatchAcrossThreadCounts) {
  const int ambient = GlobalThreadCount();
  WarpXSimulator sim(Dims3{17, 17, 17});
  const Array3Dd data = sim.Field(WarpXField::kJx, 3);

  SetGlobalThreadCount(1);
  RefactoredField a = Refactorer().Refactor(data).ValueOrDie();
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    SetGlobalThreadCount(threads);
    RefactoredField b = Refactorer().Refactor(data).ValueOrDie();
    ASSERT_EQ(a.num_levels(), b.num_levels());
    for (int l = 0; l < a.num_levels(); ++l) {
      ASSERT_EQ(a.level_errors[l].max_abs.size(),
                b.level_errors[l].max_abs.size());
      for (std::size_t i = 0; i < a.level_errors[l].max_abs.size(); ++i) {
        // Exact equality on purpose -- these doubles feed the retrieval
        // planner, so any drift would change plans between thread counts.
        EXPECT_EQ(a.level_errors[l].max_abs[i], b.level_errors[l].max_abs[i]);
        EXPECT_EQ(a.level_errors[l].mse[i], b.level_errors[l].mse[i]);
      }
    }
  }
  SetGlobalThreadCount(ambient);
}

}  // namespace
}  // namespace mgardp
