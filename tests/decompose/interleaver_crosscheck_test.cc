// Byte-identity cross-check of the row-run Interleaver against the
// node-at-a-time reference scan (internal::ExtractReference /
// internal::DepositReference in interleaver_reference.cc). A round trip
// alone would accept any consistent reordering, but the level order decides
// which coefficient each stored plane bit belongs to. Shapes cover inactive
// axes, long and short rows and the benchmark's 65^3 / 129^3 grids; every
// shape runs every step count it allows on 1- and 8-thread pools.

#include "decompose/interleaver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "interleaver_reference.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mgardp {
namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class InterleaverCrossCheck : public ::testing::Test {
 protected:
  ~InterleaverCrossCheck() override {
    SetGlobalThreadCount(ambient_threads_);
  }

  void ExpectSameOrder(Dims3 dims) {
    const int max_steps = std::min({MaxStepsForExtent(dims.nx),
                                    MaxStepsForExtent(dims.ny),
                                    MaxStepsForExtent(dims.nz)});
    for (int steps = 1; steps <= max_steps; ++steps) {
      SCOPED_TRACE(dims.ToString() + " steps=" + std::to_string(steps));
      HierarchyOptions hopts;
      hopts.target_steps = steps;
      auto hr = GridHierarchy::Create(dims, hopts);
      ASSERT_TRUE(hr.ok()) << hr.status().ToString();
      const GridHierarchy& h = hr.value();

      // Distinct values everywhere, so any misplaced node shows.
      Rng rng(31 + steps);
      Array3Dd field(dims);
      for (double& v : field.vector()) {
        v = rng.NextGaussian();
      }
      std::vector<std::vector<double>> levels(h.num_levels());
      for (int l = 0; l < h.num_levels(); ++l) {
        levels[l].resize(h.LevelSize(l));
        for (double& v : levels[l]) {
          v = rng.NextGaussian();
        }
      }
      const auto ref_levels = internal::ExtractReference(h, field);
      Array3Dd ref_grid(dims);
      internal::DepositReference(h, levels, &ref_grid);

      const Interleaver il(h);
      for (int threads : {1, 8}) {
        SetGlobalThreadCount(threads);
        const auto got = il.Extract(field);
        ASSERT_EQ(got.size(), ref_levels.size());
        for (int l = 0; l < h.num_levels(); ++l) {
          EXPECT_TRUE(SameBits(got[l], ref_levels[l]))
              << "Extract level " << l << " differs, threads=" << threads;
        }
        Array3Dd grid(dims, -1.0);
        ASSERT_TRUE(il.Deposit(levels, &grid).ok());
        EXPECT_TRUE(SameBits(grid.vector(), ref_grid.vector()))
            << "Deposit differs, threads=" << threads;
      }
    }
  }

 private:
  const int ambient_threads_ = GlobalThreadCount();
};

TEST_F(InterleaverCrossCheck, Cube3) { ExpectSameOrder(Dims3{3, 3, 3}); }

TEST_F(InterleaverCrossCheck, Box9x17x5) { ExpectSameOrder(Dims3{9, 17, 5}); }

TEST_F(InterleaverCrossCheck, InactiveY33x1x65) {
  ExpectSameOrder(Dims3{33, 1, 65});
}

TEST_F(InterleaverCrossCheck, LongZ5x5x129) {
  ExpectSameOrder(Dims3{5, 5, 129});
}

TEST_F(InterleaverCrossCheck, LineX33x1x1) { ExpectSameOrder(Dims3{33, 1, 1}); }

TEST_F(InterleaverCrossCheck, InactiveX1x9x17) {
  ExpectSameOrder(Dims3{1, 9, 17});
}

TEST_F(InterleaverCrossCheck, Cube65) { ExpectSameOrder(Dims3{65, 65, 65}); }

TEST_F(InterleaverCrossCheck, Cube129) {
  ExpectSameOrder(Dims3{129, 129, 129});
}

}  // namespace
}  // namespace mgardp
