// Bit-identity cross-check of the lane-batched Decomposer against the
// one-line-at-a-time scalar reference (internal::DecomposeScalar /
// internal::RecomposeScalar in decomposer_reference.cc). Shapes are chosen
// to leave short lane groups and inactive axes; every shape runs every step
// count it allows, with and without the L2 correction, on 1- and 8-thread
// pools.

#include "decompose/decomposer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "decomposer_reference.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mgardp {
namespace {

// Random values with about a quarter of the sites set to +0.0 or -0.0, so
// zero loads and zero residuals occur and their sign bits are compared.
Array3Dd FieldWithZeros(Dims3 dims, std::uint64_t seed) {
  Rng rng(seed);
  Array3Dd a(dims);
  for (double& v : a.vector()) {
    const double r = rng.Uniform(0.0, 1.0);
    if (r < 0.125) {
      v = 0.0;
    } else if (r < 0.25) {
      v = -0.0;
    } else {
      v = rng.Uniform(-10.0, 10.0);
    }
  }
  return a;
}

bool SameBits(const Array3Dd& a, const Array3Dd& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class DecomposerCrossCheck : public ::testing::Test {
 protected:
  ~DecomposerCrossCheck() override { SetGlobalThreadCount(ambient_threads_); }

  // Decompose and Recompose must match the reference bit for bit for every
  // step count, correction setting and pool size.
  void ExpectBitIdentical(Dims3 dims) {
    const int max_steps = std::min({MaxStepsForExtent(dims.nx),
                                    MaxStepsForExtent(dims.ny),
                                    MaxStepsForExtent(dims.nz)});
    for (int steps = 1; steps <= max_steps; ++steps) {
      HierarchyOptions hopts;
      hopts.target_steps = steps;
      auto hr = GridHierarchy::Create(dims, hopts);
      ASSERT_TRUE(hr.ok()) << hr.status().ToString();
      for (bool correction : {false, true}) {
        SCOPED_TRACE(dims.ToString() + " steps=" + std::to_string(steps) +
                     " correction=" + std::to_string(correction));
        DecomposeOptions opts;
        opts.use_correction = correction;
        const Array3Dd input = FieldWithZeros(dims, 7 + steps);
        Array3Dd ref_coefs = input;
        ASSERT_TRUE(
            internal::DecomposeScalar(hr.value(), opts, &ref_coefs).ok());
        // Recompose from the coefficients with their zeros re-planted, as
        // a truncated retrieval would leave them.
        Array3Dd coefs = FieldWithZeros(dims, 1000 + steps);
        for (std::size_t i = 0; i < coefs.size(); ++i) {
          if (coefs.vector()[i] != 0.0) {
            coefs.vector()[i] = ref_coefs.vector()[i];
          }
        }
        Array3Dd ref_data = coefs;
        ASSERT_TRUE(
            internal::RecomposeScalar(hr.value(), opts, &ref_data).ok());

        const Decomposer dec(hr.value(), opts);
        for (int threads : {1, 8}) {
          SetGlobalThreadCount(threads);
          Array3Dd fwd = input;
          ASSERT_TRUE(dec.Decompose(&fwd).ok());
          EXPECT_TRUE(SameBits(fwd, ref_coefs))
              << "Decompose differs, threads=" << threads;
          Array3Dd inv = coefs;
          ASSERT_TRUE(dec.Recompose(&inv).ok());
          EXPECT_TRUE(SameBits(inv, ref_data))
              << "Recompose differs, threads=" << threads;
        }
      }
    }
  }

 private:
  const int ambient_threads_ = GlobalThreadCount();
};

TEST_F(DecomposerCrossCheck, Cube3) { ExpectBitIdentical(Dims3{3, 3, 3}); }

TEST_F(DecomposerCrossCheck, Box9x17x5) {
  ExpectBitIdentical(Dims3{9, 17, 5});
}

TEST_F(DecomposerCrossCheck, InactiveY33x1x65) {
  ExpectBitIdentical(Dims3{33, 1, 65});
}

TEST_F(DecomposerCrossCheck, LongZ5x5x129) {
  ExpectBitIdentical(Dims3{5, 5, 129});
}

TEST_F(DecomposerCrossCheck, Cube65) { ExpectBitIdentical(Dims3{65, 65, 65}); }

TEST_F(DecomposerCrossCheck, Cube129) {
  ExpectBitIdentical(Dims3{129, 129, 129});
}

// The sign of a zero result depends on the load's summation order; a line
// whose details are all -0.0 must keep every sign bit the reference gives.
TEST_F(DecomposerCrossCheck, NegativeZeroDetailsKeepTheirSign) {
  const Dims3 dims{17, 9, 9};
  auto hr = GridHierarchy::Create(dims);
  ASSERT_TRUE(hr.ok());
  Array3Dd coefs(dims);
  for (double& v : coefs.vector()) {
    v = -0.0;
  }
  Array3Dd ref = coefs;
  ASSERT_TRUE(internal::RecomposeScalar(hr.value(), {}, &ref).ok());
  Array3Dd out = coefs;
  ASSERT_TRUE(Decomposer(hr.value()).Recompose(&out).ok());
  EXPECT_TRUE(SameBits(out, ref));
}

}  // namespace
}  // namespace mgardp
