#include "decompose/decomposer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "decomposer_reference.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mgardp {
namespace {

Array3Dd RandomField(Dims3 dims, std::uint64_t seed) {
  Rng rng(seed);
  Array3Dd a(dims);
  for (double& v : a.vector()) {
    v = rng.Uniform(-10.0, 10.0);
  }
  return a;
}

Array3Dd SmoothField(Dims3 dims) {
  Array3Dd a(dims);
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (std::size_t k = 0; k < dims.nz; ++k) {
        const double x = static_cast<double>(i) / std::max<std::size_t>(
                             dims.nx - 1, 1);
        const double y = static_cast<double>(j) / std::max<std::size_t>(
                             dims.ny - 1, 1);
        const double z = static_cast<double>(k) / std::max<std::size_t>(
                             dims.nz - 1, 1);
        a(i, j, k) = std::sin(2 * M_PI * x) * std::cos(M_PI * y) + 0.5 * z;
      }
    }
  }
  return a;
}

TEST(LineTransformTest, ForwardInverseIdentity) {
  std::vector<double> scratch;
  for (std::size_t m : {3u, 5u, 9u, 17u, 33u}) {
    Rng rng(m);
    std::vector<double> u(m), orig(m);
    for (std::size_t i = 0; i < m; ++i) {
      u[i] = orig[i] = rng.Uniform(-5, 5);
    }
    internal::ForwardLine(u.data(), m, /*correct=*/true, &scratch);
    internal::InverseLine(u.data(), m, /*correct=*/true, &scratch);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(u[i], orig[i], 1e-12) << "m=" << m << " i=" << i;
    }
  }
}

TEST(LineTransformTest, LinearDataHasZeroDetails) {
  // Midpoint interpolation reproduces linear data exactly, so every detail
  // coefficient must vanish (correction then also vanishes).
  std::vector<double> scratch;
  std::vector<double> u(9);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = 3.0 * static_cast<double>(i) - 4.0;
  }
  internal::ForwardLine(u.data(), u.size(), true, &scratch);
  for (std::size_t p = 1; p < u.size(); p += 2) {
    EXPECT_NEAR(u[p], 0.0, 1e-12);
  }
  // With zero details the correction is zero: even entries unchanged.
  for (std::size_t p = 0; p < u.size(); p += 2) {
    EXPECT_NEAR(u[p], 3.0 * static_cast<double>(p) - 4.0, 1e-12);
  }
}

TEST(LineTransformTest, MassSolveAgainstDirectComputation) {
  // Solve M w = b with M = (1/3) tridiag(1, 4, 1), halved at boundaries,
  // for a small system and verify M w == b.
  std::vector<double> b{1.0, -2.0, 3.0};
  std::vector<double> rhs = b;
  std::vector<double> scratch;
  internal::SolveCoarseMass(b.data(), b.size(), &scratch);
  const double off = 2.0 / 6.0, diag_i = 8.0 / 6.0, diag_b = 4.0 / 6.0;
  EXPECT_NEAR(diag_b * b[0] + off * b[1], rhs[0], 1e-12);
  EXPECT_NEAR(off * b[0] + diag_i * b[1] + off * b[2], rhs[1], 1e-12);
  EXPECT_NEAR(off * b[1] + diag_b * b[2], rhs[2], 1e-12);
}

class DecomposerRoundTripTest
    : public ::testing::TestWithParam<std::tuple<Dims3, bool>> {};

TEST_P(DecomposerRoundTripTest, DecomposeRecomposeIsIdentity) {
  const auto [dims, correction] = GetParam();
  auto hr = GridHierarchy::Create(dims);
  ASSERT_TRUE(hr.ok()) << hr.status().ToString();
  DecomposeOptions opts;
  opts.use_correction = correction;
  Decomposer dec(hr.value(), opts);

  Array3Dd data = RandomField(dims, 99);
  Array3Dd orig = data;
  ASSERT_TRUE(dec.Decompose(&data).ok());
  // The transform must actually change the data (it is not a no-op).
  EXPECT_GT(MaxAbsError(data.vector(), orig.vector()), 1e-6);
  ASSERT_TRUE(dec.Recompose(&data).ok());
  EXPECT_LT(MaxAbsError(data.vector(), orig.vector()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndCorrection, DecomposerRoundTripTest,
    ::testing::Combine(
        ::testing::Values(Dims3{33, 1, 1}, Dims3{17, 17, 1},
                          Dims3{9, 9, 9}, Dims3{17, 17, 17},
                          Dims3{33, 9, 5}, Dims3{5, 33, 1}),
        ::testing::Bool()));

TEST(DecomposerTest, SmoothDataConcentratesEnergyInCoarseLevels) {
  const Dims3 dims{33, 33, 1};
  auto hr = GridHierarchy::Create(dims);
  ASSERT_TRUE(hr.ok());
  Decomposer dec(hr.value());
  Array3Dd data = SmoothField(dims);
  ASSERT_TRUE(dec.Decompose(&data).ok());
  // Detail coefficients (odd positions on the finest lattice) must be much
  // smaller than the coarse values for smooth data.
  double max_detail = 0.0, max_coarse = 0.0;
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      const double v = std::fabs(data(i, j, 0));
      if (i % 2 == 1 || j % 2 == 1) {
        max_detail = std::max(max_detail, v);
      } else {
        max_coarse = std::max(max_coarse, v);
      }
    }
  }
  EXPECT_LT(max_detail, 0.1 * max_coarse);
}

TEST(DecomposerTest, DimsMismatchRejected) {
  auto hr = GridHierarchy::Create(Dims3{9, 9, 9});
  ASSERT_TRUE(hr.ok());
  Decomposer dec(hr.value());
  Array3Dd wrong(Dims3{5, 5, 5});
  EXPECT_FALSE(dec.Decompose(&wrong).ok());
  EXPECT_FALSE(dec.Recompose(&wrong).ok());
}

TEST(DecomposerTest, CorrectionImprovesCoarseApproximation) {
  // Reconstruct from only the coarse values (details zeroed): with the L2
  // correction the result should be at least as good as without.
  const Dims3 dims{33, 33, 1};
  auto hr = GridHierarchy::Create(dims);
  ASSERT_TRUE(hr.ok());
  Array3Dd orig = SmoothField(dims);

  double errs[2];
  for (int variant = 0; variant < 2; ++variant) {
    DecomposeOptions opts;
    opts.use_correction = variant == 1;
    Decomposer dec(hr.value(), opts);
    Array3Dd data = orig;
    ASSERT_TRUE(dec.Decompose(&data).ok());
    // Zero all detail positions (any odd index at the finest lattice scan
    // of each step). Equivalent: keep only the coarsest lattice values.
    const std::size_t stride = std::size_t{1} << hr.value().num_steps();
    for (std::size_t i = 0; i < dims.nx; ++i) {
      for (std::size_t j = 0; j < dims.ny; ++j) {
        if (i % stride != 0 || j % stride != 0) {
          data(i, j, 0) = 0.0;
        }
      }
    }
    ASSERT_TRUE(dec.Recompose(&data).ok());
    errs[variant] = RmsError(orig.vector(), data.vector());
  }
  EXPECT_LE(errs[1], errs[0] * 1.05);
}

TEST(LineTransformTest, CorrectionMatchesHandComputedProjection) {
  // Smallest nontrivial case, m = 3 (one detail, two coarse nodes).
  // u = [0, 1, 0]: detail d = 1 - (0+0)/2 = 1. Load vector b = (h/2) d at
  // both boundary coarse nodes = [1/2, 1/2]. Mass system
  //   (2/3) w0 + (1/3) w1 = 1/2
  //   (1/3) w0 + (2/3) w1 = 1/2        =>  w0 = w1 = 1/2.
  // So the corrected coarse values are [1/2, 1/2] -- exactly the L2
  // projection of the hat function onto the coarse space.
  std::vector<double> u{0.0, 1.0, 0.0};
  std::vector<double> scratch;
  internal::ForwardLine(u.data(), 3, /*correct=*/true, &scratch);
  EXPECT_NEAR(u[1], 1.0, 1e-15);   // detail
  EXPECT_NEAR(u[0], 0.5, 1e-12);   // corrected coarse values
  EXPECT_NEAR(u[2], 0.5, 1e-12);
}

TEST(LineTransformTest, QuadraticDataDetailIsCurvature) {
  // For u(x) = x^2 on integer nodes, the midpoint residual is exactly
  // u(p) - (u(p-1) + u(p+1))/2 = -1 at every odd p.
  std::vector<double> u(9);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = static_cast<double>(i) * static_cast<double>(i);
  }
  std::vector<double> scratch;
  internal::ForwardLine(u.data(), u.size(), /*correct=*/false, &scratch);
  for (std::size_t p = 1; p < u.size(); p += 2) {
    EXPECT_NEAR(u[p], -1.0, 1e-12) << "p=" << p;
  }
}

TEST(DecomposerTest, TransformIsLinear) {
  // Decompose(a f + b g) == a Decompose(f) + b Decompose(g).
  const Dims3 dims{17, 17, 1};
  auto hr = GridHierarchy::Create(dims);
  ASSERT_TRUE(hr.ok());
  Decomposer dec(hr.value());
  Array3Dd f = RandomField(dims, 1), g = RandomField(dims, 2);
  Array3Dd combo(dims);
  const double a = 2.5, b = -0.75;
  for (std::size_t i = 0; i < combo.size(); ++i) {
    combo.vector()[i] = a * f.vector()[i] + b * g.vector()[i];
  }
  ASSERT_TRUE(dec.Decompose(&f).ok());
  ASSERT_TRUE(dec.Decompose(&g).ok());
  ASSERT_TRUE(dec.Decompose(&combo).ok());
  for (std::size_t i = 0; i < combo.size(); ++i) {
    EXPECT_NEAR(combo.vector()[i],
                a * f.vector()[i] + b * g.vector()[i], 1e-9);
  }
}

}  // namespace
}  // namespace mgardp
