#include "dnn/layers.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace mgardp {
namespace dnn {
namespace {

TEST(LinearTest, ForwardComputesAffineMap) {
  Linear layer(2, 3);
  layer.weight() = Matrix(2, 3, {1, 2, 3, 4, 5, 6});
  layer.bias() = Matrix(1, 3, {0.5, -0.5, 1.0});
  Matrix x(1, 2, {2, 1});
  Matrix y = layer.Forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 2 * 1 + 1 * 4 + 0.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 2 * 2 + 1 * 5 - 0.5);
  EXPECT_DOUBLE_EQ(y(0, 2), 2 * 3 + 1 * 6 + 1.0);
}

TEST(LinearTest, InitializationIsBoundedAndSeeded) {
  Rng rng1(9), rng2(9);
  Linear a(16, 8, &rng1), b(16, 8, &rng2);
  const double limit = std::sqrt(6.0 / 16.0);
  for (std::size_t i = 0; i < a.weight().size(); ++i) {
    EXPECT_LE(std::fabs(a.weight().vector()[i]), limit);
    EXPECT_EQ(a.weight().vector()[i], b.weight().vector()[i]);
  }
  for (double v : a.bias().vector()) {
    EXPECT_EQ(v, 0.0);
  }
}

// Numerical gradient check for a tiny Linear layer.
TEST(LinearTest, BackwardMatchesNumericalGradient) {
  Rng rng(5);
  Linear layer(3, 2, &rng);
  Matrix x(4, 3);
  for (double& v : x.vector()) {
    v = rng.Uniform(-1, 1);
  }
  // Scalar objective: sum of outputs.
  auto objective = [&]() {
    Matrix y = layer.Forward(x);
    double s = 0.0;
    for (double v : y.vector()) {
      s += v;
    }
    return s;
  };
  // Analytic gradients with dL/dy = ones.
  layer.ZeroGrad();
  Matrix y = layer.Forward(x);
  Matrix ones(y.rows(), y.cols(), 1.0);
  Matrix gx = layer.Backward(ones);

  const double eps = 1e-6;
  // Check a few weight entries.
  Matrix& w = layer.weight();
  for (std::size_t idx : {0u, 2u, 5u}) {
    const double orig = w.vector()[idx];
    w.vector()[idx] = orig + eps;
    const double up = objective();
    w.vector()[idx] = orig - eps;
    const double down = objective();
    w.vector()[idx] = orig;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(layer.Grads()[0]->vector()[idx], numeric, 1e-4);
  }
  // Check input gradient entries.
  for (std::size_t idx : {0u, 7u, 11u}) {
    const double orig = x.vector()[idx];
    x.vector()[idx] = orig + eps;
    const double up = objective();
    x.vector()[idx] = orig - eps;
    const double down = objective();
    x.vector()[idx] = orig;
    EXPECT_NEAR(gx.vector()[idx], (up - down) / (2 * eps), 1e-4);
  }
}

TEST(LinearTest, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(1);
  Linear layer(2, 2, &rng);
  Matrix x(1, 2, {1.0, 1.0});
  Matrix g(1, 2, {1.0, 1.0});
  layer.ZeroGrad();
  layer.Forward(x);
  layer.Backward(g);
  const double after_one = layer.Grads()[0]->vector()[0];
  layer.Forward(x);
  layer.Backward(g);
  EXPECT_DOUBLE_EQ(layer.Grads()[0]->vector()[0], 2 * after_one);
  layer.ZeroGrad();
  EXPECT_DOUBLE_EQ(layer.Grads()[0]->vector()[0], 0.0);
}

TEST(LeakyReluTest, ForwardPiecewise) {
  LeakyRelu relu(0.1);
  Matrix x(1, 4, {-2.0, -0.5, 0.0, 3.0});
  Matrix y = relu.Forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), -0.2);
  EXPECT_DOUBLE_EQ(y(0, 1), -0.05);
  EXPECT_DOUBLE_EQ(y(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 3), 3.0);
}

TEST(LeakyReluTest, BackwardScalesNegativeSide) {
  LeakyRelu relu(0.01);
  Matrix x(1, 3, {-1.0, 2.0, -3.0});
  relu.Forward(x);
  Matrix g(1, 3, {1.0, 1.0, 1.0});
  Matrix gx = relu.Backward(g);
  EXPECT_DOUBLE_EQ(gx(0, 0), 0.01);
  EXPECT_DOUBLE_EQ(gx(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(gx(0, 2), 0.01);
}

TEST(LeakyReluTest, ZeroSlopeIsPlainRelu) {
  LeakyRelu relu(0.0);
  Matrix x(1, 2, {-5.0, 5.0});
  Matrix y = relu.Forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 5.0);
}

}  // namespace
}  // namespace dnn
}  // namespace mgardp
