#include "dnn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mgardp {
namespace dnn {
namespace {

TEST(AdamTest, FirstStepIsLrSizedSignedStep) {
  // With bias correction, Adam's first update is ~lr * sign(grad).
  Matrix p(1, 2, {0.0, 0.0});
  Matrix g(1, 2, {0.3, -7.0});
  Adam adam(0.01);
  adam.Step({&p}, {&g});
  EXPECT_NEAR(p(0, 0), -0.01, 1e-6);
  EXPECT_NEAR(p(0, 1), 0.01, 1e-6);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Matrix x(1, 1, {-5.0});
  Matrix g(1, 1);
  Adam adam(0.05);
  for (int i = 0; i < 2000; ++i) {
    g(0, 0) = 2.0 * (x(0, 0) - 3.0);
    adam.Step({&x}, {&g});
  }
  EXPECT_NEAR(x(0, 0), 3.0, 1e-3);
}

TEST(AdamTest, ConvergesOnIllConditionedQuadratic) {
  // f(x, y) = x^2 + 100 y^2: Adam's per-coordinate scaling handles the
  // conditioning that plain SGD at the same rate struggles with.
  Matrix x(1, 2, {5.0, 5.0});
  Matrix g(1, 2);
  Adam adam(0.05);
  for (int i = 0; i < 5000; ++i) {
    g(0, 0) = 2.0 * x(0, 0);
    g(0, 1) = 200.0 * x(0, 1);
    adam.Step({&x}, {&g});
  }
  EXPECT_NEAR(x(0, 0), 0.0, 1e-2);
  EXPECT_NEAR(x(0, 1), 0.0, 1e-2);
}

TEST(AdamTest, MultipleParameterSlots) {
  Matrix a(1, 1, {1.0}), b(2, 2, 1.0);
  Matrix ga(1, 1, {1.0}), gb(2, 2, 1.0);
  Adam adam(0.01);
  adam.Step({&a, &b}, {&ga, &gb});
  EXPECT_LT(a(0, 0), 1.0);
  EXPECT_LT(b(1, 1), 1.0);
}

TEST(AdamTest, ConstantGradientStepsStayLrSized) {
  // Bias correction keeps m_hat / sqrt(v_hat) at sign(g) for a constant
  // gradient, so every step, not only the first, moves by lr.
  Matrix p(1, 2, {1.0, -1.0});
  Matrix g(1, 2, {4.0, -0.25});
  Adam adam(0.01);
  for (int i = 1; i <= 200; ++i) {
    adam.Step({&p}, {&g});
    EXPECT_NEAR(p(0, 0), 1.0 - 0.01 * i, 1e-6) << "step " << i;
    EXPECT_NEAR(p(0, 1), -1.0 + 0.01 * i, 1e-6) << "step " << i;
  }
}

TEST(AdamTest, SlotsUpdateIndependently) {
  // Moments are kept per slot and per element: stepping two slots through
  // one optimizer equals stepping each through its own.
  Matrix a(1, 2, {0.5, -2.0}), b(2, 1, {3.0, 0.0});
  Matrix a_alone = a, b_alone = b;
  Adam both(0.03), only_a(0.03), only_b(0.03);
  Matrix ga(1, 2), gb(2, 1);
  for (int i = 0; i < 25; ++i) {
    ga(0, 0) = 2.0 * a(0, 0);
    ga(0, 1) = std::sin(a(0, 1));
    gb(0, 0) = b(0, 0) - 1.0;
    gb(1, 0) = 0.1 * i;
    both.Step({&a, &b}, {&ga, &gb});

    Matrix ga_alone(1, 2, {2.0 * a_alone(0, 0), std::sin(a_alone(0, 1))});
    Matrix gb_alone(2, 1, {b_alone(0, 0) - 1.0, 0.1 * i});
    only_a.Step({&a_alone}, {&ga_alone});
    only_b.Step({&b_alone}, {&gb_alone});
  }
  EXPECT_EQ(a.vector(), a_alone.vector());
  EXPECT_EQ(b.vector(), b_alone.vector());
}

TEST(AdamTest, ZeroGradientLeavesParametersUnchanged) {
  // No decay term: a step with zero gradients moves nothing.
  Matrix p(1, 2, {2.0, -3.0});
  Matrix g(1, 2, {0.0, 0.0});
  Adam adam(0.1);
  for (int i = 0; i < 50; ++i) {
    adam.Step({&p}, {&g});
  }
  EXPECT_EQ(p(0, 0), 2.0);
  EXPECT_EQ(p(0, 1), -3.0);
}

}  // namespace
}  // namespace dnn
}  // namespace mgardp
