#include "dnn/mlp.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dnn/loss.h"

namespace mgardp {
namespace dnn {
namespace {

TEST(MlpConfigTest, DMgardShape) {
  MlpConfig c = MlpConfig::DMgardDefault(9, 64);
  EXPECT_EQ(c.input_dim, 9u);
  EXPECT_EQ(c.hidden_dims, std::vector<std::size_t>(6, 64));
  EXPECT_EQ(c.output_dim, 1u);
  EXPECT_DOUBLE_EQ(c.leaky_slope, 0.01);
}

TEST(MlpConfigTest, EMgardShapeFunnelsTo8) {
  MlpConfig c = MlpConfig::EMgardDefault(34);
  EXPECT_EQ(c.input_dim, 34u);
  ASSERT_GE(c.hidden_dims.size(), 2u);
  EXPECT_EQ(c.hidden_dims.back(), 8u);  // latent bottleneck of Fig. 8
  EXPECT_DOUBLE_EQ(c.leaky_slope, 0.0);
}

TEST(MlpTest, ForwardShape) {
  Rng rng(2);
  Mlp mlp(MlpConfig::DMgardDefault(5, 16), &rng);
  Matrix x(7, 5, 0.3);
  Matrix y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 7u);
  EXPECT_EQ(y.cols(), 1u);
}

TEST(MlpTest, DeterministicInit) {
  Rng rng1(3), rng2(3);
  Mlp a(MlpConfig::DMgardDefault(4, 8), &rng1);
  Mlp b(MlpConfig::DMgardDefault(4, 8), &rng2);
  Matrix x(2, 4, 0.5);
  Matrix ya = a.Forward(x), yb = b.Forward(x);
  EXPECT_EQ(ya(0, 0), yb(0, 0));
}

TEST(MlpTest, ParameterCount) {
  Rng rng(4);
  MlpConfig c;
  c.input_dim = 3;
  c.hidden_dims = {5};
  c.output_dim = 2;
  Mlp mlp(c, &rng);
  // (3*5 + 5) + (5*2 + 2) = 20 + 12 = 32.
  EXPECT_EQ(mlp.NumParameters(), 32u);
}

TEST(MlpTest, FullBackwardMatchesNumericalGradient) {
  Rng rng(6);
  MlpConfig c;
  c.input_dim = 3;
  c.hidden_dims = {4, 4};
  c.output_dim = 2;
  c.leaky_slope = 0.01;
  Mlp mlp(c, &rng);
  Matrix x(5, 3);
  Matrix target(5, 2);
  for (double& v : x.vector()) {
    v = rng.Uniform(-1, 1);
  }
  for (double& v : target.vector()) {
    v = rng.Uniform(-1, 1);
  }
  MseLoss loss;

  mlp.ZeroGrad();
  Matrix pred = mlp.Forward(x);
  mlp.Backward(loss.Grad(pred, target));

  auto params = mlp.Params();
  auto grads = mlp.Grads();
  const double eps = 1e-6;
  // Spot-check one entry of every parameter matrix.
  for (std::size_t s = 0; s < params.size(); ++s) {
    const std::size_t idx = params[s]->size() / 2;
    const double orig = params[s]->vector()[idx];
    params[s]->vector()[idx] = orig + eps;
    const double up = loss.Value(mlp.Forward(x), target);
    params[s]->vector()[idx] = orig - eps;
    const double down = loss.Value(mlp.Forward(x), target);
    params[s]->vector()[idx] = orig;
    EXPECT_NEAR(grads[s]->vector()[idx], (up - down) / (2 * eps), 1e-5)
        << "param slot " << s;
  }
}

TEST(MlpTest, SerializationRoundTrip) {
  Rng rng(7);
  Mlp mlp(MlpConfig::DMgardDefault(6, 12), &rng);
  Matrix x(3, 6, 0.7);
  Matrix before = mlp.Forward(x);

  BinaryWriter w;
  mlp.Serialize(&w);
  BinaryReader r(w.buffer());
  Mlp restored;
  ASSERT_TRUE(restored.Deserialize(&r).ok());
  Matrix after = restored.Forward(x);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.vector()[i], after.vector()[i]);
  }
  EXPECT_EQ(restored.config().hidden_dims, mlp.config().hidden_dims);
}

TEST(MlpTest, DeserializeRejectsGarbage) {
  // BinaryReader points into its buffer, so the string must outlive it.
  const std::string garbage = "not a model";
  BinaryReader r(garbage);
  Mlp mlp;
  EXPECT_FALSE(mlp.Deserialize(&r).ok());
}

// The const inference path must be bit-identical to Forward, and
// row-batched Predict must equal row-by-row Predict exactly — every
// per-element accumulation is row-local.
TEST(MlpTest, PredictMatchesEvalForwardAndBatchesExactly) {
  Rng rng(13);
  Mlp mlp(MlpConfig::EMgardDefault(10), &rng);

  Rng data_rng(29);
  Matrix x(9, 10);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.vector()[i] = data_rng.NextGaussian();
  }

  Matrix predicted = mlp.Predict(x);
  Matrix forwarded = mlp.Forward(x);
  ASSERT_EQ(predicted.rows(), forwarded.rows());
  ASSERT_EQ(predicted.cols(), forwarded.cols());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    EXPECT_EQ(predicted.vector()[i], forwarded.vector()[i]);
  }

  for (std::size_t r = 0; r < x.rows(); ++r) {
    Matrix row(1, x.cols());
    for (std::size_t c = 0; c < x.cols(); ++c) {
      row(0, c) = x(r, c);
    }
    Matrix one = mlp.Predict(row);
    ASSERT_EQ(one.cols(), predicted.cols());
    for (std::size_t c = 0; c < one.cols(); ++c) {
      EXPECT_EQ(one(0, c), predicted(r, c)) << "row " << r;
    }
  }
}

// Predict writes nothing, so threads sharing one const network get the
// serial answer.
TEST(MlpTest, ConcurrentPredictOnSharedNetworkMatchesSerial) {
  Rng rng(17);
  const Mlp mlp(MlpConfig::DMgardDefault(5, 16), &rng);
  Rng data_rng(31);
  Matrix x(33, 5);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.vector()[i] = data_rng.NextGaussian();
  }
  const std::vector<double> serial = mlp.Predict(x).vector();
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        got[t] = mlp.Predict(x).vector();
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace dnn
}  // namespace mgardp
