#include "dnn/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dnn/optimizer.h"
#include "util/rng.h"

namespace mgardp {
namespace dnn {
namespace {

// y = 2 x0 - x1 + 0.5, with light noise.
void MakeLinearDataset(std::size_t n, Matrix* x, Matrix* y,
                       std::uint64_t seed) {
  Rng rng(seed);
  *x = Matrix(n, 2);
  *y = Matrix(n, 1);
  for (std::size_t r = 0; r < n; ++r) {
    const double a = rng.Uniform(-1, 1);
    const double b = rng.Uniform(-1, 1);
    (*x)(r, 0) = a;
    (*x)(r, 1) = b;
    (*y)(r, 0) = 2 * a - b + 0.5 + 0.01 * rng.NextGaussian();
  }
}

TEST(TrainerTest, LossDecreasesOnLearnableProblem) {
  Matrix x, y;
  MakeLinearDataset(512, &x, &y, 1);
  Rng rng(2);
  MlpConfig c;
  c.input_dim = 2;
  c.hidden_dims = {16, 16};
  c.output_dim = 1;
  Mlp mlp(c, &rng);
  TrainConfig tc;
  tc.epochs = 60;
  tc.batch_size = 64;
  tc.learning_rate = 3e-3;
  tc.loss = "mse";
  auto report = Train(&mlp, x, y, tc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LT(report.value().final_loss, report.value().epoch_loss.front() / 10);
  EXPECT_LT(report.value().final_loss, 0.01);
}

TEST(TrainerTest, DeterministicGivenSeed) {
  Matrix x, y;
  MakeLinearDataset(128, &x, &y, 3);
  TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 32;
  tc.learning_rate = 1e-3;
  double finals[2];
  for (int run = 0; run < 2; ++run) {
    Rng rng(9);
    MlpConfig c;
    c.input_dim = 2;
    c.hidden_dims = {8};
    c.output_dim = 1;
    Mlp mlp(c, &rng);
    auto report = Train(&mlp, x, y, tc);
    ASSERT_TRUE(report.ok());
    finals[run] = report.value().final_loss;
  }
  EXPECT_EQ(finals[0], finals[1]);
}

TEST(TrainerTest, HuberTrainsComparablyToMse) {
  Matrix x, y;
  MakeLinearDataset(512, &x, &y, 4);
  // Inject a few large outliers -- Huber should still fit the bulk.
  for (std::size_t r = 0; r < y.rows(); r += 97) {
    y(r, 0) += 50.0;
  }
  Rng rng(5);
  MlpConfig c;
  c.input_dim = 2;
  c.hidden_dims = {16, 16};
  c.output_dim = 1;
  Mlp mlp(c, &rng);
  TrainConfig tc;
  tc.epochs = 80;
  tc.batch_size = 64;
  tc.learning_rate = 3e-3;
  tc.loss = "huber";
  auto report = Train(&mlp, x, y, tc);
  ASSERT_TRUE(report.ok());
  // Median-ish fit: most points predicted well despite outliers.
  Matrix pred = mlp.Forward(x);
  int good = 0;
  for (std::size_t r = 0; r < y.rows(); ++r) {
    const double clean = 2 * x(r, 0) - x(r, 1) + 0.5;
    if (std::fabs(pred(r, 0) - clean) < 0.5) {
      ++good;
    }
  }
  EXPECT_GT(good, static_cast<int>(0.8 * y.rows()));
}

TEST(TrainerTest, ValidatesInputs) {
  Rng rng(1);
  MlpConfig c;
  c.input_dim = 2;
  c.hidden_dims = {4};
  c.output_dim = 1;
  Mlp mlp(c, &rng);
  Matrix x(10, 2), y(9, 1);
  TrainConfig tc;
  EXPECT_FALSE(Train(&mlp, x, y, tc).ok());           // row mismatch
  Matrix y2(10, 2);
  EXPECT_FALSE(Train(&mlp, x, y2, tc).ok());          // target dim mismatch
  Matrix x3(10, 3), y3(10, 1);
  EXPECT_FALSE(Train(&mlp, x3, y3, tc).ok());         // feature dim mismatch
  Matrix empty_x(0, 2), empty_y(0, 1);
  // Zero-row matrices: rejected as empty dataset.
  EXPECT_FALSE(Train(&mlp, empty_x, empty_y, tc).ok());
  tc.epochs = 0;
  Matrix ok_y(10, 1);
  EXPECT_FALSE(Train(&mlp, x, ok_y, tc).ok());        // bad epochs
  Mlp uninit;
  tc.epochs = 1;
  EXPECT_FALSE(Train(&uninit, x, ok_y, tc).ok());     // uninitialized net
  EXPECT_FALSE(Train(nullptr, x, ok_y, tc).ok());
}

TEST(TrainerTest, RejectsZeroBatchSize) {
  Rng rng(1);
  MlpConfig c;
  c.input_dim = 2;
  c.hidden_dims = {4};
  c.output_dim = 1;
  Mlp mlp(c, &rng);
  Matrix x, y;
  MakeLinearDataset(16, &x, &y, 6);
  TrainConfig tc;
  tc.batch_size = 0;
  EXPECT_FALSE(Train(&mlp, x, y, tc).ok());
}

TEST(TrainerTest, ReportsOneLossPerEpoch) {
  Matrix x, y;
  MakeLinearDataset(100, &x, &y, 7);
  Rng rng(8);
  MlpConfig c;
  c.input_dim = 2;
  c.hidden_dims = {8};
  c.output_dim = 1;
  Mlp mlp(c, &rng);
  TrainConfig tc;
  tc.epochs = 7;
  tc.batch_size = 30;  // a short last batch
  tc.learning_rate = 1e-3;
  auto report = Train(&mlp, x, y, tc);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().epoch_loss.size(), 7u);
  EXPECT_EQ(report.value().final_loss, report.value().epoch_loss.back());
  for (double loss : report.value().epoch_loss) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GE(loss, 0.0);
  }
}

std::vector<double> TrainedWeights(const Matrix& x, const Matrix& y,
                                   std::uint64_t seed) {
  Rng rng(10);  // same initial weights for every seed
  MlpConfig c;
  c.input_dim = 2;
  c.hidden_dims = {8, 8};
  c.output_dim = 1;
  Mlp mlp(c, &rng);
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 16;
  tc.learning_rate = 1e-3;
  tc.seed = seed;
  Train(&mlp, x, y, tc).status().Abort("train");
  std::vector<double> weights;
  for (Matrix* p : mlp.Params()) {
    weights.insert(weights.end(), p->vector().begin(), p->vector().end());
  }
  return weights;
}

TEST(TrainerTest, SeedChoosesTheBatchOrder) {
  // The seed drives only the shuffles: the same seed reproduces every
  // weight bit, another seed visits the rows in another order.
  Matrix x, y;
  MakeLinearDataset(96, &x, &y, 11);
  const std::vector<double> a = TrainedWeights(x, y, 1);
  EXPECT_EQ(TrainedWeights(x, y, 1), a);
  EXPECT_NE(TrainedWeights(x, y, 2), a);
}

TEST(TrainerTest, FullBatchEpochIsOneAdamStep) {
  // With one batch covering every row, an epoch is one forward/backward
  // pass over the whole set and one Adam step, whatever the row order.
  Matrix x, y;
  MakeLinearDataset(40, &x, &y, 12);
  MlpConfig c;
  c.input_dim = 2;
  c.hidden_dims = {6};
  c.output_dim = 1;
  Rng init_a(13), init_b(13);
  Mlp trained(c, &init_a);
  Mlp manual(c, &init_b);
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 64;
  tc.learning_rate = 1e-2;
  tc.loss = "mse";
  auto report = Train(&trained, x, y, tc);
  ASSERT_TRUE(report.ok());

  MseLoss mse;
  Matrix pred = manual.Forward(x);
  EXPECT_NEAR(report.value().final_loss, mse.Value(pred, y), 1e-12);
  manual.ZeroGrad();
  manual.Backward(mse.Grad(pred, y));
  Adam adam(tc.learning_rate);
  adam.Step(manual.Params(), manual.Grads());
  const auto got = trained.Params();
  const auto want = manual.Params();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < got.size(); ++s) {
    for (std::size_t i = 0; i < got[s]->size(); ++i) {
      EXPECT_NEAR(got[s]->vector()[i], want[s]->vector()[i], 1e-9)
          << "slot " << s << " index " << i;
    }
  }
}

TEST(TrainerTest, EvaluateReportsLoss) {
  Rng rng(9);
  MlpConfig c;
  c.input_dim = 1;
  c.hidden_dims = {2};
  c.output_dim = 1;
  Mlp mlp(c, &rng);
  Matrix x(4, 1, 0.0), y(4, 1, 0.0);
  MseLoss mse;
  const double loss = Evaluate(&mlp, x, y, mse);
  // Untrained net on zero input predicts its bias path; loss is finite.
  EXPECT_TRUE(std::isfinite(loss));
}

}  // namespace
}  // namespace dnn
}  // namespace mgardp
