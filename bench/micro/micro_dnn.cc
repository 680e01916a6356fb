// Microbenchmark: MLP forward/backward and one training epoch, at the
// shapes D-MGARD and E-MGARD actually use.

#include <benchmark/benchmark.h>

#include "dnn/loss.h"
#include "dnn/mlp.h"
#include "dnn/trainer.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace mgardp;
using namespace mgardp::dnn;

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.vector()) {
    v = rng.NextGaussian();
  }
  return m;
}

void BM_MlpForward(benchmark::State& state) {
  Rng rng(1);
  Mlp mlp(MlpConfig::DMgardDefault(12, static_cast<std::size_t>(
                                           state.range(0))),
          &rng);
  Matrix x = RandomMatrix(256, 12, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MlpForward)->Arg(32)->Arg(64)->Arg(128);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(3);
  Mlp mlp(MlpConfig::DMgardDefault(12, 64), &rng);
  Matrix x = RandomMatrix(256, 12, 4);
  Matrix y = RandomMatrix(256, 1, 5);
  HuberLoss loss(1.0);
  for (auto _ : state) {
    mlp.ZeroGrad();
    Matrix pred = mlp.Forward(x);
    mlp.Backward(loss.Grad(pred, y));
    benchmark::DoNotOptimize(mlp.Grads());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MlpForwardBackward);

void BM_TrainEpoch(benchmark::State& state) {
  Matrix x = RandomMatrix(1024, 12, 6);
  Matrix y = RandomMatrix(1024, 1, 7);
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(8);
    Mlp mlp(MlpConfig::DMgardDefault(12, 32), &rng);
    state.ResumeTiming();
    TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 256;
    tc.learning_rate = 5e-5;
    auto report = Train(&mlp, x, y, tc);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TrainEpoch);

// Thread-count sweep: wide forward pass at a large batch, where the
// row-parallel blocked matmuls have enough work to scale.
void BM_MlpForwardThreads(benchmark::State& state) {
  const int ambient = GlobalThreadCount();
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  Rng rng(9);
  Mlp mlp(MlpConfig::DMgardDefault(12, 128), &rng);
  Matrix x = RandomMatrix(2048, 12, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
  SetGlobalThreadCount(ambient);
}
BENCHMARK(BM_MlpForwardThreads)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_TrainEpochThreads(benchmark::State& state) {
  const int ambient = GlobalThreadCount();
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  Matrix x = RandomMatrix(2048, 12, 11);
  Matrix y = RandomMatrix(2048, 1, 12);
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(13);
    Mlp mlp(MlpConfig::DMgardDefault(12, 128), &rng);
    state.ResumeTiming();
    TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 512;
    tc.learning_rate = 5e-5;
    auto report = Train(&mlp, x, y, tc);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * 2048);
  SetGlobalThreadCount(ambient);
}
BENCHMARK(BM_TrainEpochThreads)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace
