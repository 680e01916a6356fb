#include "dnn/trainer.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "dnn/optimizer.h"
#include "obs/tracer.h"
#include "util/rng.h"

namespace mgardp {
namespace dnn {

Result<TrainReport> Train(Mlp* mlp, const Matrix& features,
                          const Matrix& targets, const TrainConfig& config) {
  MGARDP_TRACE_SPAN("dnn/train", "dnn");
  if (mlp == nullptr || !mlp->initialized()) {
    return Status::Invalid("trainer: network not initialized");
  }
  if (features.rows() != targets.rows()) {
    return Status::Invalid("trainer: feature/target row mismatch");
  }
  if (features.rows() == 0) {
    return Status::Invalid("trainer: empty dataset");
  }
  if (features.cols() != mlp->config().input_dim ||
      targets.cols() != mlp->config().output_dim) {
    return Status::Invalid("trainer: dataset does not match network shape");
  }
  if (config.epochs <= 0 || config.batch_size == 0) {
    return Status::Invalid("trainer: bad epochs/batch_size");
  }

  std::unique_ptr<Loss> loss = MakeLoss(config.loss);
  Adam opt(config.learning_rate);

  Rng rng(config.seed);
  const std::size_t n = features.rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Fisher-Yates shuffle with our deterministic RNG, once before training
  // and once per epoch. The first pass is part of the seeded protocol:
  // without it every epoch order, and so every weight a seed reproduces,
  // would change.
  auto shuffle = [&] {
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
  };
  shuffle();

  TrainReport report;
  report.epoch_loss.reserve(config.epochs);
  const auto params = mlp->Params();
  const auto grads = mlp->Grads();
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    shuffle();
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config.batch_size) {
      const std::size_t end = std::min(n, start + config.batch_size);
      std::vector<std::size_t> batch(order.begin() + start,
                                     order.begin() + end);
      Matrix x = features.GatherRows(batch);
      Matrix y = targets.GatherRows(batch);
      Matrix pred = mlp->Forward(x);
      epoch_loss += loss->Value(pred, y);
      mlp->ZeroGrad();
      mlp->Backward(loss->Grad(pred, y));
      opt.Step(params, grads);
      ++batches;
    }
    report.epoch_loss.push_back(epoch_loss / static_cast<double>(batches));
  }
  report.final_loss = report.epoch_loss.back();
  return report;
}

double Evaluate(Mlp* mlp, const Matrix& features, const Matrix& targets,
                const Loss& loss) {
  Matrix pred = mlp->Forward(features);
  return loss.Value(pred, targets);
}

}  // namespace dnn
}  // namespace mgardp
