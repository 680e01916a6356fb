// Minibatch training loop with the paper's protocol: shuffled minibatches,
// Adam, fixed epoch count, deterministic seeding.

#ifndef MGARDP_DNN_TRAINER_H_
#define MGARDP_DNN_TRAINER_H_

#include <string>
#include <vector>

#include "dnn/loss.h"
#include "dnn/mlp.h"
#include "util/status.h"

namespace mgardp {
namespace dnn {

struct TrainConfig {
  int epochs = 300;          // paper: 300
  std::size_t batch_size = 256;
  double learning_rate = 5e-5;
  std::string loss = "huber";  // "huber" | "mse" | "mae"
  std::uint64_t seed = 1;
};

struct TrainReport {
  std::vector<double> epoch_loss;  // mean training loss per epoch
  double final_loss = 0.0;
};

// Trains `mlp` on (features, targets) rows. Features/targets must have the
// same row count and match the network dimensions.
Result<TrainReport> Train(Mlp* mlp, const Matrix& features,
                          const Matrix& targets, const TrainConfig& config);

// Mean loss of `mlp` on a dataset (no gradient updates).
double Evaluate(Mlp* mlp, const Matrix& features, const Matrix& targets,
                const Loss& loss);

}  // namespace dnn
}  // namespace mgardp

#endif  // MGARDP_DNN_TRAINER_H_
