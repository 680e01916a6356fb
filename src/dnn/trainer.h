// Minibatch training loop with the paper's protocol: shuffled minibatches,
// Adam, fixed epoch count, deterministic seeding.

#ifndef MGARDP_DNN_TRAINER_H_
#define MGARDP_DNN_TRAINER_H_

#include <functional>
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
  // Decoupled (AdamW-style) weight decay; 0 disables. Useful when the
  // record count is far below the paper's (regularizes the per-level MLPs).
  double weight_decay = 0.0;
  std::string loss = "huber";  // "huber" | "mse" | "mae"
  std::string optimizer = "adam";  // "adam" | "sgd"
  std::uint64_t seed = 1;
  // Optional progress report every N epochs (0 = silent). Lines go to
  // `log_fn` when set, else to stderr — background trainers pass their own
  // sink so progress never interleaves with serve-bench output.
  int log_every = 0;
  std::function<void(const std::string&)> log_fn = nullptr;
  // Early stopping: hold out this fraction of rows (shuffled, seeded) as a
  // validation set (0 disables). Training stops once the validation loss
  // has not improved for `patience` epochs, and the best-validation weights
  // are restored.
  double validation_fraction = 0.0;
  int patience = 20;
};

struct TrainReport {
  std::vector<double> epoch_loss;  // mean training loss per epoch
  std::vector<double> val_loss;    // per epoch, when validation is enabled
  double final_loss = 0.0;
  // Epoch whose weights were kept (equals epochs - 1 without early stop).
  int best_epoch = 0;
  bool early_stopped = false;
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
