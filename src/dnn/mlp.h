// Multi-layer perceptron container: the network shape the paper uses for
// both D-MGARD (six hidden layers, leaky ReLU -- Fig. 6c) and the E-MGARD
// encoder (funnel 2048/512/128/8, ReLU -- Fig. 8, scaled to our input
// sizes).

#ifndef MGARDP_DNN_MLP_H_
#define MGARDP_DNN_MLP_H_

#include <memory>
#include <string>
#include <vector>

#include "dnn/layers.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/status.h"

namespace mgardp {
namespace dnn {

struct MlpConfig {
  std::size_t input_dim = 0;
  std::vector<std::size_t> hidden_dims;
  std::size_t output_dim = 1;
  // Negative-side slope for the activations; 0 = plain ReLU, 0.01 = the
  // leaky ReLU of the paper.
  double leaky_slope = 0.01;

  // The D-MGARD per-level network: six hidden layers of `width`.
  static MlpConfig DMgardDefault(std::size_t input_dim, std::size_t width);
  // The E-MGARD encoder+head: funnel hidden dims ending in the latent size,
  // then a scalar head.
  static MlpConfig EMgardDefault(std::size_t input_dim);
};

class Mlp {
 public:
  Mlp() = default;
  // Builds and initializes the network; `rng` drives weight init.
  Mlp(const MlpConfig& config, Rng* rng);

  bool initialized() const { return !layers_.empty(); }
  const MlpConfig& config() const { return config_; }

  Matrix Forward(const Matrix& x);
  // Inference-only forward over any number of rows: no activation caches,
  // no writes — bit-identical to Forward and safe to call concurrently on
  // a shared const network. Batching rows through one Predict is
  // bit-identical to row-by-row calls (every per-element accumulation order
  // is row-local).
  Matrix Predict(const Matrix& x) const;
  // Backpropagates dLoss/dOutput; parameter gradients accumulate in layers.
  void Backward(const Matrix& grad_out);
  void ZeroGrad();

  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();
  std::size_t NumParameters();

  // Weight + architecture round-trip.
  void Serialize(BinaryWriter* w) const;
  Status Deserialize(BinaryReader* r);

 private:
  void Build(Rng* rng);

  MlpConfig config_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace dnn
}  // namespace mgardp

#endif  // MGARDP_DNN_MLP_H_
