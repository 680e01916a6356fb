// Neural-network layers with explicit forward/backward passes.
//
// No autograd: each layer caches what it needs during Forward and produces
// input gradients plus parameter gradients during Backward. This is all the
// paper's models require (plain MLPs) and keeps the stack dependency-free.

#ifndef MGARDP_DNN_LAYERS_H_
#define MGARDP_DNN_LAYERS_H_

#include <vector>

#include "dnn/matrix.h"
#include "util/rng.h"

namespace mgardp {
namespace dnn {

class Layer {
 public:
  virtual ~Layer() = default;

  // x is (batch, in_features); returns (batch, out_features). The layer may
  // cache activations for the subsequent Backward.
  virtual Matrix Forward(const Matrix& x) = 0;

  // Inference-only forward: no activation caching, no state writes at all
  // — safe to call concurrently on a shared const model, which Forward is
  // not (its activation caches are written on every call).
  virtual Matrix Infer(const Matrix& x) const = 0;

  // grad_out is dLoss/dOutput; returns dLoss/dInput and accumulates
  // parameter gradients (callers zero them via ZeroGrad between steps).
  virtual Matrix Backward(const Matrix& grad_out) = 0;

  // Trainable parameters and their gradient buffers (parallel vectors).
  virtual std::vector<Matrix*> Params() { return {}; }
  virtual std::vector<Matrix*> Grads() { return {}; }

  void ZeroGrad() {
    for (Matrix* g : Grads()) {
      g->Fill(0.0);
    }
  }
};

// Fully connected layer: y = x W + b, W is (in, out), b is (1, out).
class Linear : public Layer {
 public:
  // He-uniform initialization scaled for the given fan-in.
  Linear(std::size_t in_features, std::size_t out_features, Rng* rng);
  // Uninitialized (weights zero), for deserialization.
  Linear(std::size_t in_features, std::size_t out_features);

  Matrix Forward(const Matrix& x) override;
  Matrix Infer(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  std::vector<Matrix*> Params() override { return {&weight_, &bias_}; }
  std::vector<Matrix*> Grads() override { return {&grad_weight_, &grad_bias_}; }

  std::size_t in_features() const { return weight_.rows(); }
  std::size_t out_features() const { return weight_.cols(); }
  Matrix& weight() { return weight_; }
  Matrix& bias() { return bias_; }

 private:
  Matrix weight_, bias_;
  Matrix grad_weight_, grad_bias_;
  Matrix cached_input_;
};

// Leaky rectified linear unit; slope 0 gives plain ReLU.
class LeakyRelu : public Layer {
 public:
  explicit LeakyRelu(double negative_slope = 0.01)
      : slope_(negative_slope) {}

  Matrix Forward(const Matrix& x) override;
  Matrix Infer(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;

  double slope() const { return slope_; }

 private:
  double slope_;
  Matrix cached_input_;
};

}  // namespace dnn
}  // namespace mgardp

#endif  // MGARDP_DNN_LAYERS_H_
