#include "dnn/layers.h"

#include <cmath>

namespace mgardp {
namespace dnn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng* rng)
    : Linear(in_features, out_features) {
  MGARDP_CHECK(rng != nullptr);
  // He-uniform: U(-limit, limit) with limit = sqrt(6 / fan_in).
  const double limit = std::sqrt(6.0 / static_cast<double>(in_features));
  for (double& w : weight_.vector()) {
    w = rng->Uniform(-limit, limit);
  }
}

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : weight_(in_features, out_features),
      bias_(1, out_features),
      grad_weight_(in_features, out_features),
      grad_bias_(1, out_features) {}

Matrix Linear::Forward(const Matrix& x) {
  MGARDP_CHECK_EQ(x.cols(), weight_.rows());
  cached_input_ = x;
  Matrix out = x.MatMul(weight_);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) += bias_(0, c);
    }
  }
  return out;
}

Matrix Linear::Infer(const Matrix& x) const {
  MGARDP_CHECK_EQ(x.cols(), weight_.rows());
  // Fused matmul+bias matches Forward's two-pass arithmetic bit for bit;
  // no cached_input_ write, so concurrent callers never race.
  return x.MatMulAddBias(weight_, bias_);
}

Matrix Linear::Backward(const Matrix& grad_out) {
  MGARDP_CHECK_EQ(grad_out.cols(), weight_.cols());
  MGARDP_CHECK_EQ(grad_out.rows(), cached_input_.rows());
  // dW += x^T g ; db += sum over batch of g ; dx = g W^T.
  Matrix gw = cached_input_.TransposedMatMul(grad_out);
  for (std::size_t i = 0; i < gw.size(); ++i) {
    grad_weight_.vector()[i] += gw.vector()[i];
  }
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    for (std::size_t c = 0; c < grad_out.cols(); ++c) {
      grad_bias_(0, c) += grad_out(r, c);
    }
  }
  return grad_out.MatMulTransposed(weight_);
}

Matrix LeakyRelu::Forward(const Matrix& x) {
  cached_input_ = x;
  Matrix out = x;
  for (double& v : out.vector()) {
    if (v < 0.0) {
      v *= slope_;
    }
  }
  return out;
}

Matrix LeakyRelu::Infer(const Matrix& x) const {
  Matrix out = x;
  for (double& v : out.vector()) {
    if (v < 0.0) {
      v *= slope_;
    }
  }
  return out;
}

Matrix LeakyRelu::Backward(const Matrix& grad_out) {
  MGARDP_CHECK_EQ(grad_out.rows(), cached_input_.rows());
  MGARDP_CHECK_EQ(grad_out.cols(), cached_input_.cols());
  Matrix grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    if (cached_input_.vector()[i] < 0.0) {
      grad_in.vector()[i] *= slope_;
    }
  }
  return grad_in;
}

}  // namespace dnn
}  // namespace mgardp
