#include "dnn/mlp.h"

#include "obs/tracer.h"

namespace mgardp {
namespace dnn {

MlpConfig MlpConfig::DMgardDefault(std::size_t input_dim, std::size_t width) {
  MlpConfig c;
  c.input_dim = input_dim;
  c.hidden_dims.assign(6, width);  // six fully connected hidden layers
  c.output_dim = 1;                // one bit-plane count per level model
  c.leaky_slope = 0.01;
  return c;
}

MlpConfig MlpConfig::EMgardDefault(std::size_t input_dim) {
  MlpConfig c;
  c.input_dim = input_dim;
  // The paper's encoder funnels 2048 -> 512 -> 128 -> 8 for 512^3 inputs;
  // we scale the funnel to our sketch-sized inputs but keep the 8-wide
  // latent bottleneck, then a scalar head predicts log C_l.
  c.hidden_dims = {4 * input_dim, input_dim, 32, 8};
  c.output_dim = 1;
  c.leaky_slope = 0.0;  // plain ReLU per Fig. 8
  return c;
}

Mlp::Mlp(const MlpConfig& config, Rng* rng) : config_(config) {
  MGARDP_CHECK_GT(config_.input_dim, 0u);
  MGARDP_CHECK_GT(config_.output_dim, 0u);
  Build(rng);
}

void Mlp::Build(Rng* rng) {
  layers_.clear();
  std::size_t in = config_.input_dim;
  for (std::size_t h : config_.hidden_dims) {
    if (rng != nullptr) {
      layers_.push_back(std::make_unique<Linear>(in, h, rng));
    } else {
      layers_.push_back(std::make_unique<Linear>(in, h));
    }
    layers_.push_back(std::make_unique<LeakyRelu>(config_.leaky_slope));
    in = h;
  }
  if (rng != nullptr) {
    layers_.push_back(std::make_unique<Linear>(in, config_.output_dim, rng));
  } else {
    layers_.push_back(std::make_unique<Linear>(in, config_.output_dim));
  }
}

Matrix Mlp::Forward(const Matrix& x) {
  MGARDP_TRACE_SPAN("dnn/forward", "dnn");
  MGARDP_CHECK(initialized());
  // The first layer consumes `x` directly: the old `Matrix h = x;` warmup
  // paid one full input copy per call on the inference hot path.
  Matrix h = layers_.front()->Forward(x);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
  }
  return h;
}

Matrix Mlp::Predict(const Matrix& x) const {
  MGARDP_TRACE_SPAN("dnn/predict", "dnn");
  MGARDP_CHECK(initialized());
  Matrix h = layers_.front()->Infer(x);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    h = layers_[i]->Infer(h);
  }
  return h;
}

void Mlp::Backward(const Matrix& grad_out) {
  MGARDP_CHECK(initialized());
  Matrix g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
}

void Mlp::ZeroGrad() {
  for (auto& layer : layers_) {
    layer->ZeroGrad();
  }
}

std::vector<Matrix*> Mlp::Params() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* p : layer->Params()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<Matrix*> Mlp::Grads() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* g : layer->Grads()) {
      out.push_back(g);
    }
  }
  return out;
}

std::size_t Mlp::NumParameters() {
  std::size_t n = 0;
  for (Matrix* p : Params()) {
    n += p->size();
  }
  return n;
}

void Mlp::Serialize(BinaryWriter* w) const {
  w->Put<std::uint64_t>(config_.input_dim);
  std::vector<std::uint64_t> hidden(config_.hidden_dims.begin(),
                                    config_.hidden_dims.end());
  w->PutVector(hidden);
  w->Put<std::uint64_t>(config_.output_dim);
  w->Put<double>(config_.leaky_slope);
  // A retired dropout rate: always written as 0 and ignored on load (it
  // never applied at inference), so the blob layout stays unchanged.
  w->Put<double>(0.0);
  // Weights, in layer order.
  for (const auto& layer : layers_) {
    for (Matrix* p : const_cast<Layer&>(*layer).Params()) {
      w->PutVector(p->vector());
    }
  }
}

Status Mlp::Deserialize(BinaryReader* r) {
  std::uint64_t input_dim = 0, output_dim = 0;
  std::vector<std::uint64_t> hidden;
  double slope = 0.0;
  MGARDP_RETURN_NOT_OK(r->Get(&input_dim));
  MGARDP_RETURN_NOT_OK(r->GetVector(&hidden));
  MGARDP_RETURN_NOT_OK(r->Get(&output_dim));
  MGARDP_RETURN_NOT_OK(r->Get(&slope));
  double retired_dropout = 0.0;
  MGARDP_RETURN_NOT_OK(r->Get(&retired_dropout));
  config_.input_dim = input_dim;
  config_.hidden_dims.assign(hidden.begin(), hidden.end());
  config_.output_dim = output_dim;
  config_.leaky_slope = slope;
  if (config_.input_dim == 0 || config_.output_dim == 0) {
    return Status::Invalid("mlp: bad dimensions in serialized form");
  }
  Build(nullptr);
  for (auto& layer : layers_) {
    for (Matrix* p : layer->Params()) {
      std::vector<double> values;
      MGARDP_RETURN_NOT_OK(r->GetVector(&values));
      if (values.size() != p->size()) {
        return Status::Invalid("mlp: weight blob size mismatch");
      }
      p->vector() = std::move(values);
    }
  }
  return Status::OK();
}

}  // namespace dnn
}  // namespace mgardp
