#include "dnn/optimizer.h"

#include <cmath>

#include "util/logging.h"

namespace mgardp {
namespace dnn {

void Adam::Step(const std::vector<Matrix*>& params,
                const std::vector<Matrix*>& grads) {
  MGARDP_CHECK_EQ(params.size(), grads.size());
  if (m_.empty()) {
    m_.resize(params.size());
    v_.resize(params.size());
    for (std::size_t s = 0; s < params.size(); ++s) {
      m_[s].assign(params[s]->size(), 0.0);
      v_[s].assign(params[s]->size(), 0.0);
    }
  }
  MGARDP_CHECK_EQ(m_.size(), params.size());
  ++step_;
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(step_));
  for (std::size_t s = 0; s < params.size(); ++s) {
    auto& p = params[s]->vector();
    const auto& g = grads[s]->vector();
    MGARDP_CHECK_EQ(p.size(), g.size());
    MGARDP_CHECK_EQ(p.size(), m_[s].size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      m_[s][i] = kBeta1 * m_[s][i] + (1.0 - kBeta1) * g[i];
      v_[s][i] = kBeta2 * v_[s][i] + (1.0 - kBeta2) * g[i] * g[i];
      const double mhat = m_[s][i] / bc1;
      const double vhat = v_[s][i] / bc2;
      p[i] -= lr_ * (mhat / (std::sqrt(vhat) + kEps));
    }
  }
}

}  // namespace dnn
}  // namespace mgardp
