// Adam, the paper's optimizer. It trains with small learning rates
// (5e-5 / 1e-5).

#ifndef MGARDP_DNN_OPTIMIZER_H_
#define MGARDP_DNN_OPTIMIZER_H_

#include <vector>

#include "dnn/matrix.h"

namespace mgardp {
namespace dnn {

class Adam {
 public:
  explicit Adam(double lr) : lr_(lr) {}

  // Applies one update step: params[i] -= f(grads[i]). The two vectors are
  // parallel and must keep the same shapes across calls (state is per-slot).
  void Step(const std::vector<Matrix*>& params,
            const std::vector<Matrix*>& grads);

 private:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;

  double lr_;
  long step_ = 0;
  std::vector<std::vector<double>> m_, v_;  // per-slot moments
};

}  // namespace dnn
}  // namespace mgardp

#endif  // MGARDP_DNN_OPTIMIZER_H_
