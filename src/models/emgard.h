// E-MGARD: learned per-level error mapping constants (Sec. III-D, Fig. 8).
//
// The baseline bound err <= C * sum_l Err[l][b_l] applies one conservative
// constant to every level even though the levels' error contributions
// differ by orders of magnitude (Fig. 7). E-MGARD replaces it with
// Equation 7, err <= sum_l C_l * Err[l][b_l], where each C_l is predicted
// by an encoder network from a summary of that level's coefficient
// distribution plus the retrieval state (Err[l][b_l], b_l). Training
// targets distribute each record's *actual* achieved error across its
// levels, so the learned estimate tracks reality instead of the worst case.
//
// The model plugs into the greedy retriever through
// LearnedConstantsEstimator, replacing TheoryEstimator.

#ifndef MGARDP_MODELS_EMGARD_H_
#define MGARDP_MODELS_EMGARD_H_

#include <string>
#include <vector>

#include "dnn/mlp.h"
#include "dnn/scaler.h"
#include "dnn/trainer.h"
#include "models/training_data.h"
#include "progressive/error_estimator.h"
#include "util/status.h"

namespace mgardp {

struct EMgardConfig {
  int num_planes = 32;  // clamp for b_l inputs
  // Predicted constants are clamped to [min_constant, max_constant]. The
  // constants are error amplification ratios (actual error over the sum of
  // per-level coefficient errors), an O(1) quantity; the clamp stops a
  // wild extrapolation from going negative or into theory-bound territory.
  double min_constant = 0.1;
  double max_constant = 1e2;
  // Paper: lr 1e-5, batch 64, 300 epochs. The small default batch gives
  // enough optimizer steps at reduced record counts too.
  dnn::TrainConfig train{.epochs = 300,
                         .batch_size = 16,
                         .learning_rate = 1e-5,
                         .loss = "huber",
                         .seed = 23};
};

class EMgardModel {
 public:
  EMgardModel() = default;

  // Trains one encoder network per level. Records must share level count
  // and sketch size.
  static Result<EMgardModel> TrainModel(
      const std::vector<RetrievalRecord>& records, EMgardConfig config = {},
      std::vector<dnn::TrainReport>* reports = nullptr);

  int num_levels() const { return static_cast<int>(models_.size()); }
  const EMgardConfig& config() const { return config_; }

  // Predicted mapping constant C_l for a level in a given retrieval state.
  Result<double> PredictConstant(int level,
                                 const std::vector<double>& sketch,
                                 double level_error, int bitplanes) const;

  // One retrieval state to score for a level; the sketch must outlive the
  // batch call.
  struct ConstantRequest {
    const std::vector<double>* sketch = nullptr;
    double level_error = 0.0;
    int bitplanes = 0;
  };

  // Batched constant prediction: one multi-row forward pass per call. Row
  // r is bit-identical to PredictConstant on request r alone. Thread-safe:
  // no model state is written.
  Result<std::vector<double>> PredictConstantBatch(
      int level, const std::vector<ConstantRequest>& requests) const;

  // Calibrated multiplier applied to the summed estimate. The greedy search
  // stops at the first state whose estimate meets the bound, which is
  // biased toward states the model is optimistic about (winner's curse);
  // the margin is the maximum of actual/estimated over the training rows,
  // so the bias is paid for up front instead of as overshoot.
  double safety_margin() const { return safety_margin_; }

  std::string Serialize() const;
  static Result<EMgardModel> Deserialize(const std::string& in);

 private:
  EMgardConfig config_;
  std::vector<dnn::StandardScaler> scalers_;
  // Targets (log10 C_l) are standardized so training converges from a
  // zero-centered start at any epoch budget.
  std::vector<dnn::StandardScaler> target_scalers_;
  // Inference uses the cache-free Mlp::Predict; sharing a const model
  // across concurrent sessions is safe.
  std::vector<dnn::Mlp> models_;
  double safety_margin_ = 1.0;

  std::vector<double> LevelInput(const std::vector<double>& sketch,
                                 double level_error, int bitplanes) const;
};

// ErrorEstimator implementing Equation 7 with the learned constants.
class LearnedConstantsEstimator : public ErrorEstimator {
 public:
  // `model` must outlive the estimator.
  explicit LearnedConstantsEstimator(const EMgardModel* model)
      : model_(model) {}

  // +infinity when the model cannot evaluate a level (shape mismatch
  // between the artifact and the trained model); TryEstimate carries the
  // underlying Status.
  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  Result<double> TryEstimate(const RefactoredField& field,
                             const std::vector<int>& prefix) const override;
  // One PredictConstantBatch call per level over every plane count:
  // term[l][b] = C_l(b) * Err[l][b], scale = safety_margin(). No table
  // when the model cannot score the field.
  std::optional<TermTable> Terms(const RefactoredField& field) const override;
  std::string name() const override { return "e-mgard"; }

 private:
  const EMgardModel* model_;
};

}  // namespace mgardp

#endif  // MGARDP_MODELS_EMGARD_H_
