// D-MGARD: chained multi-output regression (CMOR) prediction of per-level
// bit-plane counts (Sec. III-C, Fig. 6).
//
// One MLP per coefficient level. Level l's inputs are the data features F,
// the log of the target achieved error, and -- this is the chaining that
// exploits the strong inter-level correlation of Fig. 5a -- the bit-plane
// counts of levels 0..l-1 (ground truth during training, predictions during
// inference). Each MLP has six hidden layers with leaky ReLU and trains
// under the Huber loss with delta = 1 (Equation 5).

#ifndef MGARDP_MODELS_DMGARD_H_
#define MGARDP_MODELS_DMGARD_H_

#include <string>
#include <vector>

#include "dnn/mlp.h"
#include "dnn/scaler.h"
#include "dnn/trainer.h"
#include "models/training_data.h"
#include "util/status.h"

namespace mgardp {

struct DMgardConfig {
  // Width of each of the six hidden layers (the paper does not state it).
  std::size_t hidden_width = 32;
  // true = CMOR (paper design); false = independent per-level MLPs
  // (ablation baseline from Sec. III-C's discussion of plain MLPs).
  bool chained = true;
  // Bit-planes per level, used to clamp predictions.
  int num_planes = 32;
  dnn::TrainConfig train{.epochs = 300,
                         .batch_size = 256,
                         .learning_rate = 5e-5,
                         .loss = "huber",
                         .seed = 11};
};

class DMgardModel {
 public:
  DMgardModel() = default;

  // Trains the per-level chain on compression-experiment records. All
  // records must share the same level count.
  static Result<DMgardModel> TrainModel(
      const std::vector<RetrievalRecord>& records, DMgardConfig config = {},
      std::vector<dnn::TrainReport>* reports = nullptr);

  int num_levels() const { return static_cast<int>(models_.size()); }
  const DMgardConfig& config() const { return config_; }

  // Sequential chained inference: returns the rounded, clamped bit-plane
  // count per level for a requested achieved error. `sketches` are the
  // per-level |coefficient| quantile sketches from the refactored field's
  // metadata (each level's network receives its own level's magnitude,
  // which is what makes the error -> plane-count mapping generalize across
  // timesteps).
  Result<std::vector<int>> Predict(
      const std::vector<double>& features,
      const std::vector<std::vector<double>>& sketches,
      double target_abs_error) const;

  // Weight round-trip.
  std::string Serialize() const;
  static Result<DMgardModel> Deserialize(const std::string& in);

 private:
  DMgardConfig config_;
  // One (scaler, network) pair per level; scalers standardize the level's
  // input columns. Targets are standardized as well (target_scalers_) so
  // the network trains from a zero-centered start regardless of the epoch
  // budget; predictions are mapped back before rounding.
  std::vector<dnn::StandardScaler> scalers_;
  std::vector<dnn::StandardScaler> target_scalers_;
  // Inference goes through the cache-free Mlp::Predict, so the networks
  // stay const-correct and safe to share across concurrent sessions.
  std::vector<dnn::Mlp> models_;

  // The one rounding/clamping rule: raw output -> plane count, used for
  // both the chain feed-forward and the Predict result.
  double RoundClamp(double raw) const;

  std::vector<double> LevelInput(int level,
                                 const std::vector<double>& features,
                                 const std::vector<std::vector<double>>& sketches,
                                 double target_abs_error,
                                 const std::vector<double>& chain) const;
};

// Per-record, per-level signed prediction error (predicted - actual) of the
// model on `records` -- the quantity plotted in Figs. 9-11.
Result<std::vector<std::vector<int>>> PredictionErrors(
    const DMgardModel& model, const std::vector<RetrievalRecord>& records);

}  // namespace mgardp

#endif  // MGARDP_MODELS_DMGARD_H_
