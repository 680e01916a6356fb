#include "models/dmgard.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "models/features.h"
#include "util/io.h"
#include "util/rng.h"

namespace mgardp {

namespace {

// Input layout for the level-l network: F, log10(err), the level's own
// magnitude (log10 of its max |coefficient| from the sketch), then the
// chained counts b_0..b_{l-1} (normalized by the plane count to keep them
// O(1) before standardization). The level magnitude is load-bearing: the
// planner's choice is approximately b_l ~ log2(level max) - log2(err) +
// const, so providing it turns the regression into a nearly linear map
// that transfers across timesteps instead of memorizing per-timestep
// feature vectors.
std::size_t InputDim(const DMgardConfig& config, int level) {
  return static_cast<std::size_t>(kNumDataFeatures) + 3 +
         (config.chained ? static_cast<std::size_t>(level) : 0);
}

}  // namespace

std::vector<double> DMgardModel::LevelInput(
    int level, const std::vector<double>& features,
    const std::vector<std::vector<double>>& sketches,
    double target_abs_error, const std::vector<double>& chain) const {
  std::vector<double> in;
  in.reserve(InputDim(config_, level));
  in.insert(in.end(), features.begin(), features.end());
  in.push_back(Log10Safe(target_abs_error));
  const double level_max =
      (level < static_cast<int>(sketches.size()) && !sketches[level].empty())
          ? sketches[level].back()
          : 0.0;
  in.push_back(Log10Safe(level_max));
  // The composite "how many decades of precision must this level provide"
  // feature; the planner's b_l is nearly linear in it.
  in.push_back(Log10Safe(level_max) - Log10Safe(target_abs_error));
  if (config_.chained) {
    for (int l = 0; l < level; ++l) {
      in.push_back(chain[l] / static_cast<double>(config_.num_planes));
    }
  }
  return in;
}

Result<DMgardModel> DMgardModel::TrainModel(
    const std::vector<RetrievalRecord>& records, DMgardConfig config,
    std::vector<dnn::TrainReport>* reports) {
  if (records.empty()) {
    return Status::Invalid("D-MGARD: no training records");
  }
  const int L = static_cast<int>(records.front().bitplanes.size());
  for (const RetrievalRecord& r : records) {
    if (static_cast<int>(r.bitplanes.size()) != L ||
        static_cast<int>(r.features.size()) != kNumDataFeatures) {
      return Status::Invalid("D-MGARD: inconsistent record shapes");
    }
  }

  DMgardModel model;
  model.config_ = config;
  model.scalers_.resize(L);
  model.target_scalers_.resize(L);
  model.models_.resize(L);
  if (reports != nullptr) {
    reports->clear();
    reports->resize(L);
  }

  // Bounds below the conservative floor all map to the same full-fetch
  // plan with the same achieved error; keep one copy so the floor regime
  // does not dominate the training distribution.
  std::vector<const RetrievalRecord*> rows;
  {
    std::set<std::pair<int, std::vector<int>>> seen;
    for (const RetrievalRecord& rec : records) {
      if (rec.is_ladder) {
        continue;  // ladder rows are not planner outputs
      }
      if (seen.emplace(rec.timestep, rec.bitplanes).second) {
        rows.push_back(&rec);
      }
    }
  }

  if (rows.empty()) {
    return Status::Invalid("D-MGARD: no planner records (only ladder rows)");
  }

  const std::size_t n = rows.size();
  for (int level = 0; level < L; ++level) {
    const std::size_t dim = InputDim(config, level);
    dnn::Matrix x(n, dim);
    dnn::Matrix y(n, 1);
    for (std::size_t r = 0; r < n; ++r) {
      const RetrievalRecord& rec = *rows[r];
      // Chained inputs use ground-truth counts during training (Fig. 6a).
      std::vector<double> chain(rec.bitplanes.begin(), rec.bitplanes.end());
      const std::vector<double> in = model.LevelInput(
          level, rec.features, rec.sketches, rec.achieved_error, chain);
      for (std::size_t c = 0; c < dim; ++c) {
        x(r, c) = in[c];
      }
      y(r, 0) = static_cast<double>(rec.bitplanes[level]);
    }
    model.scalers_[level].Fit(x);
    MGARDP_ASSIGN_OR_RETURN(dnn::Matrix xs,
                            model.scalers_[level].Transform(x));
    model.target_scalers_[level].Fit(y);
    MGARDP_ASSIGN_OR_RETURN(dnn::Matrix ys,
                            model.target_scalers_[level].Transform(y));

    Rng rng(config.train.seed + static_cast<std::uint64_t>(level) * 101);
    model.models_[level] =
        dnn::Mlp(dnn::MlpConfig::DMgardDefault(dim, config.hidden_width),
                 &rng);
    MGARDP_ASSIGN_OR_RETURN(
        dnn::TrainReport report,
        dnn::Train(&model.models_[level], xs, ys, config.train));
    if (reports != nullptr) {
      (*reports)[level] = std::move(report);
    }
  }
  return model;
}

double DMgardModel::RoundClamp(double raw) const {
  return std::clamp(std::round(raw), 0.0,
                    static_cast<double>(config_.num_planes));
}

Result<std::vector<int>> DMgardModel::Predict(
    const std::vector<double>& features,
    const std::vector<std::vector<double>>& sketches,
    double target_abs_error) const {
  if (models_.empty()) {
    return Status::FailedPrecondition("D-MGARD: model not trained");
  }
  const int L = num_levels();
  if (static_cast<int>(features.size()) != kNumDataFeatures) {
    return Status::Invalid("D-MGARD: wrong feature count");
  }
  if (static_cast<int>(sketches.size()) < L) {
    return Status::Invalid("D-MGARD: missing level sketches");
  }
  // chain[l] holds level l's rounded count once its network has run.
  std::vector<double> chain(L, 0.0);
  for (int level = 0; level < L; ++level) {
    std::vector<double> in =
        LevelInput(level, features, sketches, target_abs_error, chain);
    const std::size_t dim = in.size();
    MGARDP_ASSIGN_OR_RETURN(
        dnn::Matrix xs,
        scalers_[level].Transform(dnn::Matrix(1, dim, std::move(in))));
    MGARDP_ASSIGN_OR_RETURN(
        const double raw,
        target_scalers_[level].InverseTransformValue(
            0, models_[level].Predict(xs)(0, 0)));
    // Chained inference feeds the *rounded* prediction forward, matching
    // how the retrieval side will use it (Fig. 6b).
    chain[level] = RoundClamp(raw);
  }
  return std::vector<int>(chain.begin(), chain.end());
}

std::string DMgardModel::Serialize() const {
  BinaryWriter w;
  w.Put<std::uint32_t>(0x444D4752);  // "DMGR"
  w.Put<std::uint64_t>(config_.hidden_width);
  w.Put<std::uint8_t>(config_.chained ? 1 : 0);
  w.Put<std::int32_t>(config_.num_planes);
  w.Put<std::int32_t>(num_levels());
  for (int l = 0; l < num_levels(); ++l) {
    scalers_[l].Serialize(&w);
    target_scalers_[l].Serialize(&w);
    models_[l].Serialize(&w);
  }
  return w.TakeBuffer();
}

Result<DMgardModel> DMgardModel::Deserialize(const std::string& in) {
  BinaryReader r(in);
  std::uint32_t magic = 0;
  MGARDP_RETURN_NOT_OK(r.Get(&magic));
  if (magic != 0x444D4752) {
    return Status::Invalid("D-MGARD: bad magic");
  }
  DMgardModel model;
  std::uint64_t width = 0;
  std::uint8_t chained = 0;
  std::int32_t num_planes = 0, levels = 0;
  MGARDP_RETURN_NOT_OK(r.Get(&width));
  MGARDP_RETURN_NOT_OK(r.Get(&chained));
  MGARDP_RETURN_NOT_OK(r.Get(&num_planes));
  MGARDP_RETURN_NOT_OK(r.Get(&levels));
  model.config_.hidden_width = width;
  model.config_.chained = chained != 0;
  model.config_.num_planes = num_planes;
  model.scalers_.resize(levels);
  model.target_scalers_.resize(levels);
  model.models_.resize(levels);
  for (int l = 0; l < levels; ++l) {
    MGARDP_RETURN_NOT_OK(model.scalers_[l].Deserialize(&r));
    MGARDP_RETURN_NOT_OK(model.target_scalers_[l].Deserialize(&r));
    MGARDP_RETURN_NOT_OK(model.models_[l].Deserialize(&r));
  }
  return model;
}

Result<std::vector<std::vector<int>>> PredictionErrors(
    const DMgardModel& model, const std::vector<RetrievalRecord>& records) {
  std::vector<std::vector<int>> errors;
  errors.reserve(records.size());
  for (const RetrievalRecord& rec : records) {
    if (rec.is_ladder) {
      continue;  // ladder rows are not planner outputs to predict
    }
    MGARDP_ASSIGN_OR_RETURN(
        std::vector<int> predicted,
        model.Predict(rec.features, rec.sketches, rec.achieved_error));
    if (predicted.size() != rec.bitplanes.size()) {
      return Status::Invalid("prediction/record level mismatch");
    }
    std::vector<int> err(predicted.size());
    for (std::size_t l = 0; l < predicted.size(); ++l) {
      err[l] = predicted[l] - rec.bitplanes[l];
    }
    errors.push_back(std::move(err));
  }
  return errors;
}

}  // namespace mgardp
