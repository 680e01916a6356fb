#include "models/emgard.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "models/features.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mgardp {

std::vector<double> EMgardModel::LevelInput(
    const std::vector<double>& sketch, double level_error,
    int bitplanes) const {
  std::vector<double> in = LogSketch(sketch);
  in.push_back(Log10Safe(level_error));
  in.push_back(static_cast<double>(bitplanes) /
               static_cast<double>(config_.num_planes));
  return in;
}

Result<EMgardModel> EMgardModel::TrainModel(
    const std::vector<RetrievalRecord>& records, EMgardConfig config,
    std::vector<dnn::TrainReport>* reports) {
  if (records.empty()) {
    return Status::Invalid("E-MGARD: no training records");
  }
  const int L = static_cast<int>(records.front().bitplanes.size());
  const std::size_t sketch_size = records.front().sketches.empty()
                                      ? 0
                                      : records.front().sketches[0].size();
  if (sketch_size == 0) {
    return Status::Invalid("E-MGARD: records carry no level sketches");
  }
  for (const RetrievalRecord& r : records) {
    if (static_cast<int>(r.bitplanes.size()) != L ||
        static_cast<int>(r.sketches.size()) != L ||
        r.level_errors.size() != r.bitplanes.size()) {
      return Status::Invalid("E-MGARD: inconsistent record shapes");
    }
  }

  EMgardModel model;
  model.config_ = config;
  model.scalers_.resize(L);
  model.target_scalers_.resize(L);
  model.models_.resize(L);
  if (reports != nullptr) {
    reports->clear();
    reports->resize(L);
  }

  // One row per distinct (timestep, prefix): bounds below the conservative
  // floor all produce the same full-fetch record.
  std::vector<const RetrievalRecord*> rows;
  {
    std::set<std::pair<int, std::vector<int>>> seen;
    for (const RetrievalRecord& rec : records) {
      if (seen.emplace(rec.timestep, rec.bitplanes).second) {
        rows.push_back(&rec);
      }
    }
  }

  for (int level = 0; level < L; ++level) {
    // Target: the record's observed amplification ratio
    //   C = achieved_err / sum_j Err[j][b_j],
    // i.e. the error is attributed to the levels in proportion to their
    // coefficient errors (with that target, sum_l C_l Err[l][b_l] equals
    // the achieved error exactly). The ratio is an O(1) quantity -- unlike
    // a uniform attribution, which blames levels already at their
    // quantization floor and produces wild constants. The per-level
    // networks learn how the ratio deviates with the level's coefficient
    // distribution and retrieval depth.
    std::vector<std::vector<double>> inputs;
    std::vector<double> targets;
    for (const RetrievalRecord* rec_ptr : rows) {
      const RetrievalRecord& rec = *rec_ptr;
      double err_sum = 0.0;
      for (double e : rec.level_errors) {
        err_sum += e;
      }
      if (err_sum <= 0.0 || rec.level_errors[level] <= 0.0 ||
          rec.achieved_error <= 0.0) {
        continue;  // nothing to learn from a zero-error level
      }
      const double c_target = rec.achieved_error / err_sum;
      inputs.push_back(model.LevelInput(rec.sketches[level],
                                        rec.level_errors[level],
                                        rec.bitplanes[level]));
      targets.push_back(std::log10(std::clamp(c_target, config.min_constant,
                                               config.max_constant)));
    }
    if (inputs.empty()) {
      return Status::Invalid("E-MGARD: no usable rows for a level");
    }
    const std::size_t dim = inputs.front().size();
    dnn::Matrix x(inputs.size(), dim);
    dnn::Matrix y(inputs.size(), 1);
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        x(r, c) = inputs[r][c];
      }
      y(r, 0) = targets[r];
    }
    model.scalers_[level].Fit(x);
    MGARDP_ASSIGN_OR_RETURN(dnn::Matrix xs,
                            model.scalers_[level].Transform(x));
    model.target_scalers_[level].Fit(y);
    MGARDP_ASSIGN_OR_RETURN(dnn::Matrix ys,
                            model.target_scalers_[level].Transform(y));

    Rng rng(config.train.seed + static_cast<std::uint64_t>(level) * 211);
    model.models_[level] =
        dnn::Mlp(dnn::MlpConfig::EMgardDefault(dim), &rng);
    MGARDP_ASSIGN_OR_RETURN(
        dnn::TrainReport report,
        dnn::Train(&model.models_[level], xs, ys, config.train));
    if (reports != nullptr) {
      (*reports)[level] = std::move(report);
    }
  }

  // Calibrate the safety margin: the maximum of actual/estimated over the
  // (deduplicated) training rows, floored at 1. The maximum makes the
  // estimate conservative on every training row; violations can then only
  // come from genuinely out-of-distribution retrieval states.
  std::vector<double> ratios;
  for (const RetrievalRecord* rec : rows) {
    double est = 0.0;
    for (int l = 0; l < L; ++l) {
      const double level_err = rec->level_errors[l];
      if (level_err <= 0.0) {
        continue;
      }
      MGARDP_ASSIGN_OR_RETURN(
          double c, model.PredictConstant(l, rec->sketches[l], level_err,
                                          rec->bitplanes[l]));
      est += c * level_err;
    }
    if (est > 0.0 && rec->achieved_error > 0.0) {
      ratios.push_back(rec->achieved_error / est);
    }
  }
  if (!ratios.empty()) {
    model.safety_margin_ = std::max(1.0, Quantile(ratios, 1.0));
  }
  return model;
}

Result<std::vector<double>> EMgardModel::PredictConstantBatch(
    int level, const std::vector<ConstantRequest>& requests) const {
  if (models_.empty()) {
    return Status::FailedPrecondition("E-MGARD: model not trained");
  }
  if (level < 0 || level >= num_levels()) {
    return Status::OutOfRange("E-MGARD: level out of range");
  }
  const std::size_t n = requests.size();
  const std::size_t dim = scalers_[level].num_features();
  dnn::Matrix x(n, dim);
  for (std::size_t r = 0; r < n; ++r) {
    if (requests[r].sketch == nullptr) {
      return Status::Invalid("E-MGARD: batch request missing sketch");
    }
    const std::vector<double> in = LevelInput(
        *requests[r].sketch, requests[r].level_error, requests[r].bitplanes);
    if (in.size() != dim) {
      return Status::Invalid("E-MGARD: sketch size differs from training");
    }
    for (std::size_t c = 0; c < dim; ++c) {
      x(r, c) = in[c];
    }
  }
  // Every step below is row-independent, so row r's constant is the same
  // double whatever else shares the batch.
  MGARDP_ASSIGN_OR_RETURN(dnn::Matrix xs, scalers_[level].Transform(x));
  const dnn::Matrix predicted = models_[level].Predict(xs);
  std::vector<double> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    MGARDP_ASSIGN_OR_RETURN(
        const double log_c,
        target_scalers_[level].InverseTransformValue(0, predicted(r, 0)));
    out[r] = std::clamp(std::pow(10.0, log_c), config_.min_constant,
                        config_.max_constant);
  }
  return out;
}

Result<double> EMgardModel::PredictConstant(int level,
                                            const std::vector<double>& sketch,
                                            double level_error,
                                            int bitplanes) const {
  MGARDP_ASSIGN_OR_RETURN(
      std::vector<double> out,
      PredictConstantBatch(level,
                           {ConstantRequest{&sketch, level_error, bitplanes}}));
  return out.front();
}

std::string EMgardModel::Serialize() const {
  BinaryWriter w;
  w.Put<std::uint32_t>(0x454D4752);  // "EMGR"
  w.Put<std::int32_t>(config_.num_planes);
  w.Put<double>(config_.min_constant);
  w.Put<double>(config_.max_constant);
  w.Put<double>(safety_margin_);
  w.Put<std::int32_t>(num_levels());
  for (int l = 0; l < num_levels(); ++l) {
    scalers_[l].Serialize(&w);
    target_scalers_[l].Serialize(&w);
    models_[l].Serialize(&w);
  }
  return w.TakeBuffer();
}

Result<EMgardModel> EMgardModel::Deserialize(const std::string& in) {
  BinaryReader r(in);
  std::uint32_t magic = 0;
  MGARDP_RETURN_NOT_OK(r.Get(&magic));
  if (magic != 0x454D4752) {
    return Status::Invalid("E-MGARD: bad magic");
  }
  EMgardModel model;
  std::int32_t num_planes = 0, levels = 0;
  MGARDP_RETURN_NOT_OK(r.Get(&num_planes));
  MGARDP_RETURN_NOT_OK(r.Get(&model.config_.min_constant));
  MGARDP_RETURN_NOT_OK(r.Get(&model.config_.max_constant));
  MGARDP_RETURN_NOT_OK(r.Get(&model.safety_margin_));
  MGARDP_RETURN_NOT_OK(r.Get(&levels));
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

Result<double> LearnedConstantsEstimator::TryEstimate(
    const RefactoredField& field, const std::vector<int>& prefix) const {
  MGARDP_CHECK(model_ != nullptr);
  MGARDP_CHECK_EQ(prefix.size(),
                  static_cast<std::size_t>(field.num_levels()));
  double est = 0.0;
  const int L = std::min(field.num_levels(), model_->num_levels());
  for (int l = 0; l < L; ++l) {
    const auto& max_abs = field.level_errors[l].max_abs;
    const int b =
        std::clamp(prefix[l], 0, static_cast<int>(max_abs.size()) - 1);
    const double level_err = max_abs[b];
    if (level_err <= 0.0) {
      continue;
    }
    MGARDP_ASSIGN_OR_RETURN(
        double c,
        model_->PredictConstant(l, field.level_sketches[l], level_err, b));
    est += c * level_err;
  }
  return est * model_->safety_margin();
}

std::optional<TermTable> LearnedConstantsEstimator::Terms(
    const RefactoredField& field) const {
  MGARDP_CHECK(model_ != nullptr);
  TermTable table;
  table.scale = model_->safety_margin();
  table.term.resize(field.num_levels());
  for (int l = 0; l < field.num_levels(); ++l) {
    const auto& max_abs = field.level_errors[l].max_abs;
    if (max_abs.empty()) {
      return std::nullopt;
    }
    // Levels the model does not cover, and states with no error left,
    // contribute nothing -- the rows TryEstimate skips.
    table.term[l].assign(max_abs.size(), 0.0);
    if (l >= model_->num_levels()) {
      continue;
    }
    std::vector<EMgardModel::ConstantRequest> requests;
    for (int b = 0; b < static_cast<int>(max_abs.size()); ++b) {
      if (!(max_abs[b] <= 0.0)) {
        requests.push_back({&field.level_sketches[l], max_abs[b], b});
      }
    }
    if (requests.empty()) {
      continue;
    }
    Result<std::vector<double>> constants =
        model_->PredictConstantBatch(l, requests);
    if (!constants.ok()) {
      return std::nullopt;  // planners fall back to Estimate
    }
    for (std::size_t r = 0; r < requests.size(); ++r) {
      table.term[l][requests[r].bitplanes] =
          constants.value()[r] * requests[r].level_error;
    }
  }
  return table;
}

double LearnedConstantsEstimator::Estimate(
    const RefactoredField& field, const std::vector<int>& prefix) const {
  // A prefix the model cannot score is infinitely inaccurate to the
  // planner; callers that need the cause use TryEstimate.
  auto result = TryEstimate(field, prefix);
  return result.ok() ? result.value()
                     : std::numeric_limits<double>::infinity();
}

}  // namespace mgardp
