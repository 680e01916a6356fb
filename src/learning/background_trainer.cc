#include "learning/background_trainer.h"

#include <utility>
#include <vector>

#include "obs/tracer.h"
#include "service/service_metrics.h"

namespace mgardp {
namespace learning {

BackgroundTrainer::BackgroundTrainer(TrainingSetCollector* collector,
                                     ModelRegistry* registry,
                                     ShadowEvaluator* shadow,
                                     obs::ErrorControlAuditor* auditor,
                                     ServiceMetrics* metrics, Options options)
    : collector_(collector),
      registry_(registry),
      shadow_(shadow),
      auditor_(auditor),
      metrics_(metrics),
      options_(std::move(options)) {}

bool BackgroundTrainer::ShouldTrain() const {
  if (collector_->RowCount(options_.model_id) < options_.min_rows) {
    return false;
  }
  if (shadow_ != nullptr &&
      shadow_->state(options_.model_id) != ShadowEvaluator::State::kIdle) {
    return false;  // a candidate is already being judged
  }
  std::uint64_t baseline = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    baseline = trained_at_accepted_;
  }
  const std::uint64_t accepted = collector_->accepted(options_.model_id);
  if (options_.watermark > 0 && accepted >= baseline + options_.watermark) {
    return true;
  }
  if (options_.on_drift && auditor_ != nullptr &&
      accepted >= baseline + options_.drift_cooldown_rows) {
    const obs::ErrorControlAuditor::Snapshot snap = auditor_->snapshot();
    for (const auto& model : snap.models) {
      if (BaseModelId(model.model) == options_.model_id &&
          model.drift_alert()) {
        return true;
      }
    }
  }
  return false;
}

Result<int> BackgroundTrainer::RunOnce() {
  if (!ShouldTrain()) {
    return 0;
  }
  return TrainNow();
}

Result<int> BackgroundTrainer::TrainNow() {
  MGARDP_TRACE_SPAN("learning/train", "learning");
  const std::vector<RetrievalRecord> rows =
      collector_->Rows(options_.model_id);
  if (rows.size() < options_.min_rows) {
    return Status::FailedPrecondition(
        "background trainer: not enough rows for " + options_.model_id);
  }
  const std::uint64_t accepted_now = collector_->accepted(options_.model_id);

  std::string blob;
  const bool is_emgard =
      options_.model_id.find("emgard") != std::string::npos;
  if (is_emgard) {
    MGARDP_ASSIGN_OR_RETURN(EMgardModel model,
                            EMgardModel::TrainModel(rows, options_.emgard));
    blob = model.Serialize();
  } else {
    MGARDP_ASSIGN_OR_RETURN(DMgardModel model,
                            DMgardModel::TrainModel(rows, options_.dmgard));
    blob = model.Serialize();
  }

  MGARDP_ASSIGN_OR_RETURN(int version,
                          registry_->Publish(options_.model_id,
                                             std::move(blob)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++retrains_;
    trained_at_accepted_ = accepted_now;
  }
  if (metrics_ != nullptr) {
    metrics_->OnRetrain();
  }
  if (options_.log_fn) {
    options_.log_fn("published " + options_.model_id + " v" +
                    std::to_string(version) + " (" +
                    std::to_string(rows.size()) + " rows)");
  }
  if (shadow_ != nullptr) {
    MGARDP_RETURN_NOT_OK(shadow_->StartShadow(options_.model_id, version));
  }
  return version;
}

std::uint64_t BackgroundTrainer::retrains() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retrains_;
}

}  // namespace learning
}  // namespace mgardp
