#include "learning/serving.h"

#include <utility>

#include "models/dmgard.h"
#include "models/features.h"

namespace mgardp {
namespace learning {

VersionedEstimator::VersionedEstimator(
    std::shared_ptr<const ModelVersion> version)
    : version_(std::move(version)), estimator_(version_->emgard.get()) {}

double VersionedEstimator::Estimate(const RefactoredField& field,
                                    const std::vector<int>& prefix) const {
  return estimator_.Estimate(field, prefix);
}

Result<double> VersionedEstimator::TryEstimate(
    const RefactoredField& field, const std::vector<int>& prefix) const {
  return estimator_.TryEstimate(field, prefix);
}

std::optional<TermTable> VersionedEstimator::Terms(
    const RefactoredField& field) const {
  return estimator_.Terms(field);
}

std::string VersionedEstimator::name() const {
  return "e-mgard@v" + std::to_string(version_->version);
}

std::string VersionAuditId(const ModelVersion& version) {
  const char* base =
      version.kind == ModelKind::kEMgard ? "emgard" : "dmgard";
  return std::string(base) + "@v" + std::to_string(version.version);
}

EstimatorProvider MakeRegistryEstimatorProvider(ModelRegistry* registry,
                                                const std::string& model_id) {
  ServingHandle handle = registry->Handle(model_id);
  return [handle]() -> EstimatorLease {
    std::shared_ptr<const ModelVersion> version = handle.load();
    if (version == nullptr || version->kind != ModelKind::kEMgard ||
        version->emgard == nullptr) {
      return EstimatorLease{};
    }
    EstimatorLease lease;
    lease.estimator = std::make_shared<VersionedEstimator>(version);
    lease.audit_model_id = VersionAuditId(*version);
    return lease;
  };
}

Result<RetrievalPlan> PlanWithModelVersion(const RefactoredField& field,
                                           double bound,
                                           const ModelVersion& version) {
  if (version.kind == ModelKind::kEMgard) {
    if (version.emgard == nullptr) {
      return Status::Invalid("serving: E-MGARD version has no model");
    }
    LearnedConstantsEstimator estimator(version.emgard.get());
    Reconstructor rec(&estimator);
    return rec.Plan(field, bound);
  }
  if (version.dmgard == nullptr) {
    return Status::Invalid("serving: D-MGARD version has no model");
  }
  MGARDP_ASSIGN_OR_RETURN(
      std::vector<int> prefix,
      version.dmgard->Predict(ExtractDataFeatures(field.data_summary),
                              field.level_sketches, bound));
  TheoryEstimator theory;
  Reconstructor rec(&theory);
  MGARDP_ASSIGN_OR_RETURN(RetrievalPlan plan,
                          rec.PlanFromPrefix(field, prefix));
  plan.estimated_error = bound;  // the model's implicit claim
  return plan;
}

}  // namespace learning
}  // namespace mgardp
