#include "learning/serving.h"

#include "models/dmgard.h"
#include "models/features.h"

namespace mgardp {
namespace learning {

std::string VersionAuditId(const ModelVersion& version) {
  const char* base =
      version.kind == ModelKind::kEMgard ? "emgard" : "dmgard";
  return std::string(base) + "@v" + std::to_string(version.version);
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
