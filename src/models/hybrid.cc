#include "models/hybrid.h"

#include <utility>

#include "models/features.h"

namespace mgardp {

Result<RetrievalPlan> PlanHybrid(const RefactoredField& field,
                                 double error_bound,
                                 const DMgardModel& dmgard,
                                 const ErrorEstimator& estimator,
                                 RetrievalPlan* dmgard_plan) {
  if (!(error_bound > 0.0)) {
    return Status::Invalid("error_bound must be positive");
  }
  // Warm start from the one-shot D-MGARD prediction.
  MGARDP_ASSIGN_OR_RETURN(
      std::vector<int> prefix,
      dmgard.Predict(ExtractDataFeatures(field.data_summary),
                     field.level_sketches, error_bound));
  if (static_cast<int>(prefix.size()) != field.num_levels()) {
    return Status::Invalid("D-MGARD level count does not match the field");
  }
  const double est = estimator.Estimate(field, prefix);
  if (dmgard_plan != nullptr) {
    dmgard_plan->prefix = prefix;
    dmgard_plan->total_bytes = MakeSizeInterpreter(field).TotalBytes(prefix);
    dmgard_plan->estimated_error = est;
  }
  if (est > error_bound) {
    // Under-provisioned: extend greedily from the warm start.
    return Reconstructor(&estimator).PlanRefinement(field, prefix,
                                                    error_bound);
  }

  // Over-provisioned: trim the planes D-MGARD did not need.
  return TrimPlan(field, estimator, error_bound, std::move(prefix));
}

}  // namespace mgardp
