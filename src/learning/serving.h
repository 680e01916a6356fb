// Registry-backed serving adapters: the glue between the versioned
// ModelRegistry and the planners. PlanWithModelVersion plans a one-shot
// retrieval with any version (D-MGARD prefix prediction or E-MGARD greedy
// search) — the shared path for shadow scoring, benches, and the CLI — and
// VersionAuditId names the concrete version in audit records.

#ifndef MGARDP_LEARNING_SERVING_H_
#define MGARDP_LEARNING_SERVING_H_

#include <string>

#include "learning/model_registry.h"
#include "progressive/reconstructor.h"

namespace mgardp {
namespace learning {

// Plans a cold retrieval of `field` at `bound` with a specific version:
// D-MGARD versions predict the bit-plane prefix directly (estimated_error
// reports the bound, the model's implicit claim, matching the CLI's
// convention); E-MGARD versions run the greedy planner under the learned
// estimator. Used for shadow scoring and the retrain bench.
Result<RetrievalPlan> PlanWithModelVersion(const RefactoredField& field,
                                           double bound,
                                           const ModelVersion& version);

// The audit id for a version: "<base>@v<N>" with the estimator-style base
// ("e-mgard" normalizes to "emgard") so BaseModelId round-trips to the
// registry key.
std::string VersionAuditId(const ModelVersion& version);

}  // namespace learning
}  // namespace mgardp

#endif  // MGARDP_LEARNING_SERVING_H_
