// Registry-backed serving adapters: the glue between the versioned
// ModelRegistry and the prediction surfaces the rest of the stack already
// speaks.
//
//   * VersionedEstimator wraps one pinned E-MGARD ModelVersion as an
//     ErrorEstimator. The wrapper owns the version's shared_ptr — holding
//     the estimator holds the epoch, so a hot swap in the registry can
//     never free weights out from under a planner mid-request.
//   * MakeRegistryEstimatorProvider turns a registry slot into the
//     EstimatorProvider a RetrievalSession consumes: each new session
//     takes one lock-free slot load, pins whatever version is serving at
//     that instant, and audits as "<model>@v<N>" so the audit layer can
//     attribute violations to the concrete version that caused them.
//   * PlanWithModelVersion plans a one-shot retrieval with any version
//     (D-MGARD prefix prediction or E-MGARD greedy search) — the shared
//     path for shadow scoring, benches, and the CLI.

#ifndef MGARDP_LEARNING_SERVING_H_
#define MGARDP_LEARNING_SERVING_H_

#include <memory>
#include <string>

#include "learning/model_registry.h"
#include "models/emgard.h"
#include "progressive/error_estimator.h"
#include "progressive/reconstructor.h"
#include "service/retrieval_session.h"

namespace mgardp {
namespace learning {

// An ErrorEstimator view of one E-MGARD ModelVersion. Immutable; safe to
// share across threads. Construction requires version->kind == kEMgard.
class VersionedEstimator : public ErrorEstimator {
 public:
  explicit VersionedEstimator(std::shared_ptr<const ModelVersion> version);

  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  Result<double> TryEstimate(const RefactoredField& field,
                             const std::vector<int>& prefix) const override;
  std::optional<TermTable> Terms(const RefactoredField& field) const override;
  // "e-mgard@v<N>".
  std::string name() const override;

  int version() const { return version_->version; }

 private:
  std::shared_ptr<const ModelVersion> version_;
  LearnedConstantsEstimator estimator_;
};

// Session wiring: returns a provider that, when a session first refines,
// loads the serving version from the registry's lock-free slot and pins it
// for the session's life. When nothing is serving yet (or the serving
// version is not an E-MGARD model), the lease is empty and the session
// falls back to its constructor estimator. The registry must outlive every
// session using the provider.
EstimatorProvider MakeRegistryEstimatorProvider(ModelRegistry* registry,
                                                const std::string& model_id);

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
