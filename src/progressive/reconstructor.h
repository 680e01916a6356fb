// The retrieval-side pipeline (Fig. 4, right half): plan which bit-plane
// prefixes to fetch for a requested error bound (greedy accuracy-efficiency
// search driven by an ErrorEstimator), fetch + decode them, and recompose.

#ifndef MGARDP_PROGRESSIVE_RECONSTRUCTOR_H_
#define MGARDP_PROGRESSIVE_RECONSTRUCTOR_H_

#include <string>
#include <vector>

#include "obs/audit.h"
#include "progressive/error_estimator.h"
#include "progressive/refactored_field.h"
#include "storage/size_interpreter.h"
#include "util/array3d.h"
#include "util/status.h"

namespace mgardp {

// The outcome of retrieval planning.
struct RetrievalPlan {
  std::vector<int> prefix;      // planes to fetch per level
  std::size_t total_bytes = 0;  // Equation 1, post-lossless
  double estimated_error = 0.0; // estimator's value at `prefix`
};

class Reconstructor {
 public:
  // `estimator` must outlive the reconstructor.
  explicit Reconstructor(const ErrorEstimator* estimator)
      : estimator_(estimator) {}

  const ErrorEstimator& estimator() const { return *estimator_; }

  // Greedy bit-plane selection (Sec. II-B): repeatedly fetch the plane with
  // the highest accuracy efficiency -- estimated error reduction divided by
  // compressed plane size -- until the estimate satisfies `error_bound`.
  Result<RetrievalPlan> Plan(const RefactoredField& field,
                             double error_bound) const;

  // Builds a plan from an externally supplied prefix (the D-MGARD path,
  // which predicts the prefix directly and bypasses the estimator).
  Result<RetrievalPlan> PlanFromPrefix(const RefactoredField& field,
                                       std::vector<int> prefix) const;

  // Incremental refinement: plan toward a (tighter) bound starting from
  // planes already in hand. The result's prefix dominates `have`
  // element-wise, so a client that cached earlier segments only fetches
  // the difference (see DeltaBytes).
  Result<RetrievalPlan> PlanRefinement(const RefactoredField& field,
                                       const std::vector<int>& have,
                                       double error_bound) const;

  // Budget-constrained planning: fetch greedily (best estimated error drop
  // per byte) without ever exceeding `byte_budget`; the inverse of
  // Plan(bound), for clients sized by bandwidth rather than accuracy.
  // The plan's estimated_error reports where the budget landed.
  Result<RetrievalPlan> PlanWithinBudget(const RefactoredField& field,
                                         std::size_t byte_budget) const;

  // The full greedy fetch order: every prefix state visited when planning
  // toward an unreachable bound (i.e. until all planes are fetched),
  // starting from the all-zero prefix. Benches use it to ask "how many
  // bytes until the *actual* error reaches X" along the planner's own
  // order.
  std::vector<std::vector<int>> Progression(
      const RefactoredField& field) const;

  // Fetches the planned segments, decodes, and recomposes.
  Result<Array3Dd> Reconstruct(const RefactoredField& field,
                               const RetrievalPlan& plan) const;

  // Plan + Reconstruct in one call. Every Retrieve feeds one AuditRecord
  // to the configured auditor (GlobalAuditor by default); with ground
  // truth set, the record carries the actual achieved error.
  Result<Array3Dd> Retrieve(const RefactoredField& field,
                            double error_bound,
                            RetrievalPlan* plan_out = nullptr) const;

  // Audit configuration. `truth` must match the field's original dims and
  // outlive the reconstructor; nullptr (the default) audits estimate-only.
  void set_ground_truth(const Array3Dd* truth) { truth_ = truth; }
  // nullptr routes to GlobalAuditor(); pass a local auditor in tests.
  void set_auditor(obs::ErrorControlAuditor* auditor) { auditor_ = auditor; }

 private:
  const ErrorEstimator* estimator_;
  const Array3Dd* truth_ = nullptr;
  obs::ErrorControlAuditor* auditor_ = nullptr;
};

// Decode + recompose for an explicit prefix, independent of any estimator.
// Shared by Reconstructor and OracleEstimator.
Result<Array3Dd> ReconstructFromPrefix(const RefactoredField& field,
                                       const std::vector<int>& prefix);

// Same, but reading segments from `segments` instead of field.segments —
// a RetrievalSession reconstructs from the payloads it fetched while
// `field` supplies only metadata.
Result<Array3Dd> ReconstructFromSegments(const RefactoredField& field,
                                         const SegmentStore& segments,
                                         const std::vector<int>& prefix);

// Greedy planning toward `error_bound` starting from `have`, never taking
// level l beyond caps[l] planes, and without TrimPlan's post-pass (so the
// result dominates `have`). PlanRefinement is this with no caps; degraded
// retrieval caps the levels whose segments were lost, and the greedy
// compensates across the surviving levels. Both `have` and `caps` must
// have num_levels entries; pass caps[l] = num_planes for no constraint.
Result<RetrievalPlan> PlanConstrained(const RefactoredField& field,
                                      const ErrorEstimator& estimator,
                                      double error_bound,
                                      const std::vector<int>& have,
                                      const std::vector<int>& caps);

// Post-pass that drops planes a plan over-committed. Block fetches can
// overshoot the bound (a whole block is taken for its efficiency even when
// its tail was not needed), and a warm-start prefix (PlanHybrid) can carry
// planes it never needed. Starting from `prefix`, which meets
// `error_bound`, repeatedly removes the largest last plane of any level
// whose removal keeps the estimate within the bound. Guarantees per-level
// suffix minimality of the returned plan.
RetrievalPlan TrimPlan(const RefactoredField& field,
                       const ErrorEstimator& estimator, double error_bound,
                       std::vector<int> prefix);

// A SizeInterpreter over the field's compressed plane sizes.
SizeInterpreter MakeSizeInterpreter(const RefactoredField& field);

// Bytes a client must additionally fetch to go from prefix `from` to
// prefix `to` (entries of `to` must dominate `from`).
Result<std::size_t> DeltaBytes(const RefactoredField& field,
                               const std::vector<int>& from,
                               const std::vector<int>& to);

// The cheapest plan per the stored error matrices alone: greedy selection
// under the idealized estimator sum_l Err[l][b_l] (Equation 6 with C = 1 —
// no amplification slack), which is the tightest bound the matrices can
// certify. Its total_bytes is the audit layer's oracle floor for the
// overfetch ratio; real planners pay amplification constants (or model
// error) on top of it. Pure matrix arithmetic — never reconstructs.
Result<RetrievalPlan> OracleMinPlan(const RefactoredField& field,
                                    double tolerance);

// Canonical audit model id for an estimator name: the paper's baseline
// ("theory") audits as "baseline", "e-mgard" as "emgard"; anything else
// (snorm, oracle, dmgard, hybrid) passes through unchanged.
std::string AuditModelId(const std::string& estimator_name);

// Builds and records one AuditRecord for a completed retrieval: derives
// oracle bytes/prefix from OracleMinPlan at `tolerance`, and computes the
// actual max error only when both `ground_truth` and `reconstructed` are
// non-null with matching sizes (estimate-only otherwise — no O(N) work).
// Records into `auditor`, or GlobalAuditor() when null.
void AuditRetrieval(const RefactoredField& field, const std::string& model,
                    double tolerance, const RetrievalPlan& plan,
                    const Array3Dd* ground_truth,
                    const Array3Dd* reconstructed, bool degraded = false,
                    obs::ErrorControlAuditor* auditor = nullptr);

}  // namespace mgardp

#endif  // MGARDP_PROGRESSIVE_RECONSTRUCTOR_H_
