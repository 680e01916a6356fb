// Stateful per-client retrieval sessions: the one retrieval driver that
// reads from a StorageBackend.
//
// A client that progressively tightens its error bound should pay only the
// incremental bit-plane cost, not a full re-read per request. A session
// keeps, per client:
//   * the bit-plane prefix of its current reconstruction (`prefix()`),
//   * the segment payloads already in hand (so re-reconstruction never
//     re-reads storage), and
//   * the last reconstructed field (so loosening the bound is a no-op that
//     returns the cached array).
//
// Tightening plans greedily (PlanConstrained) starting from the prefix in
// hand, so only the delta segments are fetched — through the shared
// SegmentCache when one is attached (misses fill it for every other
// session on the same field, identical concurrent fetches are single-
// flight), directly from the backend otherwise.
//
// Degradation: transient IOErrors are retried (RetryPolicy). A permanent
// failure (checksum mismatch, missing segment, retries exhausted) caps that
// level's prefix at the lost plane and re-plans across the surviving
// segments; so does a plane that fails to decompress after a decode fails
// (containers without checksums). The Refinement reports `degraded` and
// `skipped`, and its estimate is taken at the prefix actually delivered. A
// degraded session is never a no-op: the next Refine re-plans from scratch
// and retries the lost planes, so once the fault clears it lands on a cold
// session's field.
//
// Determinism: the greedy planner's fetch trajectory does not depend on the
// requested bound (the bound only decides where along it to stop), so a
// chain of refinements lands on exactly the prefix a cold session reaches
// in one step at the final bound — the reconstructed field is bit-identical
// to that one-shot retrieval while fetching strictly fewer bytes per step.
// tests/service/retrieval_session_test.cc enforces both halves.
//
// Thread-safety: Refine() serializes on an internal mutex, so one session
// may be driven from multiple threads (the scheduler does); distinct
// sessions are fully concurrent. The pointer returned by Refine() stays
// valid until the next successful non-noop Refine() on the same session.

#ifndef MGARDP_SERVICE_RETRIEVAL_SESSION_H_
#define MGARDP_SERVICE_RETRIEVAL_SESSION_H_

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "progressive/error_estimator.h"
#include "progressive/reconstructor.h"
#include "progressive/refactored_field.h"
#include "service/segment_cache.h"
#include "service/service_metrics.h"
#include "storage/storage_backend.h"
#include "util/array3d.h"
#include "util/retry.h"
#include "util/status.h"

namespace mgardp {

// One segment a refinement gave up on, and why.
struct SkippedSegment {
  int level = 0;
  int plane = 0;
  Status reason;
};

class RetrievalSession {
 public:
  // What one Refine() call did.
  struct Refinement {
    double requested_bound = 0.0;
    double estimated_error = 0.0;
    bool bound_met = false;  // estimated_error <= requested_bound (estimate!)
    bool noop = false;       // bound already satisfied; cached field returned

    // Honest accounting: bound_met above only says the *estimate* cleared
    // the bound. When the session has ground truth attached, has_actual is
    // true and actual_error/actual_bound_met report the real achieved
    // error against it.
    bool has_actual = false;
    double actual_error = 0.0;
    bool actual_bound_met = false;  // actual_error <= requested_bound

    std::vector<int> prefix;

    int planes_fetched = 0;  // read from the backend (cache misses)
    int planes_cached = 0;   // served by the shared cache (hits + shared)
    int planes_reused = 0;   // already in this session's hands
    std::size_t fetched_bytes = 0;
    std::size_t cached_bytes = 0;
    std::size_t reused_bytes = 0;

    bool degraded = false;  // some segment was permanently lost (skipped)
    std::vector<SkippedSegment> skipped;
    int retries = 0;  // transient-fault retries performed
    int replans = 0;  // times planning restarted after a loss

    std::string ToString() const;
  };

  // `field`, `backend`, `estimator` and (when non-null) `cache`, `metrics`
  // must outlive the session. `field_id` namespaces this field's segments
  // in the shared cache; sessions over the same artifact must agree on it.
  RetrievalSession(std::string field_id, const RefactoredField* field,
                   StorageBackend* backend, const ErrorEstimator* estimator,
                   SegmentCache* cache = nullptr,
                   ServiceMetrics* metrics = nullptr,
                   RetryPolicy retry = RetryPolicy());

  RetrievalSession(const RetrievalSession&) = delete;
  RetrievalSession& operator=(const RetrievalSession&) = delete;

  // Refines toward `error_bound` (absolute, max-norm semantics of the
  // session's estimator): fetches only segments not already in hand,
  // reconstructs, and returns the field. A bound already satisfied by the
  // current prefix returns the cached reconstruction without planning or
  // I/O. When the bound is unreachable even with every plane, or storage
  // lost segments it needed, the best achievable field is returned and
  // `info->bound_met` is false.
  Result<const Array3Dd*> Refine(double error_bound,
                                 Refinement* info = nullptr);

  // Same, with a per-request retry policy (the scheduler maps request
  // deadlines onto one) overriding the session default.
  Result<const Array3Dd*> Refine(double error_bound,
                                 const RetryPolicy& retry, Refinement* info);

  const std::string& field_id() const { return field_id_; }
  const RefactoredField& field() const { return *field_; }

  // Audit configuration. With ground truth attached (must match the
  // field's original size and outlive the session), every non-noop Refine
  // computes the actual achieved error, fills the Refinement's honest
  // fields, and the audit record carries it; without it refinements audit
  // estimate-only. nullptr auditor routes to GlobalAuditor().
  void set_ground_truth(const Array3Dd* truth);
  void set_auditor(obs::ErrorControlAuditor* auditor);

  // Snapshot accessors (take the session lock).
  std::vector<int> prefix() const;
  double estimated_error() const;       // +inf before the first Refine
  std::size_t bytes_in_hand() const;    // compressed bytes of prefix()
  std::size_t lifetime_fetched_bytes() const;  // backend reads, ever

 private:
  // Fetches the planes of `prefix` not yet in hand. On a permanent loss,
  // records it in `ref`, caps its level and returns false.
  bool FetchPlanned(const std::vector<int>& prefix, const RetryPolicy& retry,
                    std::vector<int>* caps, Refinement* ref);
  // After a failed decode: decompresses the planes fetched since `from`,
  // drops the first damaged plane of each level and caps the level there.
  // Returns false when no fetched plane is damaged.
  bool DropDamagedPlanes(const std::vector<int>& from, std::vector<int>* caps,
                         Refinement* ref);

  const std::string field_id_;
  const RefactoredField* field_;
  StorageBackend* backend_;
  const ErrorEstimator* estimator_;
  SegmentCache* cache_;      // may be null
  ServiceMetrics* metrics_;  // may be null
  RetryPolicy retry_;

  mutable std::mutex mu_;
  const Array3Dd* truth_ = nullptr;           // guarded by mu_
  obs::ErrorControlAuditor* auditor_ = nullptr;  // guarded by mu_
  std::vector<int> have_;          // prefix of data_
  std::vector<int> held_;          // planes in local_ per level (>= have_)
  bool degraded_ = false;          // have_ is capped around lost segments
  double estimate_;                // estimator value at have_
  SegmentStore local_;             // payloads already fetched
  std::optional<Array3Dd> data_;   // reconstruction at have_
  std::size_t lifetime_fetched_bytes_ = 0;
};

}  // namespace mgardp

#endif  // MGARDP_SERVICE_RETRIEVAL_SESSION_H_
