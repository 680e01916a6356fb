#include "service/retrieval_session.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "lossless/codec.h"
#include "obs/tracer.h"
#include "util/stats.h"

namespace mgardp {

std::string RetrievalSession::Refinement::ToString() const {
  std::ostringstream os;
  os << "refine to " << requested_bound << ": est " << estimated_error
     << (bound_met ? " (met" : " (MISSED") << (noop ? ", noop)" : ")");
  if (has_actual) {
    os << " actual " << actual_error
       << (actual_bound_met ? " (met)" : " (VIOLATED)");
  }
  os << " prefix";
  for (int p : prefix) {
    os << ' ' << p;
  }
  os << " | fetched " << planes_fetched << " planes / " << fetched_bytes
     << " B, cached " << planes_cached << " / " << cached_bytes
     << " B, reused " << planes_reused << " / " << reused_bytes << " B";
  if (retries > 0) {
    os << ", " << retries << " retries";
  }
  if (degraded) {
    os << " | DEGRADED after " << replans << " replans";
    for (const SkippedSegment& s : skipped) {
      os << "; skipped (level=" << s.level << ", plane=" << s.plane
         << "): " << s.reason.ToString();
    }
  }
  return os.str();
}

RetrievalSession::RetrievalSession(std::string field_id,
                                   const RefactoredField* field,
                                   StorageBackend* backend,
                                   const ErrorEstimator* estimator,
                                   SegmentCache* cache,
                                   ServiceMetrics* metrics, RetryPolicy retry)
    : field_id_(std::move(field_id)),
      field_(field),
      backend_(backend),
      estimator_(estimator),
      cache_(cache),
      metrics_(metrics),
      retry_(std::move(retry)),
      have_(field->num_levels(), 0),
      held_(field->num_levels(), 0),
      estimate_(std::numeric_limits<double>::infinity()) {}

Result<const Array3Dd*> RetrievalSession::Refine(double error_bound,
                                                 Refinement* info) {
  return Refine(error_bound, retry_, info);
}

Result<const Array3Dd*> RetrievalSession::Refine(double error_bound,
                                                 const RetryPolicy& retry,
                                                 Refinement* info) {
  if (!(error_bound > 0.0)) {
    return Status::Invalid("error_bound must be positive");
  }
  MGARDP_TRACE_SPAN("session/refine", "service");
  std::lock_guard<std::mutex> lock(mu_);

  Refinement ref;
  ref.requested_bound = error_bound;

  // Loosening (or repeating) the bound: the reconstruction in hand already
  // satisfies it — no planning, no I/O. A degraded reconstruction never
  // does; the request retries what was lost.
  if (data_.has_value() && !degraded_ && estimate_ <= error_bound) {
    ref.estimated_error = estimate_;
    ref.bound_met = true;
    ref.noop = true;
    ref.prefix = have_;
    for (std::size_t l = 0; l < have_.size(); ++l) {
      ref.planes_reused += have_[l];
    }
    ref.reused_bytes =
        MakeSizeInterpreter(*field_).TotalBytes(have_);
    if (metrics_ != nullptr) {
      metrics_->OnNoopRefinement();
    }
    if (info != nullptr) {
      *info = std::move(ref);
    }
    return &*data_;
  }

  const int L = field_->num_levels();
  const std::vector<int> held_before = held_;
  // Planes per level still believed live; a loss caps its level.
  std::vector<int> caps(L, field_->num_planes);
  // A degraded prefix is off the fault-free greedy trajectory, so plan
  // afresh from nothing: once the fault clears this lands on the prefix a
  // cold session would. Planes already in hand are reused, not refetched.
  std::vector<int> start = degraded_ ? std::vector<int>(L, 0) : have_;
  RetrievalPlan plan;
  Result<Array3Dd> data = Status::Internal("unreconstructed");
  for (;;) {
    {
      MGARDP_TRACE_SPAN("session/plan", "service");
      MGARDP_ASSIGN_OR_RETURN(plan, PlanConstrained(*field_, *estimator_,
                                                    error_bound, start, caps));
    }
    if (FetchPlanned(plan.prefix, retry, &caps, &ref)) {
      data = ReconstructFromSegments(*field_, local_, plan.prefix);
      if (data.ok() || !DropDamagedPlanes(held_before, &caps, &ref)) {
        break;
      }
    }
    // Re-plan across the surviving segments; the greedy may now spend
    // planes on other levels to compensate for the capped one.
    ++ref.replans;
    start = held_;
  }
  MGARDP_RETURN_NOT_OK(data.status());
  data_ = std::move(data).value();
  have_ = std::move(plan.prefix);
  estimate_ = plan.estimated_error;
  degraded_ = !ref.skipped.empty();
  lifetime_fetched_bytes_ += ref.fetched_bytes;

  // Planes of the new prefix that were in hand before this call are reuse.
  SizeInterpreter sizes = MakeSizeInterpreter(*field_);
  for (int l = 0; l < L; ++l) {
    const int reused = std::min(held_before[l], have_[l]);
    ref.planes_reused += reused;
    ref.reused_bytes += sizes.LevelBytes(l, reused);
  }
  ref.estimated_error = estimate_;
  ref.bound_met = estimate_ <= error_bound;
  ref.degraded = degraded_;
  ref.prefix = have_;
  if (truth_ != nullptr &&
      truth_->vector().size() == data_->vector().size()) {
    ref.has_actual = true;
    ref.actual_error = MaxAbsError(truth_->vector(), data_->vector());
    ref.actual_bound_met = ref.actual_error <= error_bound;
  }
  // Each non-noop refinement is one audited request; total_bytes reports
  // the full prefix in hand (what this accuracy costs), not just the delta.
  RetrievalPlan audited;
  audited.prefix = have_;
  audited.total_bytes = sizes.TotalBytes(have_);
  audited.estimated_error = estimate_;
  AuditRetrieval(*field_, AuditModelId(estimator_->name()), error_bound,
                 audited, truth_, &*data_, ref.degraded, auditor_);
  if (metrics_ != nullptr) {
    metrics_->OnPlanesFetched(ref.planes_fetched, ref.fetched_bytes);
    metrics_->OnPlanesReused(ref.planes_reused + ref.planes_cached,
                             ref.reused_bytes + ref.cached_bytes);
  }
  if (info != nullptr) {
    *info = std::move(ref);
  }
  return &*data_;
}

bool RetrievalSession::FetchPlanned(const std::vector<int>& prefix,
                                    const RetryPolicy& retry,
                                    std::vector<int>* caps, Refinement* ref) {
  MGARDP_TRACE_SPAN("session/fetch", "service");
  // held_ advances plane by plane, so a loss never forgets the progress
  // made before it.
  for (int l = 0; l < field_->num_levels(); ++l) {
    for (int p = held_[l]; p < prefix[l]; ++p) {
      const std::uint64_t salt = static_cast<std::uint64_t>(l) * 4096u +
                                 static_cast<std::uint64_t>(p);
      SegmentCache::Source source = SegmentCache::Source::kFetched;
      auto fetch = [&]() -> Result<std::string> {
        int retries = 0;
        auto r = retry.Run([&] { return backend_->Get(l, p); }, salt,
                           &retries);
        ref->retries += retries;
        if (retries > 0 && metrics_ != nullptr) {
          metrics_->OnRetries(retries);
        }
        return r;
      };
      Result<std::string> payload =
          cache_ != nullptr
              ? cache_->GetOrFetch({field_id_, l, p}, fetch, &source)
              : fetch();
      if (!payload.ok()) {
        // Permanent loss: the level's usable prefix ends at plane p.
        ref->skipped.push_back({l, p, payload.status()});
        (*caps)[l] = p;
        return false;
      }
      const std::size_t n = payload.value().size();
      if (source == SegmentCache::Source::kFetched) {
        ++ref->planes_fetched;
        ref->fetched_bytes += n;
      } else {
        ++ref->planes_cached;
        ref->cached_bytes += n;
      }
      local_.Put(l, p, std::move(payload).value());
      held_[l] = p + 1;
    }
  }
  return true;
}

bool RetrievalSession::DropDamagedPlanes(const std::vector<int>& from,
                                         std::vector<int>* caps,
                                         Refinement* ref) {
  MGARDP_TRACE_SPAN("session/probe", "service");
  bool dropped = false;
  for (int l = 0; l < field_->num_levels(); ++l) {
    for (int p = from[l]; p < held_[l]; ++p) {
      Result<std::string> payload = local_.Get(l, p);
      Status st = payload.status();
      if (st.ok()) {
        st = lossless::Decompress(payload.value()).status();
      }
      if (!st.ok()) {
        ref->skipped.push_back({l, p, st});
        (*caps)[l] = p;
        held_[l] = p;
        if (cache_ != nullptr) {
          cache_->Erase({field_id_, l, p});  // refetch it next time
        }
        dropped = true;
        break;
      }
    }
  }
  return dropped;
}

void RetrievalSession::set_ground_truth(const Array3Dd* truth) {
  std::lock_guard<std::mutex> lock(mu_);
  truth_ = truth;
}

void RetrievalSession::set_auditor(obs::ErrorControlAuditor* auditor) {
  std::lock_guard<std::mutex> lock(mu_);
  auditor_ = auditor;
}

std::vector<int> RetrievalSession::prefix() const {
  std::lock_guard<std::mutex> lock(mu_);
  return have_;
}

double RetrievalSession::estimated_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return estimate_;
}

std::size_t RetrievalSession::bytes_in_hand() const {
  std::lock_guard<std::mutex> lock(mu_);
  return MakeSizeInterpreter(*field_).TotalBytes(have_);
}

std::size_t RetrievalSession::lifetime_fetched_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lifetime_fetched_bytes_;
}

}  // namespace mgardp
