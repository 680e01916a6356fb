#include "progressive/reconstructor.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>

#include "decompose/decomposer.h"
#include "decompose/interleaver.h"
#include "encode/bitplane.h"
#include "lossless/codec.h"
#include "obs/request_trace.h"
#include "obs/tracer.h"
#include "progressive/padding.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace mgardp {

SizeInterpreter MakeSizeInterpreter(const RefactoredField& field) {
  return SizeInterpreter(field.plane_sizes);
}

Result<Array3Dd> ReconstructFromPrefix(const RefactoredField& field,
                                       const std::vector<int>& prefix) {
  return ReconstructFromSegments(field, field.segments, prefix);
}

Result<Array3Dd> ReconstructFromSegments(const RefactoredField& field,
                                         const SegmentStore& segments,
                                         const std::vector<int>& prefix) {
  const int L = field.num_levels();
  if (static_cast<int>(prefix.size()) != L) {
    return Status::Invalid("prefix size does not match level count");
  }
  BitplaneEncoder encoder(field.num_planes);
  // Fetch the compressed planes of every level serially (the segment store
  // makes no concurrency promises), then decode them losslessly, one pool
  // task per (level, plane) pair striped across the pool as in the
  // refactorer, before the per-level bit-plane decode.
  std::vector<int> plane_counts(L);
  std::vector<std::size_t> first_plane(L + 1, 0);
  for (int l = 0; l < L; ++l) {
    plane_counts[l] = std::clamp(prefix[l], 0, field.num_planes);
    first_plane[l + 1] = first_plane[l] + plane_counts[l];
  }
  std::vector<std::string> compressed(first_plane[L]);
  {
    MGARDP_TRACE_SPAN("reconstruct/fetch", "storage");
    for (int l = 0; l < L; ++l) {
      for (int p = 0; p < plane_counts[l]; ++p) {
        MGARDP_ASSIGN_OR_RETURN(compressed[first_plane[l] + p],
                                segments.Get(l, p));
      }
    }
  }
  std::vector<std::string> payloads(first_plane[L]);
  {
    MGARDP_TRACE_SPAN("reconstruct/lossless", "progressive");
    std::vector<Status> decode_status(first_plane[L]);
    GlobalThreadPool().Run(first_plane[L], [&](std::size_t t) {
      Result<std::string> payload = lossless::Decompress(compressed[t]);
      if (payload.ok()) {
        payloads[t] = std::move(payload).value();
      } else {
        decode_status[t] = payload.status();
      }
    });
    for (const Status& st : decode_status) {
      MGARDP_RETURN_NOT_OK(st);
    }
  }
  std::vector<std::vector<double>> levels(L);
  {
    MGARDP_TRACE_SPAN("reconstruct/decode", "progressive");
    for (int l = 0; l < L; ++l) {
      BitplaneSet set;
      set.num_planes = field.num_planes;
      set.exponent = field.level_exponents[l];
      set.count = field.hierarchy.LevelSize(l);
      set.planes.assign(
          std::make_move_iterator(payloads.begin() + first_plane[l]),
          std::make_move_iterator(payloads.begin() + first_plane[l + 1]));
      MGARDP_ASSIGN_OR_RETURN(levels[l], encoder.Decode(set, plane_counts[l]));
    }
  }
  MGARDP_TRACE_SPAN("reconstruct/recompose", "progressive");
  Array3Dd data(field.hierarchy.dims());
  Interleaver interleaver(field.hierarchy);
  MGARDP_RETURN_NOT_OK(interleaver.Deposit(levels, &data));
  DecomposeOptions dopts;
  dopts.use_correction = field.use_correction;
  Decomposer decomposer(field.hierarchy, dopts);
  MGARDP_RETURN_NOT_OK(decomposer.Recompose(&data));
  // Crop away any refactor-time padding.
  if (field.original_dims.size() > 0 &&
      !(field.original_dims == field.hierarchy.dims())) {
    return CropToDims(data, field.original_dims);
  }
  return data;
}

namespace {

// Scores candidate prefixes for one planning call: from the estimator's
// per-field term table when it offers one, through Estimate otherwise.
// Both give the same double, so a plan never depends on the path taken.
class PrefixScorer {
 public:
  PrefixScorer(const RefactoredField& field, const ErrorEstimator& estimator)
      : field_(field), estimator_(estimator), table_(estimator.Terms(field)) {}

  double operator()(const std::vector<int>& prefix) const {
    return table_ ? table_->Sum(prefix) : estimator_.Estimate(field_, prefix);
  }

 private:
  const RefactoredField& field_;
  const ErrorEstimator& estimator_;
  const std::optional<TermTable> table_;
};

// One round of the greedy accuracy-efficiency search with block lookahead:
// for every level, find the block of k >= 1 additional planes with the best
// error-drop per compressed byte, and fetch the best block overall.
//
// The lookahead matters for two nega-binary artifacts: (a) decoding a
// prefix is not monotone in the plane count (the first kept digit can
// overshoot a coefficient by up to 2x), and (b) a level's max error is a
// stair-step function of the plane count (a plane that does not touch the
// worst coefficient reduces nothing), which makes single-plane efficiency
// misleading on small levels. Scanning all block lengths amortizes over
// both. Level l never grows past caps[l] planes (degraded retrieval plans
// only over segments that still verify), and a block is admissible only if
// the plan's total stays within `byte_limit`. Returns false when no block
// is admissible.
bool GreedyStep(const SizeInterpreter& sizes, const PrefixScorer& score,
                const std::vector<int>& caps, std::size_t byte_limit,
                std::vector<int>* prefix, double* est) {
  const std::size_t spent = sizes.TotalBytes(*prefix);
  int best_level = -1;
  int best_count = 0;
  double best_eff = -std::numeric_limits<double>::infinity();
  double best_est = *est;
  for (int l = 0; l < static_cast<int>(prefix->size()); ++l) {
    std::vector<int> candidate = *prefix;
    double block_bytes = 0.0;
    for (int k = 1; (*prefix)[l] + k <= caps[l]; ++k) {
      candidate[l] = (*prefix)[l] + k;
      block_bytes += static_cast<double>(
          std::max<std::size_t>(sizes.PlaneSize(l, candidate[l] - 1), 1));
      if (spent + static_cast<std::size_t>(block_bytes) > byte_limit) {
        break;  // this and all longer blocks exceed the limit
      }
      const double cand_est = score(candidate);
      const double eff = (*est - cand_est) / block_bytes;
      if (eff > best_eff) {
        best_eff = eff;
        best_level = l;
        best_count = k;
        best_est = cand_est;
      }
    }
  }
  if (best_level < 0) {
    return false;
  }
  (*prefix)[best_level] += best_count;
  *est = best_est;
  return true;
}

// TrimPlan's loop, scoring through an existing scorer.
void Trim(const SizeInterpreter& sizes, const PrefixScorer& score,
          double error_bound, std::vector<int>* prefix, double* est) {
  bool trimmed = true;
  while (trimmed) {
    trimmed = false;
    int best_level = -1;
    std::size_t best_bytes = 0;
    double best_est = *est;
    for (int l = 0; l < static_cast<int>(prefix->size()); ++l) {
      if ((*prefix)[l] <= 0) {
        continue;
      }
      std::vector<int> candidate = *prefix;
      --candidate[l];
      const double cand_est = score(candidate);
      if (cand_est > error_bound) {
        continue;
      }
      const std::size_t bytes = sizes.PlaneSize(l, candidate[l]);
      if (best_level < 0 || bytes > best_bytes) {
        best_level = l;
        best_bytes = bytes;
        best_est = cand_est;
      }
    }
    if (best_level >= 0) {
      --(*prefix)[best_level];
      *est = best_est;
      trimmed = true;
    }
  }
}

constexpr std::size_t kNoByteLimit = std::numeric_limits<std::size_t>::max();
// A bound no estimate meets: plan until no block is admissible.
constexpr double kNoBound = -std::numeric_limits<double>::infinity();

// The greedy planning loop behind every planner: from `prefix` (within
// `caps`), take GreedySteps while the estimate is above `error_bound` and
// some block is admissible. `trim` runs Trim once the bound is met;
// `visited`, when non-null, receives every prefix state, start included.
RetrievalPlan GreedyPlan(const RefactoredField& field,
                         const ErrorEstimator& estimator, double error_bound,
                         std::vector<int> prefix, const std::vector<int>& caps,
                         std::size_t byte_limit = kNoByteLimit,
                         bool trim = false,
                         std::vector<std::vector<int>>* visited = nullptr) {
  SizeInterpreter sizes = MakeSizeInterpreter(field);
  const PrefixScorer score(field, estimator);
  double est = score(prefix);
  do {
    if (visited != nullptr) {
      visited->push_back(prefix);
    }
  } while (est > error_bound &&
           GreedyStep(sizes, score, caps, byte_limit, &prefix, &est));
  if (trim && est <= error_bound) {
    Trim(sizes, score, error_bound, &prefix, &est);
  }
  RetrievalPlan plan;
  plan.total_bytes = sizes.TotalBytes(prefix);
  plan.prefix = std::move(prefix);
  plan.estimated_error = est;
  return plan;
}

std::vector<int> Zeros(const RefactoredField& field) {
  return std::vector<int>(field.num_levels(), 0);
}

std::vector<int> NoCaps(const RefactoredField& field) {
  return std::vector<int>(field.num_levels(), field.num_planes);
}

}  // namespace

Result<RetrievalPlan> Reconstructor::Plan(const RefactoredField& field,
                                          double error_bound) const {
  if (!(error_bound > 0.0)) {
    return Status::Invalid("error_bound must be positive");
  }
  MGARDP_TRACE_SPAN("retrieve/plan", "progressive");
  return GreedyPlan(field, *estimator_, error_bound, Zeros(field),
                    NoCaps(field), kNoByteLimit, /*trim=*/true);
}

std::vector<std::vector<int>> Reconstructor::Progression(
    const RefactoredField& field) const {
  std::vector<std::vector<int>> states;
  GreedyPlan(field, *estimator_, kNoBound, Zeros(field), NoCaps(field),
             kNoByteLimit, /*trim=*/false, &states);
  return states;
}

Result<RetrievalPlan> Reconstructor::PlanRefinement(
    const RefactoredField& field, const std::vector<int>& have,
    double error_bound) const {
  return PlanConstrained(field, *estimator_, error_bound, have,
                         NoCaps(field));
}

Result<RetrievalPlan> PlanConstrained(const RefactoredField& field,
                                      const ErrorEstimator& estimator,
                                      double error_bound,
                                      const std::vector<int>& have,
                                      const std::vector<int>& caps) {
  if (!(error_bound > 0.0)) {
    return Status::Invalid("error_bound must be positive");
  }
  const int L = field.num_levels();
  if (static_cast<int>(have.size()) != L ||
      static_cast<int>(caps.size()) != L) {
    return Status::Invalid("have/caps sizes do not match level count");
  }
  MGARDP_TRACE_SPAN("retrieve/plan", "progressive");
  std::vector<int> limits(L);
  std::vector<int> start(L);
  for (int l = 0; l < L; ++l) {
    limits[l] = std::clamp(caps[l], 0, field.num_planes);
    start[l] = std::clamp(have[l], 0, limits[l]);
  }
  return GreedyPlan(field, estimator, error_bound, std::move(start), limits);
}

RetrievalPlan TrimPlan(const RefactoredField& field,
                       const ErrorEstimator& estimator, double error_bound,
                       std::vector<int> prefix) {
  SizeInterpreter sizes = MakeSizeInterpreter(field);
  const PrefixScorer score(field, estimator);
  double est = score(prefix);
  Trim(sizes, score, error_bound, &prefix, &est);
  RetrievalPlan plan;
  plan.total_bytes = sizes.TotalBytes(prefix);
  plan.prefix = std::move(prefix);
  plan.estimated_error = est;
  return plan;
}

Result<RetrievalPlan> Reconstructor::PlanWithinBudget(
    const RefactoredField& field, std::size_t byte_budget) const {
  RetrievalPlan plan = GreedyPlan(field, *estimator_, kNoBound, Zeros(field),
                                  NoCaps(field), byte_budget);
  MGARDP_DCHECK_LE(plan.total_bytes, byte_budget);
  return plan;
}

Result<std::size_t> DeltaBytes(const RefactoredField& field,
                               const std::vector<int>& from,
                               const std::vector<int>& to) {
  if (from.size() != to.size() ||
      static_cast<int>(to.size()) != field.num_levels()) {
    return Status::Invalid("prefix sizes do not match level count");
  }
  SizeInterpreter sizes = MakeSizeInterpreter(field);
  std::size_t delta = 0;
  for (int l = 0; l < field.num_levels(); ++l) {
    if (to[l] < from[l]) {
      return Status::Invalid("refined prefix does not dominate the old one");
    }
    delta += sizes.LevelBytes(l, to[l]) - sizes.LevelBytes(l, from[l]);
  }
  return delta;
}

Result<RetrievalPlan> Reconstructor::PlanFromPrefix(
    const RefactoredField& field, std::vector<int> prefix) const {
  const int L = field.num_levels();
  if (static_cast<int>(prefix.size()) != L) {
    return Status::Invalid("prefix size does not match level count");
  }
  for (int& p : prefix) {
    p = std::clamp(p, 0, field.num_planes);
  }
  RetrievalPlan plan;
  plan.prefix = std::move(prefix);
  plan.total_bytes = MakeSizeInterpreter(field).TotalBytes(plan.prefix);
  plan.estimated_error = estimator_->Estimate(field, plan.prefix);
  return plan;
}

Result<Array3Dd> Reconstructor::Reconstruct(const RefactoredField& field,
                                            const RetrievalPlan& plan) const {
  return ReconstructFromPrefix(field, plan.prefix);
}

Result<Array3Dd> Reconstructor::Retrieve(const RefactoredField& field,
                                         double error_bound,
                                         RetrievalPlan* plan_out) const {
  MGARDP_ASSIGN_OR_RETURN(RetrievalPlan plan, Plan(field, error_bound));
  if (plan_out != nullptr) {
    *plan_out = plan;
  }
  MGARDP_ASSIGN_OR_RETURN(Array3Dd data, Reconstruct(field, plan));
  AuditRetrieval(field, AuditModelId(estimator_->name()), error_bound, plan,
                 truth_, &data, /*degraded=*/false, auditor_);
  return data;
}

namespace {

// The matrices' own tightest bound: err <= sum_l Err[l][b_l] with no
// amplification constant. Not safe as a *planner* estimator for real
// retrieval (it ignores recomposition amplification) — it exists to define
// the oracle byte floor the audit layer normalizes against.
class IdealMatrixEstimator : public ErrorEstimator {
 public:
  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override {
    MGARDP_CHECK_EQ(prefix.size(),
                    static_cast<std::size_t>(field.num_levels()));
    double est = 0.0;
    for (int l = 0; l < field.num_levels(); ++l) {
      const auto& max_abs = field.level_errors[l].max_abs;
      const int b = std::clamp(prefix[l], 0,
                               static_cast<int>(max_abs.size()) - 1);
      est += max_abs[b];
    }
    return est;
  }
  std::string name() const override { return "ideal-matrix"; }
};

}  // namespace

Result<RetrievalPlan> OracleMinPlan(const RefactoredField& field,
                                    double tolerance) {
  if (!(tolerance > 0.0)) {
    return Status::Invalid("tolerance must be positive");
  }
  return GreedyPlan(field, IdealMatrixEstimator(), tolerance, Zeros(field),
                    NoCaps(field), kNoByteLimit, /*trim=*/true);
}

std::string AuditModelId(const std::string& estimator_name) {
  if (estimator_name == "theory") {
    return "baseline";
  }
  if (estimator_name == "e-mgard") {
    return "emgard";
  }
  return estimator_name;
}

void AuditRetrieval(const RefactoredField& field, const std::string& model,
                    double tolerance, const RetrievalPlan& plan,
                    const Array3Dd* ground_truth,
                    const Array3Dd* reconstructed, bool degraded,
                    obs::ErrorControlAuditor* auditor) {
  obs::ErrorControlAuditor& target =
      (auditor != nullptr ? *auditor : obs::GlobalAuditor());
  obs::AuditRecord record;
  record.model = model;
  // Joins this audit record to the serving layer's flight recorder: when
  // the retrieval ran under a traced request, a bound violation names the
  // exact lane to pull up.
  record.trace_id = obs::ScopedRequestContext::CurrentTraceId();
  record.requested_tolerance = tolerance;
  record.predicted_error = plan.estimated_error;
  record.degraded = degraded;
  record.bytes_fetched = plan.total_bytes;
  record.predicted_prefix = plan.prefix;
  if (target.wants_examples()) {
    // A training-set collector is listening: carry what it needs to turn
    // this request into a RetrievalRecord without re-touching field data.
    record.summary = field.data_summary;
    record.sketches = field.level_sketches;
    record.level_errors.resize(field.num_levels());
    for (int l = 0; l < field.num_levels(); ++l) {
      const auto& max_abs = field.level_errors[l].max_abs;
      const int b =
          std::clamp(l < static_cast<int>(plan.prefix.size())
                         ? plan.prefix[l]
                         : 0,
                     0, static_cast<int>(max_abs.size()) - 1);
      record.level_errors[l] = max_abs[b];
    }
  }
  if (auto oracle = OracleMinPlan(field, tolerance); oracle.ok()) {
    record.oracle_bytes = oracle.value().total_bytes;
    record.oracle_prefix = std::move(oracle.value().prefix);
  }
  if (ground_truth != nullptr && reconstructed != nullptr &&
      ground_truth->vector().size() == reconstructed->vector().size()) {
    record.actual_error =
        MaxAbsError(ground_truth->vector(), reconstructed->vector());
  }
  target.Record(record);
}

}  // namespace mgardp
