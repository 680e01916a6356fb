#include "pipeline.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "decompose/decomposer.h"
#include "decompose/interleaver.h"
#include "encode/bitplane.h"
#include "lossless/codec.h"
#include "progressive/padding.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace perfbench {

using mgardp::Array3Dd;
using mgardp::Result;
using mgardp::Status;

Result<mgardp::RefactoredField> TracedRefactor(
    Array3Dd data, std::vector<std::vector<double>>* levels_out) {
  const mgardp::RefactorOptions options;
  const mgardp::Dims3 original_dims = data.dims();
  const mgardp::Dims3 padded_dims = mgardp::NextValidDims(original_dims);
  if (!(padded_dims == original_dims)) {
    MGARDP_ASSIGN_OR_RETURN(data, mgardp::PadToDims(data, padded_dims));
  }
  mgardp::HierarchyOptions hopts;
  hopts.target_steps = options.target_steps;
  MGARDP_ASSIGN_OR_RETURN(mgardp::GridHierarchy hierarchy,
                          mgardp::GridHierarchy::Create(data.dims(), hopts));

  mgardp::RefactoredField field;
  field.hierarchy = hierarchy;
  field.original_dims = original_dims;
  field.num_planes = options.num_planes;
  field.use_correction = options.use_correction;
  {
    ScopedSpan span("util.summarize", static_cast<double>(data.size()));
    field.data_summary = mgardp::Summarize(data.vector());
  }

  mgardp::DecomposeOptions dopts;
  dopts.use_correction = options.use_correction;
  std::vector<std::vector<double>> levels;
  {
    ScopedSpan span("decompose.fwd", static_cast<double>(data.size()));
    MGARDP_RETURN_NOT_OK(
        mgardp::Decomposer(hierarchy, dopts).Decompose(&data));
    levels = mgardp::Interleaver(hierarchy).Extract(data);
  }

  mgardp::BitplaneEncoder encoder(options.num_planes);
  const int L = hierarchy.num_levels();
  field.level_exponents.resize(L);
  field.level_errors.resize(L);
  field.plane_sizes.resize(L);
  field.level_sketches.resize(L);
  std::vector<mgardp::BitplaneSet> sets(L);
  for (int l = 0; l < L; ++l) {
    {
      ScopedSpan span("encode.encode", static_cast<double>(levels[l].size()));
      MGARDP_ASSIGN_OR_RETURN(
          sets[l], encoder.Encode(levels[l], &field.level_errors[l]));
    }
    field.level_exponents[l] = sets[l].exponent;
    ScopedSpan span("util.sketch", static_cast<double>(levels[l].size()));
    field.level_sketches[l] = mgardp::AbsQuantileSketch(
        levels[l], static_cast<std::size_t>(options.sketch_bins));
  }
  std::vector<std::size_t> first_plane(L + 1, 0);
  for (int l = 0; l < L; ++l) {
    first_plane[l + 1] = first_plane[l] + sets[l].planes.size();
  }
  std::vector<std::string> compressed(first_plane[L]);
  {
    ScopedSpan span("lossless.compress");
    Status compress_status;
    std::mutex status_mu;
    mgardp::ParallelFor(
        0, first_plane[L], 1, [&](std::size_t lo, std::size_t hi) {
          int l = 0;
          for (std::size_t t = lo; t < hi; ++t) {
            while (t >= first_plane[l + 1]) {
              ++l;
            }
            Result<std::string> blob = mgardp::lossless::CompressWith(
                sets[l].planes[t - first_plane[l]], options.codec);
            if (blob.ok()) {
              compressed[t] = std::move(blob).value();
            } else {
              std::lock_guard<std::mutex> lock(status_mu);
              compress_status = blob.status();
            }
          }
        });
    MGARDP_RETURN_NOT_OK(compress_status);
    for (int l = 0; l < L; ++l) {
      span.add_units(static_cast<double>(sets[l].planes.size() *
                                         sets[l].PlaneBytes()));
    }
    for (const std::string& blob : compressed) {
      span.add_units2(static_cast<double>(blob.size()));
    }
  }
  {
    ScopedSpan span("storage.put");
    for (int l = 0; l < L; ++l) {
      field.plane_sizes[l].resize(sets[l].planes.size());
      for (int p = 0; p < static_cast<int>(sets[l].planes.size()); ++p) {
        std::string& blob = compressed[first_plane[l] + p];
        span.add_units(static_cast<double>(blob.size()));
        field.plane_sizes[l][p] = blob.size();
        field.segments.Put(l, p, std::move(blob));
      }
    }
  }
  if (levels_out != nullptr) {
    *levels_out = std::move(levels);
  }
  return field;
}

void ProbeSlice(const std::vector<std::vector<double>>& levels) {
  mgardp::BitplaneEncoder encoder(mgardp::RefactorOptions().num_planes);
  for (const std::vector<double>& coefs : levels) {
    ScopedSpan span("encode.slice", static_cast<double>(coefs.size()));
    encoder.Encode(coefs, nullptr).status().Abort("slice probe");
  }
}

namespace {

// ReconstructFromSegments, fetching through the decorated `backend`.
Result<Array3Dd> TracedReconstruct(const mgardp::RefactoredField& field,
                                   TimedBackend* backend,
                                   const std::vector<int>& prefix) {
  const int L = field.num_levels();
  if (static_cast<int>(prefix.size()) != L) {
    return Status::Invalid("prefix size does not match level count");
  }
  mgardp::BitplaneEncoder encoder(field.num_planes);
  std::vector<int> plane_counts(L);
  std::vector<std::size_t> first_plane(L + 1, 0);
  for (int l = 0; l < L; ++l) {
    plane_counts[l] = std::clamp(prefix[l], 0, field.num_planes);
    first_plane[l + 1] = first_plane[l] + plane_counts[l];
  }
  std::vector<std::string> compressed(first_plane[L]);
  for (int l = 0; l < L; ++l) {
    for (int p = 0; p < plane_counts[l]; ++p) {
      MGARDP_ASSIGN_OR_RETURN(compressed[first_plane[l] + p],
                              backend->Get(l, p));
    }
  }
  std::vector<std::string> payloads(first_plane[L]);
  {
    ScopedSpan span("lossless.decompress");
    std::vector<Status> decode_status(first_plane[L]);
    mgardp::ParallelFor(
        0, first_plane[L], 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            Result<std::string> payload =
                mgardp::lossless::Decompress(compressed[t]);
            if (payload.ok()) {
              payloads[t] = std::move(payload).value();
            } else {
              decode_status[t] = payload.status();
            }
          }
        });
    for (const Status& st : decode_status) {
      MGARDP_RETURN_NOT_OK(st);
    }
    for (std::size_t t = 0; t < payloads.size(); ++t) {
      span.add_units(static_cast<double>(compressed[t].size()));
      span.add_units2(static_cast<double>(payloads[t].size()));
    }
  }
  std::vector<std::vector<double>> levels(L);
  {
    ScopedSpan span("encode.decode",
                    static_cast<double>(field.hierarchy.TotalSize()));
    for (int l = 0; l < L; ++l) {
      mgardp::BitplaneSet set;
      set.num_planes = field.num_planes;
      set.exponent = field.level_exponents[l];
      set.count = field.hierarchy.LevelSize(l);
      set.planes.assign(payloads.begin() + first_plane[l],
                        payloads.begin() + first_plane[l + 1]);
      MGARDP_ASSIGN_OR_RETURN(levels[l], encoder.Decode(set, plane_counts[l]));
    }
  }
  Array3Dd data(field.hierarchy.dims());
  {
    ScopedSpan span("decompose.inv",
                    static_cast<double>(field.hierarchy.TotalSize()));
    MGARDP_RETURN_NOT_OK(
        mgardp::Interleaver(field.hierarchy).Deposit(levels, &data));
    mgardp::DecomposeOptions dopts;
    dopts.use_correction = field.use_correction;
    MGARDP_RETURN_NOT_OK(
        mgardp::Decomposer(field.hierarchy, dopts).Recompose(&data));
  }
  if (field.original_dims.size() > 0 &&
      !(field.original_dims == field.hierarchy.dims())) {
    return mgardp::CropToDims(data, field.original_dims);
  }
  return data;
}

}  // namespace

Result<Array3Dd> TracedRetrieve(const mgardp::RefactoredField& field,
                                const TimedEstimator& estimator,
                                double error_bound,
                                mgardp::RetrievalPlan* plan_out) {
  mgardp::Reconstructor rec(&estimator);
  Result<mgardp::RetrievalPlan> planned = Status::Internal("unplanned");
  {
    ScopedSpan span("progressive.plan");
    estimator.Take();
    const double start = NowUs();
    planned = rec.Plan(field, error_bound);
    const CallTotals calls = estimator.Take();
    RecordAggregate("models.estimate", CurrentOp(), span.id(), start,
                    calls.calls, calls.us);
  }
  MGARDP_ASSIGN_OR_RETURN(mgardp::RetrievalPlan plan, std::move(planned));
  mgardp::MemoryBackend store(&field.segments);
  TimedBackend backend(&store);
  MGARDP_ASSIGN_OR_RETURN(Array3Dd data,
                          TracedReconstruct(field, &backend, plan.prefix));
  {
    ScopedSpan span("progressive.audit");
    mgardp::AuditRetrieval(field, mgardp::AuditModelId(estimator.name()),
                           error_bound, plan, nullptr, &data);
  }
  if (plan_out != nullptr) {
    *plan_out = std::move(plan);
  }
  return data;
}

bool SameField(const mgardp::RefactoredField& a,
               const mgardp::RefactoredField& b) {
  if (a.SerializeMetadata() != b.SerializeMetadata() ||
      a.segments.Keys() != b.segments.Keys()) {
    return false;
  }
  for (const auto& [level, plane] : a.segments.Keys()) {
    Result<std::string> x = a.segments.Get(level, plane);
    Result<std::string> y = b.segments.Get(level, plane);
    if (!x.ok() || !y.ok() || x.value() != y.value()) {
      return false;
    }
  }
  return true;
}

bool SameArray(const Array3Dd& a, const Array3Dd& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.vector().data(), b.vector().data(),
                     a.size() * sizeof(double)) == 0;
}

}  // namespace perfbench
