#include "progressive/refactorer.h"

#include <algorithm>
#include <mutex>

#include "decompose/decomposer.h"
#include "decompose/interleaver.h"
#include "encode/bitplane.h"
#include "lossless/codec.h"
#include "lossless/rice.h"
#include "obs/tracer.h"
#include "progressive/padding.h"
#include "util/parallel.h"

namespace mgardp {

Result<RefactoredField> Refactorer::Refactor(Array3Dd data) const {
  MGARDP_TRACE_SPAN("refactor", "progressive");
  if (options_.num_planes < 2 || options_.num_planes > 60) {
    return Status::Invalid("num_planes must be in [2, 60]");
  }
  if (options_.sketch_bins < 1) {
    return Status::Invalid("sketch_bins must be >= 1");
  }
  const std::string& codec = options_.codec;
  if (codec != "auto" && codec != lossless::CodecName(0) &&
      codec != lossless::CodecName(lossless::kRiceCodecId)) {
    return Status::Invalid("unknown lossless codec '" + codec + "'");
  }
  // Pad arbitrary extents to the next 2^k + 1 (edge replication); the
  // original extents travel in the metadata and reconstruction crops back.
  const Dims3 original_dims = data.dims();
  const Dims3 padded_dims = NextValidDims(original_dims);
  if (!(padded_dims == original_dims)) {
    MGARDP_ASSIGN_OR_RETURN(data, PadToDims(data, padded_dims));
  }
  HierarchyOptions hopts;
  hopts.target_steps = options_.target_steps;
  MGARDP_ASSIGN_OR_RETURN(GridHierarchy hierarchy,
                          GridHierarchy::Create(data.dims(), hopts));

  RefactoredField field;
  field.hierarchy = hierarchy;
  field.original_dims = original_dims;
  field.num_planes = options_.num_planes;
  field.use_correction = options_.use_correction;
  field.data_summary = Summarize(data.vector());

  DecomposeOptions dopts;
  dopts.use_correction = options_.use_correction;
  Decomposer decomposer(hierarchy, dopts);
  std::vector<std::vector<double>> levels;
  {
    MGARDP_TRACE_SPAN("refactor/decompose", "progressive");
    MGARDP_RETURN_NOT_OK(decomposer.Decompose(&data));
    Interleaver interleaver(hierarchy);
    levels = interleaver.Extract(data);
  }

  BitplaneEncoder encoder(options_.num_planes);
  const int L = hierarchy.num_levels();
  field.level_exponents.resize(L);
  field.level_errors.resize(L);
  field.plane_sizes.resize(L);
  field.level_sketches.resize(L);
  // Levels are encoded in order (the encoder parallelizes internally over
  // coefficients and planes, which balances better than the skewed level
  // sizes), collecting every plane payload; the lossless stage then runs
  // one pool task per (level, plane) pair before the serial store pass.
  // The pool stripes tasks across its participants, so each takes about
  // 1/P of every level's planes: contiguous ranges of the coarse-to-fine
  // list would hand the finest levels, nearly all the bytes, to one.
  std::vector<BitplaneSet> sets(L);
  {
    MGARDP_TRACE_SPAN("refactor/encode", "progressive");
    for (int l = 0; l < L; ++l) {
      MGARDP_ASSIGN_OR_RETURN(
          sets[l], encoder.Encode(levels[l], &field.level_errors[l]));
      field.level_exponents[l] = sets[l].exponent;
      field.level_sketches[l] = AbsQuantileSketch(
          levels[l], static_cast<std::size_t>(options_.sketch_bins));
    }
  }
  std::vector<std::size_t> first_plane(L + 1, 0);
  for (int l = 0; l < L; ++l) {
    first_plane[l + 1] = first_plane[l] + sets[l].planes.size();
  }
  std::vector<std::string> compressed(first_plane[L]);
  {
    MGARDP_TRACE_SPAN("refactor/lossless", "progressive");
    Status compress_status;
    std::mutex status_mu;
    GlobalThreadPool().Run(first_plane[L], [&](std::size_t t) {
      const std::size_t l =
          std::upper_bound(first_plane.begin(), first_plane.end(), t) -
          first_plane.begin() - 1;
      Result<std::string> blob = lossless::CompressWith(
          sets[l].planes[t - first_plane[l]], options_.codec);
      if (blob.ok()) {
        compressed[t] = std::move(blob).value();
      } else {
        std::lock_guard<std::mutex> lock(status_mu);
        compress_status = blob.status();
      }
    });
    MGARDP_RETURN_NOT_OK(compress_status);
  }
  {
    MGARDP_TRACE_SPAN("refactor/store", "storage");
    for (int l = 0; l < L; ++l) {
      field.plane_sizes[l].resize(sets[l].planes.size());
      for (int p = 0; p < static_cast<int>(sets[l].planes.size()); ++p) {
        std::string& blob = compressed[first_plane[l] + p];
        field.plane_sizes[l][p] = blob.size();
        field.segments.Put(l, p, std::move(blob));
      }
    }
  }
  return field;
}

}  // namespace mgardp
