// Compression-experiment record collection (Sec. III-C step 1-2 and
// Sec. IV-A3): refactor each timestep once, run the baseline retrieval
// under a sweep of relative error bounds, and record everything the two
// models train on -- the achieved maximum error, the per-level bit-plane
// counts b_l, the per-level coefficient errors Err[l][b_l], the data
// features, and the level sketches.

#ifndef MGARDP_MODELS_TRAINING_DATA_H_
#define MGARDP_MODELS_TRAINING_DATA_H_

#include <string>
#include <vector>

#include "progressive/refactorer.h"
#include "progressive/reconstructor.h"
#include "sim/dataset.h"
#include "util/status.h"

namespace mgardp {

// One (timestep, error bound) observation.
struct RetrievalRecord {
  int timestep = 0;
  double requested_rel_error = 0.0;  // relative bound fed to the planner
  double requested_abs_error = 0.0;  // rel * data range
  double achieved_error = 0.0;       // actual max |orig - reconstructed|
  double estimated_error = 0.0;      // planner's (pessimistic) estimate
  std::size_t total_bytes = 0;       // retrieval size D
  std::vector<int> bitplanes;        // b_l per level
  std::vector<double> level_errors;  // Err[l][b_l] per level
  std::vector<double> features;      // data features F of this timestep
  std::vector<std::vector<double>> sketches;  // per-level |coef| sketch
  // True for synthetic "ladder" rows sampled at fixed prefixes rather than
  // planner outputs. They teach E-MGARD the error landscape at retrieval
  // states the greedy search passes through; D-MGARD (which learns the
  // planner's bound -> prefix mapping) ignores them.
  bool is_ladder = false;
};

// The paper's 81 relative error bounds: {1e-9, 2e-9, ..., 8e-1, 9e-1}
// (nine mantissas per decade over nine decades).
std::vector<double> PaperRelativeErrorBounds();

// A lighter sweep for tests/benches: `per_decade` mantissas over the same
// nine decades.
std::vector<double> SubsampledRelativeErrorBounds(int per_decade);

struct CollectOptions {
  std::vector<double> rel_bounds;  // defaults to PaperRelativeErrorBounds()
  RefactorOptions refactor;
  // Number of ladder depths per timestep (0 disables). Each depth d adds
  // two records: a uniform prefix (d, d, ..., d) and a coarse-biased
  // staircase prefix, covering the intermediate states of a greedy search.
  int ladder_points = 10;
};

// Runs the sweep over `timesteps` of `series` with the baseline
// TheoryEstimator planner. Reconstruction results are cached per distinct
// prefix, so bounds that map to the same plan cost one recompose.
Result<std::vector<RetrievalRecord>> CollectRecords(
    const FieldSeries& series, const std::vector<int>& timesteps,
    const CollectOptions& options = {});

}  // namespace mgardp

#endif  // MGARDP_MODELS_TRAINING_DATA_H_
