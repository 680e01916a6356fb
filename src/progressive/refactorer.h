// The compression-side pipeline (Fig. 4, left half):
// decompose -> interleave -> bit-plane encode (+ error collection)
// -> lossless compress -> segment store.

#ifndef MGARDP_PROGRESSIVE_REFACTORER_H_
#define MGARDP_PROGRESSIVE_REFACTORER_H_

#include <string>

#include "progressive/refactored_field.h"
#include "util/array3d.h"
#include "util/status.h"

namespace mgardp {

struct RefactorOptions {
  // Bit-planes per level (B). 32 matches the paper.
  int num_planes = 32;
  // Decomposition steps; -1 = auto (4 steps -> 5 coefficient levels).
  int target_steps = -1;
  // L2 projection correction on/off (ablation).
  bool use_correction = true;
  // Bins in the per-level |coefficient| quantile sketch (E-MGARD input).
  int sketch_bins = 32;
  // Lossless codec per plane: "pipeline", "rice", or "auto" to pick per
  // plane by density/entropy gates and trial size (see
  // lossless::CompressAuto). Retrieval is unaffected by the choice --
  // containers are self-describing.
  std::string codec = "auto";
};

class Refactorer {
 public:
  explicit Refactorer(RefactorOptions options = {}) : options_(options) {}

  const RefactorOptions& options() const { return options_; }

  // Refactors `data` into a RefactoredField. `data` is taken by value since
  // the transform works in place on a copy anyway.
  Result<RefactoredField> Refactor(Array3Dd data) const;

 private:
  RefactorOptions options_;
};

}  // namespace mgardp

#endif  // MGARDP_PROGRESSIVE_REFACTORER_H_
