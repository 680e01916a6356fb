// MGARD-style multilevel decomposition and recomposition.
//
// The forward transform repeatedly (a) replaces the values at odd lattice
// positions with interpolation residuals ("detail coefficients") and (b)
// applies an L2 projection correction to the remaining coarse values, axis
// by axis (tensor-product lifting). Step (b) solves the coarse-grid
// finite-element mass-matrix system with the Thomas algorithm, exactly as in
// the uniform-grid case of Ainsworth et al. (SISC 2019); it makes the coarse
// approximation the L2-optimal one instead of plain subsampling, which is
// what gives MGARD its multilevel accuracy. The transform is exactly
// invertible in the absence of quantization because the correction depends
// only on the (stored) detail coefficients.

#ifndef MGARDP_DECOMPOSE_DECOMPOSER_H_
#define MGARDP_DECOMPOSE_DECOMPOSER_H_

#include "decompose/hierarchy.h"
#include "util/array3d.h"
#include "util/status.h"

namespace mgardp {

struct DecomposeOptions {
  // Apply the L2 projection correction (true = MGARD; false = plain
  // interpolation wavelet, kept for the ablation bench).
  bool use_correction = true;
};

class Decomposer {
 public:
  Decomposer(GridHierarchy hierarchy, DecomposeOptions options = {})
      : hierarchy_(std::move(hierarchy)), options_(options) {}

  const GridHierarchy& hierarchy() const { return hierarchy_; }

  // Transforms `data` in place into multilevel coefficients. `data`'s dims
  // must match the hierarchy.
  Status Decompose(Array3Dd* data) const;

  // Inverse of Decompose.
  Status Recompose(Array3Dd* data) const;

 private:
  GridHierarchy hierarchy_;
  DecomposeOptions options_;
};

}  // namespace mgardp

#endif  // MGARDP_DECOMPOSE_DECOMPOSER_H_
