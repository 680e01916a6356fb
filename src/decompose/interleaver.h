// Extraction of per-level coefficient streams from a decomposed grid.
//
// After decomposition the grid holds coarse values (all indices even on the
// final lattice) and detail coefficients interleaved in place. The
// interleaver linearizes each coefficient level to a contiguous 1D array in
// a deterministic scan order so the bit-plane encoder can treat levels
// independently, and deposits decoded coefficients back for recomposition.

#ifndef MGARDP_DECOMPOSE_INTERLEAVER_H_
#define MGARDP_DECOMPOSE_INTERLEAVER_H_

#include <vector>

#include "decompose/hierarchy.h"
#include "util/array3d.h"
#include "util/status.h"

namespace mgardp {

class Interleaver {
 public:
  explicit Interleaver(GridHierarchy hierarchy)
      : hierarchy_(std::move(hierarchy)) {}

  const GridHierarchy& hierarchy() const { return hierarchy_; }

  // Returns one contiguous coefficient vector per level, level 0 first.
  std::vector<std::vector<double>> Extract(const Array3Dd& data) const;

  // Writes per-level coefficient vectors back into grid positions. Vectors
  // must have the exact per-level sizes of the hierarchy.
  Status Deposit(const std::vector<std::vector<double>>& levels,
                 Array3Dd* data) const;

 private:
  // Invokes fn(first, grid_offset, count, stride) for every row run of
  // `level`: its coefficients [first, first + count) sit at flat grid
  // positions grid_offset + c * stride, in the canonical (i, j, k) order.
  // Outer i-slabs run on the shared pool; indices never depend on it.
  template <typename Fn>
  void ForEachRunInLevel(int level, Fn&& fn) const;

  GridHierarchy hierarchy_;
};

}  // namespace mgardp

#endif  // MGARDP_DECOMPOSE_INTERLEAVER_H_
