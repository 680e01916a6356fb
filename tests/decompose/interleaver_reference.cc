#include "interleaver_reference.h"

#include <algorithm>

#include "util/logging.h"
#include "util/parallel.h"

namespace mgardp {
namespace internal {

namespace {

// Lattice extent of an axis of physical extent n at stride s.
std::size_t LatticeExtent(std::size_t n, std::size_t s) {
  return n == 1 ? 1 : (n - 1) / s + 1;
}

// Enumerates the nodes of one level in the canonical (i, j, k)-ascending
// order, invoking fn(index_within_level, i, j, k). The outer i-slabs hold
// computable node counts, so slabs are assigned fixed output offsets and
// fan out across the thread pool; `index_within_level` is identical to the
// position a serial sweep would produce, which keeps the coefficient stream
// layout independent of the thread count.
template <typename Fn>
void ForEachNodeInLevel(const GridHierarchy& hierarchy, int level, Fn&& fn) {
  const Dims3& dims = hierarchy.dims();
  const int num_steps = hierarchy.num_steps();

  if (level == 0) {
    // Level 0: every node on the coarsest lattice (stride 2^K).
    const std::size_t s0 = std::size_t{1} << num_steps;
    const std::size_t lnx = LatticeExtent(dims.nx, s0);
    const std::size_t lny = LatticeExtent(dims.ny, s0);
    const std::size_t lnz = LatticeExtent(dims.nz, s0);
    const std::size_t slab = lny * lnz;
    const std::size_t grain = std::max<std::size_t>(1, 2048 / std::max<std::size_t>(slab, 1));
    ParallelFor(0, lnx, grain, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t ii = lo; ii < hi; ++ii) {
        const std::size_t i = dims.nx == 1 ? 0 : ii * s0;
        std::size_t c = ii * slab;
        for (std::size_t jj = 0; jj < lny; ++jj) {
          const std::size_t j = dims.ny == 1 ? 0 : jj * s0;
          for (std::size_t kk = 0; kk < lnz; ++kk) {
            const std::size_t k = dims.nz == 1 ? 0 : kk * s0;
            fn(c++, i, j, k);
          }
        }
      }
    });
    return;
  }

  // Level l >= 1: nodes on the stride-2^(K-l) lattice with at least one odd
  // lattice index. Per i-slab the node count is closed-form: odd slabs take
  // the whole (j, k) lattice, even slabs everything except the all-even
  // sublattice.
  const std::size_t s = std::size_t{1} << (num_steps - level);
  const std::size_t lnx = LatticeExtent(dims.nx, s);
  const std::size_t lny = LatticeExtent(dims.ny, s);
  const std::size_t lnz = LatticeExtent(dims.nz, s);
  const std::size_t cny = (lny + 1) / 2;  // even lattice indices (or axis==1)
  const std::size_t cnz = (lnz + 1) / 2;
  const std::size_t full = lny * lnz;
  const std::size_t partial = full - cny * cnz;
  std::vector<std::size_t> offset(lnx + 1, 0);
  for (std::size_t ii = 0; ii < lnx; ++ii) {
    const bool oi = dims.nx > 1 && (ii & 1) != 0;
    offset[ii + 1] = offset[ii] + (oi ? full : partial);
  }
  const std::size_t grain = std::max<std::size_t>(1, 2048 / std::max<std::size_t>(full, 1));
  ParallelFor(0, lnx, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t ii = lo; ii < hi; ++ii) {
      const bool oi = dims.nx > 1 && (ii & 1) != 0;
      const std::size_t i = dims.nx == 1 ? 0 : ii * s;
      std::size_t c = offset[ii];
      for (std::size_t jj = 0; jj < lny; ++jj) {
        const bool oj = dims.ny > 1 && (jj & 1) != 0;
        const std::size_t j = dims.ny == 1 ? 0 : jj * s;
        for (std::size_t kk = 0; kk < lnz; ++kk) {
          const bool ok = dims.nz > 1 && (kk & 1) != 0;
          const std::size_t k = dims.nz == 1 ? 0 : kk * s;
          if (oi || oj || ok) {
            fn(c++, i, j, k);
          }
        }
      }
    }
  });
}

}  // namespace

std::vector<std::vector<double>> ExtractReference(
    const GridHierarchy& hierarchy, const Array3Dd& data) {
  MGARDP_CHECK(data.dims() == hierarchy.dims());
  std::vector<std::vector<double>> levels(hierarchy.num_levels());
  for (int l = 0; l < hierarchy.num_levels(); ++l) {
    levels[l].resize(hierarchy.LevelSize(l));
    std::vector<double>& out = levels[l];
    ForEachNodeInLevel(
        hierarchy, l,
        [&](std::size_t idx, std::size_t i, std::size_t j, std::size_t k) {
          out[idx] = data(i, j, k);
        });
  }
  return levels;
}

void DepositReference(const GridHierarchy& hierarchy,
                      const std::vector<std::vector<double>>& levels,
                      Array3Dd* data) {
  MGARDP_CHECK(data->dims() == hierarchy.dims());
  MGARDP_CHECK_EQ(levels.size(),
                  static_cast<std::size_t>(hierarchy.num_levels()));
  for (int l = 0; l < hierarchy.num_levels(); ++l) {
    MGARDP_CHECK_EQ(levels[l].size(), hierarchy.LevelSize(l));
    const std::vector<double>& in = levels[l];
    ForEachNodeInLevel(
        hierarchy, l,
        [&](std::size_t idx, std::size_t i, std::size_t j, std::size_t k) {
          (*data)(i, j, k) = in[idx];
        });
  }
}

}  // namespace internal
}  // namespace mgardp
