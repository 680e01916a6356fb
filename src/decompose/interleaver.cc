#include "decompose/interleaver.h"

#include <cstring>
#include <sstream>

#include "util/parallel.h"

namespace mgardp {

namespace {

// Lattice extent of an axis of physical extent n at stride s.
std::size_t LatticeExtent(std::size_t n, std::size_t s) {
  return n == 1 ? 1 : (n - 1) / s + 1;
}

// Copies `count` doubles spaced `src_stride` apart in src to spacing
// `dst_stride` in dst; a contiguous run is one memcpy.
void CopyRun(const double* src, std::size_t src_stride, double* dst,
             std::size_t dst_stride, std::size_t count) {
  if (src_stride == 1 && dst_stride == 1) {
    std::memcpy(dst, src, count * sizeof(double));
    return;
  }
  for (std::size_t c = 0; c < count; ++c) {
    dst[c * dst_stride] = src[c * src_stride];
  }
}

}  // namespace

// Level 0 is every node of the coarsest lattice (stride 2^K); level l >= 1
// is every node of the stride-2^(K-l) lattice with at least one odd lattice
// index. So a z-row with an odd i or j lattice index (or any level-0 row)
// belongs to the level whole, at stride s, and an all-even row gives only
// its odd-k nodes, at stride 2s. An axis of extent 1 has the one, even,
// lattice index 0. Each i-slab's node count is closed-form, so slabs get
// fixed output offsets and fan out across the pool; every index equals a
// serial sweep's, whatever the thread count.
template <typename Fn>
void Interleaver::ForEachRunInLevel(int level, Fn&& fn) const {
  const Dims3& dims = hierarchy_.dims();
  const bool coarsest = level == 0;
  const std::size_t s = std::size_t{1} << (hierarchy_.num_steps() - level);
  const std::size_t lnx = LatticeExtent(dims.nx, s);
  const std::size_t lny = LatticeExtent(dims.ny, s);
  const std::size_t lnz = LatticeExtent(dims.nz, s);
  const std::size_t full = lny * lnz;
  const std::size_t partial = full - (lny + 1) / 2 * ((lnz + 1) / 2);
  std::vector<std::size_t> offset(lnx + 1, 0);
  for (std::size_t ii = 0; ii < lnx; ++ii) {
    const bool whole_slab = coarsest || (ii & 1) != 0;
    offset[ii + 1] = offset[ii] + (whole_slab ? full : partial);
  }
  const std::size_t grain = std::max<std::size_t>(1, 2048 / std::max<std::size_t>(full, 1));
  ParallelFor(0, lnx, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t ii = lo; ii < hi; ++ii) {
      const bool whole_slab = coarsest || (ii & 1) != 0;
      std::size_t c = offset[ii];
      for (std::size_t jj = 0; jj < lny; ++jj) {
        const std::size_t row = (ii * s * dims.ny + jj * s) * dims.nz;
        if (whole_slab || (jj & 1) != 0) {
          fn(c, row, lnz, s);
          c += lnz;
        } else if (lnz > 1) {
          fn(c, row + s, lnz / 2, 2 * s);
          c += lnz / 2;
        }
      }
    }
  });
}

std::vector<std::vector<double>> Interleaver::Extract(
    const Array3Dd& data) const {
  MGARDP_CHECK(data.dims() == hierarchy_.dims());
  std::vector<std::vector<double>> levels(hierarchy_.num_levels());
  for (int l = 0; l < hierarchy_.num_levels(); ++l) {
    levels[l].resize(hierarchy_.LevelSize(l));
    double* const out = levels[l].data();
    ForEachRunInLevel(l, [&](std::size_t first, std::size_t at,
                             std::size_t count, std::size_t stride) {
      CopyRun(data.data() + at, stride, out + first, 1, count);
    });
  }
  return levels;
}

Status Interleaver::Deposit(const std::vector<std::vector<double>>& levels,
                            Array3Dd* data) const {
  if (!(data->dims() == hierarchy_.dims())) {
    return Status::Invalid("data dims do not match hierarchy");
  }
  if (static_cast<int>(levels.size()) != hierarchy_.num_levels()) {
    std::ostringstream os;
    os << "expected " << hierarchy_.num_levels() << " levels, got "
       << levels.size();
    return Status::Invalid(os.str());
  }
  for (int l = 0; l < hierarchy_.num_levels(); ++l) {
    if (levels[l].size() != hierarchy_.LevelSize(l)) {
      std::ostringstream os;
      os << "level " << l << " has " << levels[l].size()
         << " coefficients, expected " << hierarchy_.LevelSize(l);
      return Status::Invalid(os.str());
    }
  }
  for (int l = 0; l < hierarchy_.num_levels(); ++l) {
    const double* const in = levels[l].data();
    ForEachRunInLevel(l, [&](std::size_t first, std::size_t at,
                             std::size_t count, std::size_t stride) {
      CopyRun(in + first, 1, data->data() + at, stride, count);
    });
  }
  return Status::OK();
}

}  // namespace mgardp
