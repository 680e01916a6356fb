#include "decompose/decomposer.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/parallel.h"

namespace mgardp {
namespace {

// Mass matrix of linear hats on a uniform coarse grid with spacing H = 2:
//   interior rows: [H/6, 4H/6, H/6], boundary rows: [2H/6, H/6].
constexpr double kH = 2.0;
constexpr double kOff = kH / 6.0;
constexpr double kDiagInt = 4.0 * kH / 6.0;
constexpr double kDiagBnd = 2.0 * kH / 6.0;

// Number of neighbouring lines one kernel call transforms together. Each
// line's Thomas solve is a serial chain of divides; interleaving eight
// independent chains keeps the divider busy instead of waiting on latency.
constexpr std::size_t kLanes = 8;

// Lattice sites one pool chunk transforms at least (~2 ns each). Waking the
// pool costs tens of microseconds on a loaded box, so a pass smaller than
// this (every pass of a 33^3 grid, the coarse steps of a larger one) runs
// inline as one chunk.
constexpr std::size_t kMinSitesPerChunk = std::size_t{1} << 16;

// Thomas-algorithm factors for the coarse mass matrix of size mc. They
// depend only on mc, so one computation serves every line of an axis pass;
// the divisions in the data sweep still divide by the stored denominators,
// keeping results bit-identical to factoring inline.
struct ThomasFactors {
  std::vector<double> c;      // modified upper-diagonal factors
  std::vector<double> denom;  // forward-elimination denominators
};

void ComputeThomasFactors(std::size_t mc, ThomasFactors* f) {
  MGARDP_DCHECK(mc >= 2);
  f->c.resize(mc);
  f->denom.resize(mc);
  f->denom[0] = kDiagBnd;
  f->c[0] = kOff / kDiagBnd;
  for (std::size_t i = 1; i < mc; ++i) {
    const double diag = (i + 1 == mc) ? kDiagBnd : kDiagInt;
    const double denom = diag - kOff * f->c[i - 1];
    f->c[i] = kOff / denom;
    f->denom[i] = denom;
  }
}

// A group of nl <= kLanes lines of odd length m >= 3 transformed together:
// line L starts at u + L * ls and its elements are `us` apart. The kernels
// below loop over line position outside and lane inside. Lanes never read
// each other's values and each element gets the same operations in the
// same order as a one-line-at-a-time solve, so batching changes no bit.
struct LaneGroup {
  double* u;
  std::size_t us;  // element stride along the line
  std::size_t ls;  // stride between neighbouring lines
  std::size_t nl;  // lines in this group
  std::size_t m;   // line length
};

// Odd entries become interpolation residuals (forward) or get the
// interpolant added back (inverse). This is the whole transform when the
// correction is off.
template <bool kForward>
void Predict(const LaneGroup& g) {
  for (std::size_t p = 1; p < g.m; p += 2) {
    double* const d = g.u + p * g.us;
    const double* const left = d - g.us;
    const double* const right = d + g.us;
    for (std::size_t l = 0; l < g.nl; ++l) {
      const std::size_t o = l * g.ls;
      if constexpr (kForward) {
        d[o] -= 0.5 * (left[o] + right[o]);
      } else {
        d[o] += 0.5 * (left[o] + right[o]);
      }
    }
  }
}

// Lifting with the L2 projection correction, in two sweeps over the group
// so each line is read twice rather than once per stage. `b` is mc x
// kLanes scratch, lane-minor, holding the correction.
//
// Upward, for coarse node i: (forward only) odd entry 2i + 1 becomes its
// interpolation residual; the load of coarse hat i is formed from the
// details at 2i - 1 and 2i + 1 (each detail hat overlaps it with integral
// h/2, h = 1 the fine spacing) and forward-eliminated against the coarse
// mass matrix. Downward: back substitution finishes correction i, which is
// added to (forward) or subtracted from (inverse) even entry 2i; (inverse
// only) odd entry 2i + 1 then gets its interpolant back, both of its
// neighbours being final. The correction depends only on the details, so
// the inverse undoes the forward exactly.
template <bool kForward>
void CorrectedLift(const LaneGroup& g, const ThomasFactors& f, double* b) {
  const std::size_t us = g.us;
  const std::size_t mc = (g.m + 1) / 2;
  for (std::size_t i = 0; i < mc; ++i) {
    const bool has_left = i > 0;
    const bool has_right = i + 1 < mc;
    double* const even = g.u + 2 * i * us;
    double* const row = b + i * kLanes;
    const double* const prev = has_left ? row - kLanes : row;
    const double denom = f.denom[i];
    for (std::size_t l = 0; l < g.nl; ++l) {
      const std::size_t o = l * g.ls;
      if (kForward && has_right) {
        even[us + o] -= 0.5 * (even[o] + even[2 * us + o]);
      }
      // Starting from +0.0 and adding left before right fixes the sign of
      // zero loads.
      double load = 0.0;
      if (has_left) {
        load += even[o - us];
      }
      if (has_right) {
        load += even[us + o];
      }
      const double rhs = 0.5 * load;
      // Divide by the stored denominator; a reciprocal would round
      // differently.
      row[l] = has_left ? (rhs - kOff * prev[l]) / denom : rhs / denom;
    }
  }
  for (std::size_t i = mc; i-- > 0;) {
    const bool has_right = i + 1 < mc;
    double* const even = g.u + 2 * i * us;
    double* const row = b + i * kLanes;
    const double* const next = row + kLanes;
    const double c = f.c[i];
    for (std::size_t l = 0; l < g.nl; ++l) {
      const std::size_t o = l * g.ls;
      if (has_right) {
        row[l] -= c * next[l];
      }
      if constexpr (kForward) {
        even[o] += row[l];
      } else {
        even[o] -= row[l];
        if (has_right) {
          even[us + o] += 0.5 * (even[o] + even[2 * us + o]);
        }
      }
    }
  }
}

// `f` is null when the correction is disabled.
template <bool kForward>
void TransformGroup(const LaneGroup& g, const ThomasFactors* f, double* b) {
  MGARDP_DCHECK(g.m >= 3 && g.m % 2 == 1 && g.nl >= 1 && g.nl <= kLanes);
  if (f == nullptr) {
    Predict<kForward>(g);
  } else {
    CorrectedLift<kForward>(g, *f, b);
  }
}

// Applies the forward or inverse line transform along `axis` (0 = x, 1 = y,
// 2 = z) over every line of the active lattice at `stride`. Lines are
// transformed in place through strided pointers -- no gather/scatter copy
// -- in groups of kLanes lines consecutive along the second other axis o2
// (z for the x and y passes, so at the finest step the lanes are adjacent
// doubles; y for the z pass). The Thomas factors are computed once per pass
// since every line of the pass has the same length.
void TransformAxis(Array3Dd* data, std::size_t stride, int axis, bool forward,
                   bool correct) {
  const Dims3& dims = data->dims();
  const std::size_t ext[3] = {dims.nx, dims.ny, dims.nz};
  // Active lattice extents.
  auto lat = [&](int a) -> std::size_t {
    return ext[a] == 1 ? 1 : (ext[a] - 1) / stride + 1;
  };
  const std::size_t m = lat(axis);
  if (m < 3) {
    return;  // axis inactive or already at its coarsest
  }
  const int o1 = (axis == 0) ? 1 : 0;
  const int o2 = (axis == 2) ? 1 : 2;
  const std::size_t n1 = lat(o1);
  const std::size_t n2 = lat(o2);
  const std::size_t groups = (n2 + kLanes - 1) / kLanes;

  const std::size_t mc = (m + 1) / 2;
  ThomasFactors factors;
  if (correct) {
    ComputeThomasFactors(mc, &factors);
  }
  const ThomasFactors* f = correct ? &factors : nullptr;

  // Element strides of each axis in the row-major (z fastest) layout.
  const std::size_t elem_stride[3] = {dims.ny * dims.nz, dims.nz, 1};
  const std::size_t us = stride * elem_stride[axis];
  const std::size_t s1 = ext[o1] == 1 ? 0 : stride * elem_stride[o1];
  const std::size_t s2 = ext[o2] == 1 ? 0 : stride * elem_stride[o2];
  double* const base = data->data();

  // Lines along `axis` touch disjoint lattice sites for distinct (a, c), so
  // the (outer line x lane group) items solve independently across the
  // pool; each chunk keeps its own mc x kLanes correction scratch.
  const std::size_t grain =
      std::max<std::size_t>(1, kMinSitesPerChunk / (m * kLanes));
  ParallelFor(0, n1 * groups, grain, [&](std::size_t lo, std::size_t hi) {
    std::vector<double> b(mc * kLanes);
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t c0 = (t % groups) * kLanes;
      const LaneGroup g{base + (t / groups) * s1 + c0 * s2, us, s2,
                        std::min(kLanes, n2 - c0), m};
      if (forward) {
        TransformGroup<true>(g, f, b.data());
      } else {
        TransformGroup<false>(g, f, b.data());
      }
    }
  });
}

}  // namespace

Status Decomposer::Decompose(Array3Dd* data) const {
  if (!(data->dims() == hierarchy_.dims())) {
    return Status::Invalid("data dims " + data->dims().ToString() +
                           " do not match hierarchy dims " +
                           hierarchy_.dims().ToString());
  }
  for (int step = 0; step < hierarchy_.num_steps(); ++step) {
    const std::size_t stride = hierarchy_.StrideForStep(step);
    for (int axis = 0; axis < 3; ++axis) {
      TransformAxis(data, stride, axis, /*forward=*/true,
                    options_.use_correction);
    }
  }
  return Status::OK();
}

Status Decomposer::Recompose(Array3Dd* data) const {
  if (!(data->dims() == hierarchy_.dims())) {
    return Status::Invalid("data dims " + data->dims().ToString() +
                           " do not match hierarchy dims " +
                           hierarchy_.dims().ToString());
  }
  for (int step = hierarchy_.num_steps() - 1; step >= 0; --step) {
    const std::size_t stride = hierarchy_.StrideForStep(step);
    for (int axis = 2; axis >= 0; --axis) {
      TransformAxis(data, stride, axis, /*forward=*/false,
                    options_.use_correction);
    }
  }
  return Status::OK();
}

}  // namespace mgardp
