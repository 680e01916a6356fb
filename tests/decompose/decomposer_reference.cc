#include "decomposer_reference.h"

namespace mgardp {
namespace internal {

namespace {

// Mass matrix of linear hats on a uniform coarse grid with spacing H = 2:
//   interior rows: [H/6, 4H/6, H/6], boundary rows: [2H/6, H/6].
constexpr double kH = 2.0;
constexpr double kOff = kH / 6.0;
constexpr double kDiagInt = 4.0 * kH / 6.0;
constexpr double kDiagBnd = 2.0 * kH / 6.0;

// Thomas-algorithm factors for the coarse mass matrix of size mc.
struct ThomasFactors {
  std::vector<double> c;      // modified upper-diagonal factors
  std::vector<double> denom;  // forward-elimination denominators
};

void ComputeThomasFactors(std::size_t mc, ThomasFactors* f) {
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

void SolveCoarseMassWith(double* b, std::size_t mc, const ThomasFactors& f) {
  b[0] /= f.denom[0];
  for (std::size_t i = 1; i < mc; ++i) {
    b[i] = (b[i] - kOff * b[i - 1]) / f.denom[i];
  }
  for (std::size_t i = mc - 1; i-- > 0;) {
    b[i] -= f.c[i] * b[i + 1];
  }
}

// Coarse-grid load vector of the detail function; `us` is the element
// stride of the line.
void DetailLoadVector(const double* u, std::size_t us, std::size_t m,
                      double* b) {
  const std::size_t mc = (m + 1) / 2;
  for (std::size_t i = 0; i < mc; ++i) {
    double load = 0.0;
    if (i > 0) {
      load += u[(2 * i - 1) * us];
    }
    if (2 * i + 1 < m) {
      load += u[(2 * i + 1) * us];
    }
    b[i] = 0.5 * load;
  }
}

// In-place line kernels on a line whose elements are `us` apart. `b` is
// scratch of at least (m + 1) / 2 doubles; `factors` is null when the
// correction is disabled.
void ForwardLineStrided(double* u, std::size_t us, std::size_t m,
                        const ThomasFactors* factors, double* b) {
  for (std::size_t p = 1; p < m; p += 2) {
    u[p * us] -= 0.5 * (u[(p - 1) * us] + u[(p + 1) * us]);
  }
  if (factors == nullptr) {
    return;
  }
  const std::size_t mc = (m + 1) / 2;
  DetailLoadVector(u, us, m, b);
  SolveCoarseMassWith(b, mc, *factors);
  for (std::size_t i = 0; i < mc; ++i) {
    u[2 * i * us] += b[i];
  }
}

void InverseLineStrided(double* u, std::size_t us, std::size_t m,
                        const ThomasFactors* factors, double* b) {
  if (factors != nullptr) {
    const std::size_t mc = (m + 1) / 2;
    DetailLoadVector(u, us, m, b);
    SolveCoarseMassWith(b, mc, *factors);
    for (std::size_t i = 0; i < mc; ++i) {
      u[2 * i * us] -= b[i];
    }
  }
  for (std::size_t p = 1; p < m; p += 2) {
    u[p * us] += 0.5 * (u[(p - 1) * us] + u[(p + 1) * us]);
  }
}

// Transforms every line along `axis` of the active lattice at `stride`,
// one line after another.
void TransformAxis(Array3Dd* data, std::size_t stride, int axis, bool forward,
                   bool correct) {
  const Dims3& dims = data->dims();
  const std::size_t ext[3] = {dims.nx, dims.ny, dims.nz};
  auto lat = [&](int a) -> std::size_t {
    return ext[a] == 1 ? 1 : (ext[a] - 1) / stride + 1;
  };
  const std::size_t m = lat(axis);
  if (m < 3) {
    return;
  }
  const int o1 = (axis == 0) ? 1 : 0;
  const int o2 = (axis == 2) ? 1 : 2;
  const std::size_t n1 = lat(o1);
  const std::size_t n2 = lat(o2);

  ThomasFactors factors;
  if (correct) {
    ComputeThomasFactors((m + 1) / 2, &factors);
  }
  const ThomasFactors* f = correct ? &factors : nullptr;

  const std::size_t elem_stride[3] = {dims.ny * dims.nz, dims.nz, 1};
  const std::size_t us = stride * elem_stride[axis];
  const std::size_t s1 = ext[o1] == 1 ? 0 : stride * elem_stride[o1];
  const std::size_t s2 = ext[o2] == 1 ? 0 : stride * elem_stride[o2];
  std::vector<double> b((m + 1) / 2);
  for (std::size_t a = 0; a < n1; ++a) {
    for (std::size_t c = 0; c < n2; ++c) {
      double* const u = data->data() + a * s1 + c * s2;
      if (forward) {
        ForwardLineStrided(u, us, m, f, b.data());
      } else {
        InverseLineStrided(u, us, m, f, b.data());
      }
    }
  }
}

Status CheckDims(const GridHierarchy& hierarchy, const Array3Dd& data) {
  if (!(data.dims() == hierarchy.dims())) {
    return Status::Invalid("data dims " + data.dims().ToString() +
                           " do not match hierarchy dims " +
                           hierarchy.dims().ToString());
  }
  return Status::OK();
}

}  // namespace

void SolveCoarseMass(double* b, std::size_t mc, std::vector<double>* scratch) {
  ThomasFactors factors;
  ComputeThomasFactors(mc, &factors);
  *scratch = factors.c;
  SolveCoarseMassWith(b, mc, factors);
}

void ForwardLine(double* u, std::size_t m, bool correct,
                 std::vector<double>* scratch) {
  const std::size_t mc = (m + 1) / 2;
  scratch->resize(2 * mc);
  ThomasFactors factors;
  if (correct) {
    ComputeThomasFactors(mc, &factors);
  }
  ForwardLineStrided(u, 1, m, correct ? &factors : nullptr, scratch->data());
}

void InverseLine(double* u, std::size_t m, bool correct,
                 std::vector<double>* scratch) {
  const std::size_t mc = (m + 1) / 2;
  scratch->resize(2 * mc);
  ThomasFactors factors;
  if (correct) {
    ComputeThomasFactors(mc, &factors);
  }
  InverseLineStrided(u, 1, m, correct ? &factors : nullptr, scratch->data());
}

Status DecomposeScalar(const GridHierarchy& hierarchy,
                       const DecomposeOptions& options, Array3Dd* data) {
  MGARDP_RETURN_NOT_OK(CheckDims(hierarchy, *data));
  for (int step = 0; step < hierarchy.num_steps(); ++step) {
    const std::size_t stride = hierarchy.StrideForStep(step);
    for (int axis = 0; axis < 3; ++axis) {
      TransformAxis(data, stride, axis, /*forward=*/true,
                    options.use_correction);
    }
  }
  return Status::OK();
}

Status RecomposeScalar(const GridHierarchy& hierarchy,
                       const DecomposeOptions& options, Array3Dd* data) {
  MGARDP_RETURN_NOT_OK(CheckDims(hierarchy, *data));
  for (int step = hierarchy.num_steps() - 1; step >= 0; --step) {
    const std::size_t stride = hierarchy.StrideForStep(step);
    for (int axis = 2; axis >= 0; --axis) {
      TransformAxis(data, stride, axis, /*forward=*/false,
                    options.use_correction);
    }
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace mgardp
