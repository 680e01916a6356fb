#include "bitplane_reference.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "encode/negabinary.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace mgardp {
namespace internal {
namespace {

// Chunk size for per-coefficient loops. Fixed (not thread-count-derived) so
// chunked reductions are bit-identical for any MGARDP_THREADS setting. A
// multiple of 64 so transpose blocks never straddle a chunk boundary.
constexpr std::size_t kCoefGrain = 8192;

// Exponent e with max_abs <= 2^e (e = 0 when the level is all zeros).
int LevelExponent(const std::vector<double>& coefs) {
  // max is exact under reassociation, so the parallel reduce is safe.
  const double max_abs = ParallelReduce<double>(
      0, coefs.size(), kCoefGrain, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double m = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          m = std::max(m, std::fabs(coefs[i]));
        }
        return m;
      },
      [](double a, double b) { return std::max(a, b); });
  if (max_abs == 0.0) {
    return 0;
  }
  int e = static_cast<int>(std::ceil(std::log2(max_abs)));
  // Guard against log2 rounding putting max_abs just above 2^e.
  while (max_abs > std::ldexp(1.0, e)) {
    ++e;
  }
  return e;
}

// Per-chunk accumulator for the error matrix: entry b holds the running
// max-abs / squared-error over the chunk's coefficients at prefix length b.
struct ErrorAccumulator {
  std::vector<double> max_abs;
  std::vector<double> sq_err;
};

// Quantizes every coefficient into a nega-binary digit word. Returns the
// index of the first coefficient whose expansion needs more than
// `num_planes` digits, or coefs.size() when all fit.
std::size_t QuantizeNegabinary(const std::vector<double>& coefs, double scale,
                               int num_planes, std::vector<std::uint64_t>* nb) {
  return ParallelReduce<std::size_t>(
      0, coefs.size(), kCoefGrain, coefs.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::size_t bad = coefs.size();
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t q = std::llround(coefs[i] * scale);
          (*nb)[i] = ToNegabinary(q);
          if (NegabinaryDigits((*nb)[i]) > num_planes && bad == coefs.size()) {
            bad = i;
          }
        }
        return bad;
      },
      [](std::size_t a, std::size_t b) { return std::min(a, b); });
}

Status OverflowError(const std::vector<double>& coefs, std::size_t index,
                     int num_planes, int exponent) {
  std::ostringstream os;
  os << "coefficient " << coefs[index] << " overflows " << num_planes
     << " nega-binary planes (exponent " << exponent << ")";
  return Status::Internal(os.str());
}

}  // namespace

void SlicePlanesScalar(const std::uint64_t* nb, std::size_t count,
                       int num_planes, std::vector<std::string>* planes) {
  for (int p = 0; p < num_planes; ++p) {
    const int digit = num_planes - 1 - p;
    std::string& plane = (*planes)[p];
    for (std::size_t i = 0; i < count; ++i) {
      if ((nb[i] >> digit) & 1u) {
        plane[i >> 3] |= static_cast<char>(1u << (i & 7));
      }
    }
  }
}

Result<BitplaneSet> EncodeScalar(const std::vector<double>& coefs,
                                 int num_planes, LevelErrorStats* stats) {
  MGARDP_CHECK(num_planes >= 2 && num_planes <= 60)
      << "num_planes out of range";
  BitplaneSet set;
  set.num_planes = num_planes;
  set.count = coefs.size();
  set.exponent = LevelExponent(coefs);
  set.planes.assign(num_planes, std::string(set.PlaneBytes(), '\0'));

  const double scale = std::ldexp(1.0, num_planes - 2 - set.exponent);
  const double inv_scale = 1.0 / scale;

  std::vector<std::uint64_t> nb(coefs.size());
  const std::size_t first_overflow =
      QuantizeNegabinary(coefs, scale, num_planes, &nb);
  if (first_overflow < coefs.size()) {
    return OverflowError(coefs, first_overflow, num_planes, set.exponent);
  }

  SlicePlanesScalar(nb.data(), coefs.size(), num_planes, &set.planes);

  if (stats != nullptr) {
    stats->max_abs.assign(num_planes + 1, 0.0);
    stats->mse.assign(num_planes + 1, 0.0);
    const double inv_n =
        coefs.empty() ? 0.0 : 1.0 / static_cast<double>(coefs.size());
    ErrorAccumulator zero;
    zero.max_abs.assign(num_planes + 1, 0.0);
    zero.sq_err.assign(num_planes + 1, 0.0);
    ErrorAccumulator total = ParallelReduce<ErrorAccumulator>(
        0, coefs.size(), kCoefGrain, zero,
        [&](std::size_t lo, std::size_t hi) {
          ErrorAccumulator acc;
          acc.max_abs.assign(num_planes + 1, 0.0);
          acc.sq_err.assign(num_planes + 1, 0.0);
          for (std::size_t i = lo; i < hi; ++i) {
            std::int64_t value = 0;  // FromNegabinary of the kept digits
            const double d0 = std::fabs(coefs[i]);
            acc.max_abs[0] = std::max(acc.max_abs[0], d0);
            acc.sq_err[0] += d0 * d0;
            for (int b = 1; b <= num_planes; ++b) {
              const int digit = num_planes - b;
              if ((nb[i] >> digit) & 1u) {
                const std::int64_t mag = std::int64_t{1} << digit;
                value += (digit & 1) ? -mag : mag;
              }
              const double rec = static_cast<double>(value) * inv_scale;
              const double d = std::fabs(coefs[i] - rec);
              acc.max_abs[b] = std::max(acc.max_abs[b], d);
              acc.sq_err[b] += d * d;
            }
          }
          return acc;
        },
        [&](ErrorAccumulator a, ErrorAccumulator b) {
          for (int i = 0; i <= num_planes; ++i) {
            a.max_abs[i] = std::max(a.max_abs[i], b.max_abs[i]);
            a.sq_err[i] += b.sq_err[i];
          }
          return a;
        });
    for (int b = 0; b <= num_planes; ++b) {
      stats->max_abs[b] = total.max_abs[b];
      stats->mse[b] = total.sq_err[b] * inv_n;
    }
  }
  return set;
}

Result<std::vector<double>> DecodeScalar(const BitplaneSet& set,
                                         int prefix_planes) {
  MGARDP_RETURN_NOT_OK(ValidateBitplaneSet(set, prefix_planes));
  const double inv_scale =
      std::ldexp(1.0, set.exponent - (set.num_planes - 2));
  std::vector<double> coefs(set.count);
  ParallelFor(0, static_cast<std::size_t>(set.count), kCoefGrain,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  std::uint64_t nb = 0;
                  for (int p = 0; p < prefix_planes; ++p) {
                    if ((set.planes[p][i >> 3] >> (i & 7)) & 1) {
                      nb |= std::uint64_t{1} << (set.num_planes - 1 - p);
                    }
                  }
                  coefs[i] =
                      static_cast<double>(FromNegabinary(nb)) * inv_scale;
                }
              });
  return coefs;
}

}  // namespace internal
}  // namespace mgardp
