#include "encode/bitplane.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "encode/negabinary.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace mgardp {

BitplaneEncoder::BitplaneEncoder(int num_planes) : num_planes_(num_planes) {
  MGARDP_CHECK(num_planes >= 2 && num_planes <= 60)
      << "num_planes out of range";
}

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

// Width of one plane-vector row of the error-matrix kernel. Rows have a
// constant trip count so the compiler vectorises over planes; a level
// needs ceil(num_planes / kPlaneLanes) rows, so up to 64 prefix lengths.
constexpr int kPlaneLanes = 32;
constexpr int kMaxPlaneRows = 2;
static_assert(kMaxPlaneRows * kPlaneLanes >= 60, "rows must cover 60 planes");

// Per-chunk accumulator for the error matrix: entry b holds the running
// max-abs / squared-error over the chunk's coefficients at prefix length b.
// Both hold 1 + rows * kPlaneLanes entries; those past num_planes are
// scratch lanes of the last row and never read.
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

// Little-endian word <-> plane-byte shuttles. On little-endian hosts the
// full-word forms compile to single unaligned accesses; the byte loops keep
// partial (tail) blocks and big-endian hosts correct.
inline void StoreWordLE(std::uint64_t w, char* dst, std::size_t nbytes) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  if (nbytes == 8) {
    std::memcpy(dst, &w, 8);
    return;
  }
#endif
  for (std::size_t b = 0; b < nbytes; ++b) {
    dst[b] = static_cast<char>(w >> (8 * b));
  }
}

inline std::uint64_t LoadWordLE(const char* src, std::size_t nbytes) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  if (nbytes == 8) {
    std::uint64_t w;
    std::memcpy(&w, src, 8);
    return w;
  }
#endif
  std::uint64_t w = 0;
  for (std::size_t b = 0; b < nbytes; ++b) {
    w |= static_cast<std::uint64_t>(static_cast<unsigned char>(src[b]))
         << (8 * b);
  }
  return w;
}

// Transposes the 64-coefficient block starting at i0 (i0 a multiple of 64)
// and stores one machine word per plane. Block i0 owns plane bytes
// [i0 / 8, i0 / 8 + ceil(nblock / 8)), so concurrent blocks never touch the
// same byte.
inline void EmitBlock(const std::uint64_t* nb, std::size_t i0,
                      std::size_t nblock, int num_planes,
                      std::vector<std::string>* planes) {
  std::uint64_t m[64] = {};
  std::memcpy(m, nb + i0, nblock * sizeof(std::uint64_t));
  internal::Transpose64x64(m);
  const std::size_t byte0 = i0 >> 3;
  const std::size_t nbytes = (nblock + 7) >> 3;
  for (int p = 0; p < num_planes; ++p) {
    StoreWordLE(m[num_planes - 1 - p], (*planes)[p].data() + byte0, nbytes);
  }
}

// Compiled once per x86-64 micro-architecture level; the dynamic loader
// picks the widest clone the CPU supports (the v4 clone has the AVX-512
// int64 -> double conversion the plane rows need). Every clone computes the
// same doubles in the same order: the library is built with
// -ffp-contract=off, so no clone fuses a multiply-add the others round
// twice. ThreadSanitizer builds keep the single default body: with GCC 12
// a TSan program crashes at load in the clones' ifunc resolver.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && __GNUC__ >= 11 && !defined(__SANITIZE_THREAD__) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define MGARDP_PLANE_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#endif
#endif
#ifndef MGARDP_PLANE_CLONES
#define MGARDP_PLANE_CLONES
#endif

// Adds coefficients [0, count) of a block to the error matrix. The prefix
// value of a coefficient at length b is the nega-binary number made of its
// top b digits, FromNegabinary(w & keep[b - 1]), so every prefix length is
// independent of the others: each coefficient's prefix errors are computed
// as plane-vector rows of kPlaneLanes lanes (no loop-carried value), then
// folded into max_abs[b] / sq_err[b]. Coefficients are still visited in
// order, so each sq_err[b] sums exactly the doubles the scalar per-plane
// walk summed, in the same order: the result is bit-identical to it.
MGARDP_PLANE_CLONES
void AccumulateStats(const double* coefs, const std::uint64_t* nb,
                     std::size_t count, int rows, const std::uint64_t* keep,
                     double inv_scale, double* acc_max_abs,
                     double* acc_sq_err) {
  for (std::size_t i = 0; i < count; ++i) {
    const double d0 = std::fabs(coefs[i]);
    acc_max_abs[0] = std::max(acc_max_abs[0], d0);
    acc_sq_err[0] += d0 * d0;
  }
  for (int r = 0; r < rows; ++r) {
    const std::uint64_t* row_keep = keep + r * kPlaneLanes;
    double* const row_max = acc_max_abs + 1 + r * kPlaneLanes;
    double* const row_sq = acc_sq_err + 1 + r * kPlaneLanes;
    double max_abs[kPlaneLanes], sq_err[kPlaneLanes];
    for (int j = 0; j < kPlaneLanes; ++j) {
      max_abs[j] = row_max[j];
      sq_err[j] = row_sq[j];
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t w = nb[i];
      const double c = coefs[i];
      for (int j = 0; j < kPlaneLanes; ++j) {
        const double rec =
            static_cast<double>(FromNegabinary(w & row_keep[j])) * inv_scale;
        const double d = std::fabs(c - rec);
        max_abs[j] = std::max(max_abs[j], d);
        sq_err[j] += d * d;
      }
    }
    for (int j = 0; j < kPlaneLanes; ++j) {
      row_max[j] = max_abs[j];
      row_sq[j] = sq_err[j];
    }
  }
}

}  // namespace

Result<BitplaneSet> BitplaneEncoder::Encode(const std::vector<double>& coefs,
                                            LevelErrorStats* stats) const {
  BitplaneSet set;
  set.num_planes = num_planes_;
  set.count = coefs.size();
  set.exponent = LevelExponent(coefs);
  const std::size_t plane_bytes = set.PlaneBytes();
  set.planes.assign(num_planes_, std::string(plane_bytes, '\0'));

  // Fixed-point scale: |q| <= 2^(B-2), which B nega-binary digits can
  // always represent (max positive value of B digits is (2^B - 1) / 3ish,
  // and 2^(B-2) is safely inside for both signs).
  const double scale = std::ldexp(1.0, num_planes_ - 2 - set.exponent);
  const double inv_scale = 1.0 / scale;

  std::vector<std::uint64_t> nb(coefs.size());
  const std::size_t first_overflow =
      QuantizeNegabinary(coefs, scale, num_planes_, &nb);
  if (first_overflow < coefs.size()) {
    return OverflowError(coefs, first_overflow, num_planes_, set.exponent);
  }

  // Slice digits into planes, MSB plane first, 64 coefficients per
  // instruction: each 64-word block is bit-transposed so word d holds digit
  // d of all 64 coefficients, which is exactly 8 plane bytes. When the
  // error matrix is requested its accumulation shares the same pass over
  // the transposed blocks.
  const std::size_t n = coefs.size();
  if (stats == nullptr) {
    ParallelFor(0, (n + 63) / 64, kCoefGrain / 64,
                [&](std::size_t b_lo, std::size_t b_hi) {
                  for (std::size_t blk = b_lo; blk < b_hi; ++blk) {
                    const std::size_t i0 = blk * 64;
                    EmitBlock(nb.data(), i0, std::min<std::size_t>(64, n - i0),
                              num_planes_, &set.planes);
                  }
                });
    return set;
  }

  // keep[b - 1] selects the top b of the num_planes digits; the lanes past
  // num_planes in the last row keep every digit and are discarded.
  const int rows = (num_planes_ + kPlaneLanes - 1) / kPlaneLanes;
  std::uint64_t keep[kMaxPlaneRows * kPlaneLanes] = {};
  const std::uint64_t all_digits = (std::uint64_t{1} << num_planes_) - 1;
  for (int b = 1; b <= rows * kPlaneLanes; ++b) {
    keep[b - 1] = b >= num_planes_ ? all_digits
                                   : all_digits & ~(all_digits >> b);
  }
  // Coefficients are independent, so chunks of them reduce in parallel;
  // the fixed grain plus ordered combine keeps the sums reproducible.
  // Chunks are 64-aligned, so the plane-emitting blocks nest inside them.
  const std::size_t width = 1 + rows * kPlaneLanes;
  const ErrorAccumulator zero{std::vector<double>(width, 0.0),
                              std::vector<double>(width, 0.0)};
  ErrorAccumulator total = ParallelReduce<ErrorAccumulator>(
      0, n, kCoefGrain, zero,
      [&](std::size_t lo, std::size_t hi) {
        ErrorAccumulator acc = zero;
        for (std::size_t i0 = lo; i0 < hi; i0 += 64) {
          const std::size_t nblock = std::min<std::size_t>(64, hi - i0);
          EmitBlock(nb.data(), i0, nblock, num_planes_, &set.planes);
          AccumulateStats(coefs.data() + i0, nb.data() + i0, nblock, rows,
                          keep, inv_scale, acc.max_abs.data(),
                          acc.sq_err.data());
        }
        return acc;
      },
      [&](ErrorAccumulator a, const ErrorAccumulator& b) {
        for (int i = 0; i <= num_planes_; ++i) {
          a.max_abs[i] = std::max(a.max_abs[i], b.max_abs[i]);
          a.sq_err[i] += b.sq_err[i];
        }
        return a;
      });
  const double inv_n = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
  total.max_abs.resize(num_planes_ + 1);
  total.sq_err.resize(num_planes_ + 1);
  for (double& e : total.sq_err) {
    e *= inv_n;
  }
  stats->max_abs = std::move(total.max_abs);
  stats->mse = std::move(total.sq_err);
  return set;
}

Result<std::vector<double>> BitplaneEncoder::Decode(const BitplaneSet& set,
                                                    int prefix_planes) const {
  MGARDP_RETURN_NOT_OK(internal::ValidateBitplaneSet(set, prefix_planes));
  const double inv_scale =
      std::ldexp(1.0, set.exponent - (set.num_planes - 2));
  const std::size_t n = set.count;
  std::vector<double> coefs(n);
  if (prefix_planes == 0) {
    return coefs;  // every digit zero: FromNegabinary(0) * inv_scale is +0.0
  }
  // Gather each 64-coefficient block's plane words, transpose back to
  // coefficient-major nega-binary words, and convert. Each block owns its
  // slice of the output, so the result is scheduling-independent.
  ParallelFor(0, (n + 63) / 64, kCoefGrain / 64,
              [&](std::size_t b_lo, std::size_t b_hi) {
                std::uint64_t m[64];
                for (std::size_t blk = b_lo; blk < b_hi; ++blk) {
                  const std::size_t i0 = blk * 64;
                  const std::size_t nblock = std::min<std::size_t>(64, n - i0);
                  const std::size_t nbytes = (nblock + 7) >> 3;
                  std::memset(m, 0, sizeof(m));
                  for (int p = 0; p < prefix_planes; ++p) {
                    m[set.num_planes - 1 - p] =
                        LoadWordLE(set.planes[p].data() + (i0 >> 3), nbytes);
                  }
                  internal::Transpose64x64(m, set.num_planes);
                  for (std::size_t r = 0; r < nblock; ++r) {
                    coefs[i0 + r] =
                        static_cast<double>(FromNegabinary(m[r])) * inv_scale;
                  }
                }
              });
  return coefs;
}

namespace internal {

Status ValidateBitplaneSet(const BitplaneSet& set, int prefix_planes) {
  if (set.num_planes < 2 || set.num_planes > 60) {
    return Status::Invalid("BitplaneSet: num_planes out of range");
  }
  if (prefix_planes < 0 || prefix_planes > set.num_planes) {
    return Status::Invalid("prefix_planes out of range");
  }
  if (set.planes.size() > static_cast<std::size_t>(set.num_planes)) {
    return Status::Invalid("BitplaneSet: more planes than num_planes");
  }
  if (set.planes.size() < static_cast<std::size_t>(prefix_planes)) {
    return Status::Invalid("BitplaneSet is missing planes");
  }
  // Validate every present plane, not just the first prefix_planes: a set
  // whose tail planes are malformed is corrupt even when this particular
  // decode would not touch them.
  const std::size_t plane_bytes = set.PlaneBytes();
  for (const std::string& p : set.planes) {
    if (p.size() != plane_bytes) {
      return Status::Invalid("plane payload has wrong size");
    }
  }
  return Status::OK();
}

}  // namespace internal

}  // namespace mgardp
