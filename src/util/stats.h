// Summary statistics over scalar fields.
//
// Used both for experiment reporting (max error, PSNR) and as the statistical
// data-feature vector F fed to the DNN models (Sec. III-C of the paper).

#ifndef MGARDP_UTIL_STATS_H_
#define MGARDP_UTIL_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace mgardp {

// One-pass summary of a scalar field.
struct FieldSummary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double skewness = 0.0;
  double kurtosis = 0.0;  // excess kurtosis (normal = 0)
  double abs_mean = 0.0;
  double abs_max = 0.0;
  double l2_norm = 0.0;

  double range() const { return max - min; }
  std::string ToString() const;
};

// Computes moments/extrema of `values` in a single pass.
FieldSummary Summarize(const std::vector<double>& values);
FieldSummary Summarize(const double* values, std::size_t n);

// Maximum absolute pointwise difference between two equally sized fields.
double MaxAbsError(const std::vector<double>& a, const std::vector<double>& b);

// Root-mean-square pointwise difference.
double RmsError(const std::vector<double>& a, const std::vector<double>& b);

// Peak signal-to-noise ratio in dB: 20*log10(range(a) / rmse). Returns +inf
// when the error is zero and -inf when the range is zero with nonzero error.
double Psnr(const std::vector<double>& original,
            const std::vector<double>& reconstructed);

// q-th quantile (0 <= q <= 1) with linear interpolation; copies and sorts.
double Quantile(std::vector<double> values, double q);

// Evenly spaced quantiles of |values|, used as a fixed-size sketch of a
// coefficient distribution (E-MGARD encoder input). Returns `bins` values:
// the (i+0.5)/bins quantiles of the absolute values, ascending, exactly
// (bit for bit) what Quantile's sort-and-interpolate gives. The order
// statistics come from a radix select on the IEEE-754 bits of |v|: one
// histogram pass over the top 16 bits finds the bucket of every wanted
// rank, and only those buckets' values are gathered and partially sorted.
std::vector<double> AbsQuantileSketch(const std::vector<double>& values,
                                      std::size_t bins);

// Pearson correlation between two equally sized samples. Returns 0 when
// either sample has zero variance.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace mgardp

#endif  // MGARDP_UTIL_STATS_H_
