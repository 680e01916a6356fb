// Error estimators: map a per-level bit-plane prefix vector to an estimate
// of the maximum reconstruction error.
//
// The baseline TheoryEstimator implements the conservative bound of
// Equation 6, err <= C * sum_l Err[l][b_l], with per-level absolute-row-sum
// amplification constants derived from the recomposition operators. It
// deliberately neglects sign cancellation between coefficient errors --
// exactly the over-pessimism (Sec. II-C, Fig. 2) that motivates the paper.
// E-MGARD plugs in here as a LearnedConstantsEstimator (see
// models/emgard.h) implementing Equation 7, err <= sum_l C_l * Err[l][b_l].

#ifndef MGARDP_PROGRESSIVE_ERROR_ESTIMATOR_H_
#define MGARDP_PROGRESSIVE_ERROR_ESTIMATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "progressive/refactored_field.h"

namespace mgardp {

// The separable form of an estimate on one field: scale times a sum of one
// term per level. term[l][b] is level l's term with b planes fetched, for
// every b in [0, level_errors[l].max_abs.size() - 1].
struct TermTable {
  std::vector<std::vector<double>> term;
  double scale = 1.0;

  // scale * sum_l term[l][clamp(prefix[l])], summed in level order from
  // 0.0 -- the arithmetic of the estimators that build tables, so Sum is
  // bit-identical to their Estimate.
  double Sum(const std::vector<int>& prefix) const;
};

class ErrorEstimator {
 public:
  virtual ~ErrorEstimator() = default;

  // Estimated maximum absolute reconstruction error when the first
  // prefix[l] planes of each level are retrieved. prefix.size() ==
  // field.num_levels(). Implementations that can fail internally (oracle
  // reconstruction, learned-model inference) report +infinity here — a
  // prefix whose accuracy cannot be established never satisfies a bound —
  // and expose the underlying error through TryEstimate.
  virtual double Estimate(const RefactoredField& field,
                          const std::vector<int>& prefix) const = 0;

  // Fallible variant: same value as Estimate, but internal failures
  // propagate as Status instead of collapsing to +infinity. The default
  // covers infallible estimators.
  virtual Result<double> TryEstimate(const RefactoredField& field,
                                     const std::vector<int>& prefix) const {
    return Estimate(field, prefix);
  }

  // The per-field term table, for estimators whose estimate is a scaled
  // per-level sum: TermTable::Sum(prefix) must equal Estimate(field,
  // prefix) bit for bit. A greedy planning call builds it once and scores
  // every candidate prefix from it. The default, std::nullopt, makes the
  // planners call Estimate per candidate -- the right choice for
  // estimators that are not separable (oracle, RMS) and for decorators,
  // which must see every call; so does a table that cannot be built.
  virtual std::optional<TermTable> Terms(
      const RefactoredField& /*field*/) const {
    return std::nullopt;
  }

  virtual std::string name() const = 0;
};

// The original MGARD theory-based estimator. Per-level constants
//   C_l = slack * (1 + 1.5 * d)^(K - l + 1)
// where d is the data dimensionality: each recomposition step can amplify a
// level's max coefficient error by 1 (direct placement) plus up to 3/2 per
// axis through the mass-matrix correction solve (inf-norm bound of the
// inverse), and the absolute-row-sum combination simply adds every level's
// worst case. `slack` (default 2) mirrors the additional safety margin of
// the production implementation.
class TheoryEstimator : public ErrorEstimator {
 public:
  explicit TheoryEstimator(double slack = 2.0) : slack_(slack) {}

  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  // term[l][b] = LevelConstant(field, l) * max_abs[b], scale 1.
  std::optional<TermTable> Terms(const RefactoredField& field) const override;
  std::string name() const override { return "theory"; }

  // The per-level constant used for `field` (exposed for analysis benches).
  double LevelConstant(const RefactoredField& field, int level) const;

 private:
  double slack_;
  // pow((1 + 1.5 * d), n) for d in {1, 2, 3}, n in [0, kMaxPowExp]. A
  // libm pow per level per Estimate call would dominate planning through a
  // decorator; the table holds the exact same std::pow values.
  static const double* PowTable(int d);
};

// An L2 companion to TheoryEstimator: estimates the ROOT-MEAN-SQUARE
// reconstruction error from the per-level MSE matrices,
//   rms^2 <= sum_l A_l^2 * mse_l * (count_l / N),
// with conservative per-level amplification constants A_l of the same form
// as the max-norm estimator. Useful when the user targets PSNR rather than
// a pointwise bound; pair it with PsnrToRmsBound below.
class SNormEstimator : public ErrorEstimator {
 public:
  explicit SNormEstimator(double slack = 2.0) : slack_(slack) {}

  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  std::string name() const override { return "snorm"; }

  double LevelConstant(const RefactoredField& field, int level) const;

 private:
  double slack_;
  // pow((1 + 0.5 * d), n) tables, same rationale as TheoryEstimator's.
  static const double* PowTable(int d);
};

// The RMS bound equivalent to a PSNR target for data of value range
// `range`: psnr = 20 log10(range / rms).
double PsnrToRmsBound(double range, double psnr_db);

// An oracle with access to the original data: reports the *actual* max
// reconstruction error for a prefix by running the full decode+recompose.
// Not usable in production (requires the original data and is O(N) per
// query); used by benches to compute the "requested tolerance" lower bound
// of Fig. 1 and by the training-data collector.
class OracleEstimator : public ErrorEstimator {
 public:
  // `original` must outlive the estimator.
  OracleEstimator(const Array3Dd* original) : original_(original) {}

  // +infinity when the prefix cannot be reconstructed (e.g. segments are
  // corrupt); TryEstimate carries the underlying Status.
  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  Result<double> TryEstimate(const RefactoredField& field,
                             const std::vector<int>& prefix) const override;
  std::string name() const override { return "oracle"; }

 private:
  const Array3Dd* original_;
};

}  // namespace mgardp

#endif  // MGARDP_PROGRESSIVE_ERROR_ESTIMATOR_H_
