#include "progressive/error_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "progressive/reconstructor.h"
#include "util/logging.h"
#include "util/stats.h"

namespace mgardp {

namespace {

// Exponents reach K - level + 1 <= num_steps + 1; hierarchies cap well
// below this (each step halves every axis of a size_t extent).
constexpr int kMaxPowExp = 80;

}  // namespace

double TermTable::Sum(const std::vector<int>& prefix) const {
  MGARDP_DCHECK_EQ(prefix.size(), term.size());
  double sum = 0.0;
  for (std::size_t l = 0; l < term.size(); ++l) {
    const int b =
        std::clamp(prefix[l], 0, static_cast<int>(term[l].size()) - 1);
    sum += term[l][b];
  }
  return sum * scale;
}

const double* TheoryEstimator::PowTable(int d) {
  // Cached exact std::pow values per dimensionality; thread-safe via the
  // magic static, and identical to calling std::pow at use time.
  static const std::vector<double> tables = [] {
    std::vector<double> t(3 * (kMaxPowExp + 1));
    for (int dim = 1; dim <= 3; ++dim) {
      const double per_step = 1.0 + 1.5 * static_cast<double>(dim);
      for (int n = 0; n <= kMaxPowExp; ++n) {
        t[(dim - 1) * (kMaxPowExp + 1) + n] =
            std::pow(per_step, static_cast<double>(n));
      }
    }
    return t;
  }();
  return (d >= 1 && d <= 3) ? &tables[(d - 1) * (kMaxPowExp + 1)] : nullptr;
}

double TheoryEstimator::LevelConstant(const RefactoredField& field,
                                      int level) const {
  const int K = field.hierarchy.num_steps();
  const int d = field.hierarchy.dims().dimensionality();
  // One recomposition step can amplify a coefficient error by a factor of
  // up to 1 + 1.5d (direct placement plus per-axis mass-matrix correction
  // whose inverse has inf-norm <= 3/2). Level l detail passes through
  // K - l + 1 steps' worth of worst-case growth under the absolute-row-sum
  // combination -- no cancellation credited anywhere.
  const int n = K - level + 1;
  const double* table = PowTable(d);
  if (table != nullptr && n >= 0 && n <= kMaxPowExp) {
    return slack_ * table[n];
  }
  const double per_step = 1.0 + 1.5 * static_cast<double>(d);
  return slack_ * std::pow(per_step, static_cast<double>(n));
}

double TheoryEstimator::Estimate(const RefactoredField& field,
                                 const std::vector<int>& prefix) const {
  MGARDP_CHECK_EQ(prefix.size(),
                  static_cast<std::size_t>(field.num_levels()));
  double est = 0.0;
  for (int l = 0; l < field.num_levels(); ++l) {
    const auto& max_abs = field.level_errors[l].max_abs;
    const int b = std::clamp(prefix[l], 0,
                             static_cast<int>(max_abs.size()) - 1);
    est += LevelConstant(field, l) * max_abs[b];
  }
  return est;
}

std::optional<TermTable> TheoryEstimator::Terms(
    const RefactoredField& field) const {
  TermTable table;
  table.term.resize(field.num_levels());
  for (int l = 0; l < field.num_levels(); ++l) {
    const auto& max_abs = field.level_errors[l].max_abs;
    if (max_abs.empty()) {
      return std::nullopt;
    }
    const double c = LevelConstant(field, l);
    for (double err : max_abs) {
      table.term[l].push_back(c * err);
    }
  }
  return table;
}

const double* SNormEstimator::PowTable(int d) {
  static const std::vector<double> tables = [] {
    std::vector<double> t(3 * (kMaxPowExp + 1));
    for (int dim = 1; dim <= 3; ++dim) {
      const double per_step = 1.0 + 0.5 * static_cast<double>(dim);
      for (int n = 0; n <= kMaxPowExp; ++n) {
        t[(dim - 1) * (kMaxPowExp + 1) + n] =
            std::pow(per_step, static_cast<double>(n));
      }
    }
    return t;
  }();
  return (d >= 1 && d <= 3) ? &tables[(d - 1) * (kMaxPowExp + 1)] : nullptr;
}

double SNormEstimator::LevelConstant(const RefactoredField& field,
                                     int level) const {
  const int K = field.hierarchy.num_steps();
  const int d = field.hierarchy.dims().dimensionality();
  // L2 amplification per recomposition step is milder than max-norm (the
  // mass solve is an L2 contraction and interpolation has norm <= 1 per
  // axis up to the mesh weights); 1 + d/2 per step is a conservative
  // engineering constant of the same flavour as the max-norm estimator's.
  const int n = K - level + 1;
  const double* table = PowTable(d);
  if (table != nullptr && n >= 0 && n <= kMaxPowExp) {
    return slack_ * table[n];
  }
  const double per_step = 1.0 + 0.5 * static_cast<double>(d);
  return slack_ * std::pow(per_step, static_cast<double>(n));
}

double SNormEstimator::Estimate(const RefactoredField& field,
                                const std::vector<int>& prefix) const {
  MGARDP_CHECK_EQ(prefix.size(),
                  static_cast<std::size_t>(field.num_levels()));
  const double total = static_cast<double>(field.hierarchy.TotalSize());
  double sum = 0.0;
  for (int l = 0; l < field.num_levels(); ++l) {
    const auto& mse = field.level_errors[l].mse;
    const int b = std::clamp(prefix[l], 0, static_cast<int>(mse.size()) - 1);
    const double a = LevelConstant(field, l);
    const double frac =
        static_cast<double>(field.hierarchy.LevelSize(l)) / total;
    sum += a * a * mse[b] * frac;
  }
  return std::sqrt(sum);
}

double PsnrToRmsBound(double range, double psnr_db) {
  return range / std::pow(10.0, psnr_db / 20.0);
}

Result<double> OracleEstimator::TryEstimate(
    const RefactoredField& field, const std::vector<int>& prefix) const {
  MGARDP_CHECK(original_ != nullptr);
  MGARDP_ASSIGN_OR_RETURN(Array3Dd rec, ReconstructFromPrefix(field, prefix));
  return MaxAbsError(original_->vector(), rec.vector());
}

double OracleEstimator::Estimate(const RefactoredField& field,
                                 const std::vector<int>& prefix) const {
  // An unreconstructible prefix (corrupt or missing segments) is
  // infinitely inaccurate: no planner accepts it, and callers that need
  // the cause use TryEstimate.
  auto result = TryEstimate(field, prefix);
  return result.ok() ? result.value()
                     : std::numeric_limits<double>::infinity();
}

}  // namespace mgardp
