#include "models/training_data.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "models/features.h"
#include "progressive/error_estimator.h"
#include "util/stats.h"

namespace mgardp {

std::vector<double> PaperRelativeErrorBounds() {
  std::vector<double> bounds;
  bounds.reserve(81);
  for (int decade = -9; decade <= -1; ++decade) {
    for (int mantissa = 1; mantissa <= 9; ++mantissa) {
      bounds.push_back(static_cast<double>(mantissa) *
                       std::pow(10.0, decade));
    }
  }
  return bounds;
}

std::vector<double> SubsampledRelativeErrorBounds(int per_decade) {
  std::vector<double> bounds;
  for (int decade = -9; decade <= -1; ++decade) {
    for (int i = 0; i < per_decade; ++i) {
      const double mantissa =
          1.0 + 8.0 * static_cast<double>(i) /
                    std::max(1, per_decade - 1);
      bounds.push_back(mantissa * std::pow(10.0, decade));
    }
    if (per_decade == 1) {
      bounds.back() = std::pow(10.0, decade);
    }
  }
  return bounds;
}

Result<std::vector<RetrievalRecord>> CollectRecords(
    const FieldSeries& series, const std::vector<int>& timesteps,
    const CollectOptions& options) {
  std::vector<double> bounds = options.rel_bounds;
  if (bounds.empty()) {
    bounds = PaperRelativeErrorBounds();
  }
  Refactorer refactorer(options.refactor);
  TheoryEstimator theory;
  Reconstructor reconstructor(&theory);

  std::vector<RetrievalRecord> records;
  records.reserve(timesteps.size() * bounds.size());
  for (int t : timesteps) {
    if (t < 0 || t >= series.num_timesteps()) {
      std::ostringstream os;
      os << "timestep " << t << " outside series of "
         << series.num_timesteps();
      return Status::OutOfRange(os.str());
    }
    const Array3Dd& original = series.frames[t];
    MGARDP_ASSIGN_OR_RETURN(RefactoredField field,
                            refactorer.Refactor(original));
    const double range = field.data_summary.range();
    const std::vector<double> features =
        ExtractDataFeatures(field.data_summary);

    // Distinct prefixes reconstruct once.
    std::map<std::vector<int>, double> achieved_cache;
    auto achieved_for = [&](const std::vector<int>& prefix)
        -> Result<double> {
      auto it = achieved_cache.find(prefix);
      if (it == achieved_cache.end()) {
        MGARDP_ASSIGN_OR_RETURN(Array3Dd reconstructed,
                                ReconstructFromPrefix(field, prefix));
        const double err =
            MaxAbsError(original.vector(), reconstructed.vector());
        it = achieved_cache.emplace(prefix, err).first;
      }
      return it->second;
    };
    auto make_record = [&](const std::vector<int>& prefix, double achieved,
                           bool ladder) {
      RetrievalRecord rec;
      rec.timestep = t;
      rec.achieved_error = achieved;
      rec.total_bytes = SizeInterpreter(field.plane_sizes).TotalBytes(prefix);
      rec.bitplanes = prefix;
      rec.level_errors.resize(field.num_levels());
      for (int l = 0; l < field.num_levels(); ++l) {
        const auto& max_abs = field.level_errors[l].max_abs;
        const int b = std::clamp(prefix[l], 0,
                                 static_cast<int>(max_abs.size()) - 1);
        rec.level_errors[l] = max_abs[b];
      }
      rec.features = features;
      rec.sketches = field.level_sketches;
      rec.is_ladder = ladder;
      return rec;
    };
    for (double rel : bounds) {
      const double abs_bound = rel * range;
      if (!(abs_bound > 0.0)) {
        continue;  // constant fields have zero range; skip
      }
      MGARDP_ASSIGN_OR_RETURN(RetrievalPlan plan,
                              reconstructor.Plan(field, abs_bound));
      MGARDP_ASSIGN_OR_RETURN(double achieved, achieved_for(plan.prefix));
      RetrievalRecord rec = make_record(plan.prefix, achieved,
                                        /*ladder=*/false);
      rec.requested_rel_error = rel;
      rec.requested_abs_error = abs_bound;
      rec.estimated_error = plan.estimated_error;
      records.push_back(std::move(rec));
    }

    // Ladder rows: uniform and coarse-biased staircase prefixes spanning
    // shallow to deep retrieval states.
    const int B = options.refactor.num_planes;
    const int L = field.num_levels();
    for (int i = 0; i < options.ladder_points; ++i) {
      const int depth =
          1 + i * std::max(1, B / std::max(1, options.ladder_points));
      if (depth > B) {
        break;
      }
      std::vector<int> uniform(L, depth);
      MGARDP_ASSIGN_OR_RETURN(double u_err, achieved_for(uniform));
      records.push_back(make_record(uniform, u_err, /*ladder=*/true));

      std::vector<int> staircase(L);
      for (int l = 0; l < L; ++l) {
        staircase[l] = std::min(B, depth + 4 * (L - 1 - l));
      }
      MGARDP_ASSIGN_OR_RETURN(double s_err, achieved_for(staircase));
      records.push_back(make_record(staircase, s_err, /*ladder=*/true));
    }
  }
  return records;
}

}  // namespace mgardp
