#include "learning/training_set.h"

#include <algorithm>
#include <utility>

#include "models/features.h"

namespace mgardp {
namespace learning {

namespace {

// Stable 64-bit key hash (FNV-1a) for deriving per-bucket RNG seeds.
std::uint64_t HashKey(const std::string& model, std::size_t levels) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : model) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  h = (h ^ levels) * 1099511628211ull;
  return h;
}

}  // namespace

std::string BaseModelId(const std::string& model_id) {
  const std::size_t at = model_id.rfind("@v");
  if (at == std::string::npos) {
    return model_id;
  }
  // Only strip a real version suffix ("@v" followed by digits).
  for (std::size_t i = at + 2; i < model_id.size(); ++i) {
    if (model_id[i] < '0' || model_id[i] > '9') {
      return model_id;
    }
  }
  return at + 2 < model_id.size() ? model_id.substr(0, at) : model_id;
}

TrainingSetCollector::TrainingSetCollector(Options options)
    : options_(options) {
  if (options_.capacity == 0) {
    options_.capacity = 1;
  }
}

void TrainingSetCollector::OnRecord(const obs::AuditRecord& record) {
  if (!record.has_examples() ||
      (options_.require_actual && !record.has_actual()) ||
      record.predicted_prefix.empty() ||
      record.level_errors.size() != record.predicted_prefix.size() ||
      record.sketches.size() != record.predicted_prefix.size()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++skipped_;
    return;
  }

  RetrievalRecord row;
  row.requested_abs_error = record.requested_tolerance;
  const double range = record.summary.range();
  row.requested_rel_error =
      range > 0.0 ? record.requested_tolerance / range : 0.0;
  row.achieved_error = record.actual_error;
  row.estimated_error = record.predicted_error;
  row.total_bytes = record.bytes_fetched;
  row.bitplanes = record.predicted_prefix;
  row.level_errors = record.level_errors;
  row.features = ExtractDataFeatures(record.summary);
  row.sketches = record.sketches;
  row.is_ladder = false;

  const std::string model = BaseModelId(record.model);
  const std::pair<std::string, std::size_t> key{
      model, record.predicted_prefix.size()};

  std::lock_guard<std::mutex> lock(mu_);
  // A per-collector sequence number stands in for the timestep: DMgard's
  // trainer dedups rows by (timestep, prefix), and live traffic carries no
  // frame identity — distinct requests must stay distinct rows.
  row.timestep = static_cast<int>(++sequence_);
  auto it = buckets_.find(key);
  if (it == buckets_.end()) {
    it = buckets_
             .emplace(key, std::make_unique<Reservoir>(
                               options_.seed ^ HashKey(model, key.second)))
             .first;
  }
  Reservoir& r = *it->second;
  ++r.seen;
  ++accepted_[model];
  if (r.rows.size() < options_.capacity) {
    r.rows.push_back(std::move(row));
  } else {
    // Algorithm R: replace a uniform victim with probability capacity/seen.
    const std::uint64_t j = r.rng.NextBounded(r.seen);
    if (j < options_.capacity) {
      r.rows[j] = std::move(row);
    }
  }
}

std::vector<RetrievalRecord> TrainingSetCollector::Rows(
    const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Reservoir* best = nullptr;
  for (const auto& [key, r] : buckets_) {
    if (key.first != model) {
      continue;
    }
    if (best == nullptr || r->rows.size() > best->rows.size()) {
      best = r.get();
    }
  }
  return best != nullptr ? best->rows : std::vector<RetrievalRecord>{};
}

std::size_t TrainingSetCollector::RowCount(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t largest = 0;
  for (const auto& [key, r] : buckets_) {
    if (key.first == model) {
      largest = std::max(largest, r->rows.size());
    }
  }
  return largest;
}

std::uint64_t TrainingSetCollector::accepted(
    const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = accepted_.find(model);
  return it == accepted_.end() ? 0 : it->second;
}

std::uint64_t TrainingSetCollector::total_accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [model, n] : accepted_) {
    total += n;
  }
  return total;
}

std::uint64_t TrainingSetCollector::skipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return skipped_;
}

void TrainingSetCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buckets_.clear();
  accepted_.clear();
  skipped_ = 0;
}

}  // namespace learning
}  // namespace mgardp
