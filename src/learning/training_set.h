// Audit-driven training sets: the bridge from live traffic to retraining.
//
// The audit layer already sees everything a model refit needs — the field
// summary the features derive from, the per-level sketches, the chosen
// bit-plane prefix, and (when ground truth was attached) the achieved
// error. TrainingSetCollector subscribes to those records through the
// push-based AuditSink and keeps a bounded, seeded reservoir of converted
// RetrievalRecords per (model, level-count) bucket, so an unbounded record
// stream costs O(capacity) memory and every row surviving the reservoir is
// a uniform sample of the traffic seen so far (Algorithm R).
//
// Bucketing by level count matters: a refit trains one MLP chain per
// level, so rows of different shapes cannot share a matrix. The model key
// is normalized by stripping any "@vN" version suffix — traffic served by
// "dmgard@v3" and "dmgard@v4" trains the same base model.

#ifndef MGARDP_LEARNING_TRAINING_SET_H_
#define MGARDP_LEARNING_TRAINING_SET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/training_data.h"
#include "obs/audit.h"
#include "util/rng.h"

namespace mgardp {
namespace learning {

// "dmgard@v3" -> "dmgard"; ids without a version pass through.
std::string BaseModelId(const std::string& model_id);

class TrainingSetCollector : public obs::AuditSink {
 public:
  struct Options {
    // Rows kept per (model, level-count) reservoir.
    std::size_t capacity = 4096;
    std::uint64_t seed = 1;
    // Keep only ground-truthed records (achieved error known); without
    // this the achieved-error training target would be meaningless.
    bool require_actual = true;
  };

  TrainingSetCollector() : TrainingSetCollector(Options()) {}
  explicit TrainingSetCollector(Options options);

  // AuditSink: thread-safe, called on the recording thread. Records
  // without an example payload (no sink was registered when the caller
  // built them, or an internal path) are counted as skipped.
  void OnRecord(const obs::AuditRecord& record) override;

  // Rows currently held for `model` (base id), merged is not needed —
  // rows of one model always share a level count per bucket; when several
  // level counts were seen, the largest bucket wins. Uniform sample of
  // lifetime traffic.
  std::vector<RetrievalRecord> Rows(const std::string& model) const;
  std::size_t RowCount(const std::string& model) const;

  // Lifetime records accepted into `model`'s buckets (not capped by the
  // reservoir) — the BackgroundTrainer's watermark counts these.
  std::uint64_t accepted(const std::string& model) const;
  std::uint64_t total_accepted() const;
  std::uint64_t skipped() const;  // no examples / no ground truth

  void Clear();

 private:
  struct Reservoir {
    std::vector<RetrievalRecord> rows;
    std::uint64_t seen = 0;  // rows offered to this reservoir
    Rng rng;
    explicit Reservoir(std::uint64_t seed) : rng(seed) {}
  };

  Options options_;
  mutable std::mutex mu_;
  // (base model, level count) -> reservoir.
  std::map<std::pair<std::string, std::size_t>, std::unique_ptr<Reservoir>>
      buckets_;
  std::map<std::string, std::uint64_t> accepted_;
  std::uint64_t sequence_ = 0;  // becomes RetrievalRecord.timestep
  std::uint64_t skipped_ = 0;
};

}  // namespace learning
}  // namespace mgardp

#endif  // MGARDP_LEARNING_TRAINING_SET_H_
