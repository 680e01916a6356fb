// Background model refitting driven by the audit layer.
//
// The trainer closes the drift loop: the auditor's rolling per-level
// monitors flag a stale model, the TrainingSetCollector has been absorbing
// the offending traffic all along, and RunOnce turns that into a new
// candidate — refit with dnn::Train, publish into the ModelRegistry, hand
// to the ShadowEvaluator. Nothing serves until the shadow run proves the
// candidate better.
//
// Two triggers, either fires a refit:
//   * drift: any audited model whose base id matches ours reports a
//     drift_alert (window mean |predicted - oracle| planes past the
//     auditor threshold);
//   * watermark: `watermark` new ground-truthed rows accepted since the
//     last refit (keeps the model fresh even when drift stays subtle).
// Both are gated on min_rows in the reservoir and on no shadow evaluation
// already being in flight — publishing a second candidate while the first
// is still being judged would race the promotion state machine.
//
// Callers drive it inline with RunOnce()/TrainNow(), which keeps refits
// deterministic; the training matmuls fan out on the shared pool.

#ifndef MGARDP_LEARNING_BACKGROUND_TRAINER_H_
#define MGARDP_LEARNING_BACKGROUND_TRAINER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "learning/model_registry.h"
#include "learning/shadow.h"
#include "learning/training_set.h"
#include "models/dmgard.h"
#include "models/emgard.h"
#include "obs/audit.h"

namespace mgardp {

class ServiceMetrics;

namespace learning {

class BackgroundTrainer {
 public:
  struct Options {
    // Registry key and collector bucket; also selects the model family
    // ("emgard" refits EMgardModel, anything else DMgardModel).
    std::string model_id = "dmgard";
    std::size_t min_rows = 48;
    std::uint64_t watermark = 128;
    bool on_drift = true;
    // Minimum newly accepted rows between drift-triggered refits. A
    // retired version's drift window stays alerted forever (no new traffic
    // updates it); without fresh data a refit would reproduce the same
    // model from the same reservoir.
    std::uint64_t drift_cooldown_rows = 16;
    DMgardConfig dmgard;
    EMgardConfig emgard;
    // Progress sink for publish notices, so they never write to the
    // serving process's stdout/stderr.
    std::function<void(const std::string&)> log_fn;
  };

  // All pointers must outlive the trainer; `auditor`, `shadow`, and
  // `metrics` may be null (no drift trigger / no shadow handoff / no
  // counters).
  BackgroundTrainer(TrainingSetCollector* collector, ModelRegistry* registry,
                    ShadowEvaluator* shadow,
                    obs::ErrorControlAuditor* auditor,
                    ServiceMetrics* metrics)
      : BackgroundTrainer(collector, registry, shadow, auditor, metrics,
                          Options()) {}
  BackgroundTrainer(TrainingSetCollector* collector, ModelRegistry* registry,
                    ShadowEvaluator* shadow,
                    obs::ErrorControlAuditor* auditor,
                    ServiceMetrics* metrics, Options options);

  BackgroundTrainer(const BackgroundTrainer&) = delete;
  BackgroundTrainer& operator=(const BackgroundTrainer&) = delete;

  // Evaluates the triggers; refits + publishes + starts shadowing when one
  // fires. Returns the published candidate version, 0 when nothing fired.
  Result<int> RunOnce();

  // Unconditional refit (still requires min_rows of data).
  Result<int> TrainNow();

  std::uint64_t retrains() const;
  bool ShouldTrain() const;  // trigger state, for tests/introspection

 private:
  TrainingSetCollector* collector_;
  ModelRegistry* registry_;
  ShadowEvaluator* shadow_;
  obs::ErrorControlAuditor* auditor_;
  ServiceMetrics* metrics_;
  Options options_;

  mutable std::mutex mu_;
  std::uint64_t retrains_ = 0;
  std::uint64_t trained_at_accepted_ = 0;  // watermark baseline
};

}  // namespace learning
}  // namespace mgardp

#endif  // MGARDP_LEARNING_BACKGROUND_TRAINER_H_
