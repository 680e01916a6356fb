// Deterministic storage fault injection for robustness testing.
//
// FaultInjectingBackend decorates any StorageBackend and makes it
// misbehave the way long-lived campaign storage actually does: flipped
// bits, truncated reads, vanished segments, transient I/O errors, and slow
// tiers. Faults are either declared per (level, plane) with SetFault or
// drawn probabilistically from a seeded RNG whose stream depends only on
// (seed, level, plane, attempt) — never on call order — so every failure a
// test observes is exactly reproducible from the seed.
//
// Injected latency is recorded and reported through an injectable sleep
// hook (default: no real sleeping), keeping fault-heavy test suites fast.
//
// Thread-safety: Get and the counter accessors are safe to call
// concurrently (the attempt/ fault bookkeeping is internally locked), so a
// fault-injecting node can sit under the cluster backend's concurrent read
// path. SetFault/ClearFault(s)/set_sleep must still be serialized against
// readers, like every other backend's write side.

#ifndef MGARDP_STORAGE_FAULT_INJECTION_H_
#define MGARDP_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "storage/storage_backend.h"
#include "util/status.h"

namespace mgardp {

enum class FaultKind {
  kNone,
  kBitFlip,    // one deterministic bit flipped in the returned payload
  kTruncate,   // payload cut short at a deterministic point
  kMissing,    // NotFound, as if the segment never existed
  kTransient,  // IOError for the first `transient_failures` attempts
  kLatency,    // payload intact, but delivery is slow
};

// Probabilistic fault mix applied to every Get that has no explicit rule.
// All probabilities are per-attempt and independent; evaluation order is
// missing, transient, corrupt (bit flip), truncate, latency.
struct FaultConfig {
  std::uint64_t seed = 0;
  double missing_prob = 0.0;
  double transient_prob = 0.0;
  double corrupt_prob = 0.0;
  double truncate_prob = 0.0;
  double latency_prob = 0.0;
  double latency_ms = 0.0;       // injected when latency triggers
  int transient_failures = 1;    // attempts that fail before success

  // The same mix with a seed derived from (seed, node_id): node i of a
  // multi-node setup gets its own deterministic fault stream instead of
  // every node injecting identical faults for identical keys. ForNode(i)
  // is stable — calling it twice yields the same config — and distinct
  // node ids yield distinct streams.
  FaultConfig ForNode(int node_id) const;
};

class FaultInjectingBackend : public StorageBackend {
 public:
  // An explicit per-key fault, taking precedence over the probabilistic
  // config for that key.
  struct FaultRule {
    FaultKind kind = FaultKind::kNone;
    // For kTransient: attempts that fail before Gets start succeeding.
    // Negative means every attempt fails (a permanently flaky segment).
    int fail_attempts = -1;
    double latency_ms = 0.0;  // for kLatency
  };

  // `inner` must outlive the backend.
  explicit FaultInjectingBackend(StorageBackend* inner,
                                 FaultConfig config = FaultConfig());

  void SetFault(int level, int plane, FaultRule rule);
  void ClearFault(int level, int plane);

  // Replaces the latency sink. Default records without sleeping.
  void set_sleep(std::function<void(double)> sleep);

  // Counters for assertions: total Gets, faults injected by kind, and the
  // latency that would have been experienced.
  int num_gets() const;
  int num_faults(FaultKind kind) const;
  double total_latency_ms() const;

  Result<std::string> Get(int level, int plane) override;
  Status Put(int level, int plane, std::string payload) override;
  bool Contains(int level, int plane) const override {
    return inner_->Contains(level, plane);
  }
  std::vector<std::pair<int, int>> Keys() const override {
    return inner_->Keys();
  }
  std::string name() const override { return "faulty+" + inner_->name(); }

 private:
  // Fault decision for one key, derived deterministically. Caller holds mu_.
  FaultRule DecideFault(int level, int plane);
  void RecordFault(FaultKind kind);  // caller holds mu_

  StorageBackend* inner_;
  FaultConfig config_;
  std::map<std::pair<int, int>, FaultRule> rules_;
  // Guards the per-call bookkeeping below so concurrent Gets (the cluster
  // read path) never race on the attempt counters.
  mutable std::mutex mu_;
  std::map<std::pair<int, int>, int> attempts_;  // Gets seen per key
  std::map<FaultKind, int> fault_counts_;
  std::function<void(double)> sleep_;
  int num_gets_ = 0;
  double total_latency_ms_ = 0.0;
};

}  // namespace mgardp

#endif  // MGARDP_STORAGE_FAULT_INJECTION_H_
