#include "storage/fault_injection.h"

#include "util/rng.h"

namespace mgardp {

namespace {

// Mixes (seed, level, plane) into an Rng seed so each key's fault decision
// is independent of every other key and of call order.
std::uint64_t MixSeed(std::uint64_t seed, int level, int plane) {
  std::uint64_t h = seed;
  h ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(level) + 1);
  h ^= 0xC2B2AE3D27D4EB4FULL * (static_cast<std::uint64_t>(plane) + 1);
  return h;
}

// SplitMix64 finalizer: a full-avalanche mix so adjacent node ids land on
// unrelated seeds (a plain XOR would leave the per-key streams of nodes
// 0 and 1 nearly aligned).
std::uint64_t Avalanche(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

FaultConfig FaultConfig::ForNode(int node_id) const {
  FaultConfig derived = *this;
  derived.seed =
      Avalanche(seed ^ (0xA24BAED4963EE407ULL *
                        (static_cast<std::uint64_t>(node_id) + 1)));
  return derived;
}

FaultInjectingBackend::FaultInjectingBackend(StorageBackend* inner,
                                             FaultConfig config)
    : inner_(inner), config_(config) {
  sleep_ = [](double) {};  // record only; tests must not actually wait
}

void FaultInjectingBackend::SetFault(int level, int plane, FaultRule rule) {
  rules_[{level, plane}] = rule;
}

void FaultInjectingBackend::ClearFault(int level, int plane) {
  rules_.erase({level, plane});
}

void FaultInjectingBackend::set_sleep(std::function<void(double)> sleep) {
  sleep_ = std::move(sleep);
}

int FaultInjectingBackend::num_gets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_gets_;
}

int FaultInjectingBackend::num_faults(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fault_counts_.find(kind);
  return it == fault_counts_.end() ? 0 : it->second;
}

double FaultInjectingBackend::total_latency_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_latency_ms_;
}

void FaultInjectingBackend::RecordFault(FaultKind kind) {
  ++fault_counts_[kind];
}

FaultInjectingBackend::FaultRule FaultInjectingBackend::DecideFault(
    int level, int plane) {
  auto it = rules_.find({level, plane});
  if (it != rules_.end()) {
    return it->second;
  }
  // The decision is a function of the key alone: a corrupt segment stays
  // corrupt the same way on every read, a transient one fails its first
  // `transient_failures` reads and then recovers.
  Rng rng(MixSeed(config_.seed, level, plane));
  FaultRule rule;
  if (rng.NextDouble() < config_.missing_prob) {
    rule.kind = FaultKind::kMissing;
  } else if (rng.NextDouble() < config_.transient_prob) {
    rule.kind = FaultKind::kTransient;
    rule.fail_attempts = config_.transient_failures;
  } else if (rng.NextDouble() < config_.corrupt_prob) {
    rule.kind = FaultKind::kBitFlip;
  } else if (rng.NextDouble() < config_.truncate_prob) {
    rule.kind = FaultKind::kTruncate;
  } else if (rng.NextDouble() < config_.latency_prob) {
    rule.kind = FaultKind::kLatency;
    rule.latency_ms = config_.latency_ms;
  }
  return rule;
}

Result<std::string> FaultInjectingBackend::Get(int level, int plane) {
  FaultRule rule;
  bool slow = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++num_gets_;
    const int attempt = attempts_[{level, plane}]++;
    rule = DecideFault(level, plane);
    switch (rule.kind) {
      case FaultKind::kMissing:
        RecordFault(FaultKind::kMissing);
        return Status::NotFound("segment " +
                                container::KeyString(level, plane) +
                                " [injected: missing]");
      case FaultKind::kTransient:
        if (rule.fail_attempts < 0 || attempt < rule.fail_attempts) {
          RecordFault(FaultKind::kTransient);
          return Status::IOError("segment " +
                                 container::KeyString(level, plane) +
                                 " [injected: transient, attempt " +
                                 std::to_string(attempt) + "]");
        }
        break;  // recovered; serve the real payload
      case FaultKind::kLatency:
        RecordFault(FaultKind::kLatency);
        total_latency_ms_ += rule.latency_ms;
        slow = true;
        break;
      default:
        break;
    }
  }
  if (slow) {
    // Outside the lock: a real sleep hook must not stall concurrent Gets.
    sleep_(rule.latency_ms);
  }
  MGARDP_ASSIGN_OR_RETURN(std::string payload, inner_->Get(level, plane));
  if (rule.kind == FaultKind::kBitFlip && !payload.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    RecordFault(FaultKind::kBitFlip);
    Rng rng(MixSeed(config_.seed ^ 0xB17F11Bull, level, plane));
    const std::size_t byte = rng.NextBounded(payload.size());
    payload[byte] ^= static_cast<char>(1u << rng.NextBounded(8));
  } else if (rule.kind == FaultKind::kTruncate && !payload.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    RecordFault(FaultKind::kTruncate);
    Rng rng(MixSeed(config_.seed ^ 0x7A61C473ull, level, plane));
    payload.resize(rng.NextBounded(payload.size()));
  }
  return payload;
}

Status FaultInjectingBackend::Put(int level, int plane, std::string payload) {
  return inner_->Put(level, plane, std::move(payload));
}

}  // namespace mgardp
