// Replicated sharded serving over N simulated storage nodes.
//
// ClusterBackend glues the consistent-hash ring (cluster/hash_ring.h) to
// the existing single-node backend stack: every node is an independent
// in-memory store, optionally wrapped in a FaultInjectingBackend whose
// fault stream is derived per node (FaultConfig::ForNode), so each node
// misbehaves independently and deterministically. On top sits one
// cluster-wide checksum table — the verifying layer — filled at Put time,
// so a corrupt replica is detected at the reader and failed over, exactly
// like VerifyingBackend over a single faulty store.
//
// Placement: a segment key (field, level, plane) hashes onto the ring, and
// its replica set is the first `replication` *alive* nodes of the key's
// preference list (WalkOrder). Writes go to that set; reads walk the full
// preference list so a read finds the data wherever a past write or a
// repair actually put it, no matter which nodes have died since.
//
// Reads: each candidate is tried through the shared RetryPolicy (transient
// IOErrors retried with deterministic backoff); a verified payload from a
// candidate after the first counts as a failover. Candidates that fail
// permanently accrue consecutive-failure counts and are evicted to kDown at
// a threshold; down nodes are skipped for `probe_after` encounters and then
// probed with a real read, returning to kHealthy on success. Only when
// every candidate fails does the read surface kDataLoss ("all replicas
// lost"), which the fault-tolerant reconstructor upstream degrades
// gracefully by truncating the level prefix.
//
// Scrub/repair: ScrubRepair() walks every key the cluster has accepted,
// finds a verified live copy, and re-replicates it to the key's *current*
// first-R-alive nodes, restoring the replication factor after a node death.
// StartBackgroundScrub runs that loop on a timer thread.
//
// Thread-safety: GetSegment/Contains/Keys and node lifecycle calls are safe
// from any number of threads, concurrently with PutSegment and the
// background scrub (per-node storage is guarded by a shared_mutex, health
// and the checksum table by their own locks). This is deliberately stronger
// than the single-node backends' read-only contract: the chaos harness
// kills nodes and repairs segments while the serving loop is reading.

#ifndef MGARDP_CLUSTER_CLUSTER_BACKEND_H_
#define MGARDP_CLUSTER_CLUSTER_BACKEND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/hash_ring.h"
#include "service/service_metrics.h"
#include "storage/fault_injection.h"
#include "storage/storage_backend.h"
#include "util/retry.h"
#include "util/status.h"

namespace mgardp {

// Health of one simulated node, as the cluster currently believes it.
enum class NodeHealth {
  kHealthy,  // serving
  kSuspect,  // failed recently; still attempted
  kDown,     // evicted after consecutive failures; probed occasionally
  kKilled,   // administratively dead (chaos harness); never attempted
};

struct ClusterOptions {
  int num_nodes = 4;
  int replication = 2;  // clamped to num_nodes
  HashRing::Options ring;
  RetryPolicy::Options retry;

  // When inject_faults is set, every node's store is wrapped in a
  // FaultInjectingBackend configured with fault.ForNode(node_id), so the
  // nodes draw independent deterministic fault streams from one base seed.
  bool inject_faults = false;
  FaultConfig fault;

  // Verify every read against the checksum recorded at Put time and treat
  // a mismatch as a failed replica (failover instead of returning garbage).
  bool verify_checksums = true;

  // Consecutive permanent read failures before a node is evicted to kDown.
  int eviction_threshold = 3;
  // A kDown node is skipped this many times, then probed with a real read.
  int probe_after = 8;
};

class ClusterBackend : public StorageBackend {
 public:
  explicit ClusterBackend(ClusterOptions options = ClusterOptions());
  ~ClusterBackend() override;

  ClusterBackend(const ClusterBackend&) = delete;
  ClusterBackend& operator=(const ClusterBackend&) = delete;

  // -- the general (field-qualified) interface -------------------------
  Result<std::string> GetSegment(const std::string& field_id, int level,
                                 int plane);
  Status PutSegment(const std::string& field_id, int level, int plane,
                    std::string payload);
  bool ContainsSegment(const std::string& field_id, int level,
                       int plane) const;
  std::vector<std::pair<int, int>> FieldKeys(
      const std::string& field_id) const;

  // -- StorageBackend over the default "" field ------------------------
  Result<std::string> Get(int level, int plane) override {
    return GetSegment(std::string(), level, plane);
  }
  Status Put(int level, int plane, std::string payload) override {
    return PutSegment(std::string(), level, plane, std::move(payload));
  }
  bool Contains(int level, int plane) const override {
    return ContainsSegment(std::string(), level, plane);
  }
  std::vector<std::pair<int, int>> Keys() const override {
    return FieldKeys(std::string());
  }
  std::string name() const override;

  // -- node lifecycle (the chaos harness) ------------------------------
  // Makes the node unreachable: reads skip it, writes avoid it.
  void KillNode(int node_id);
  // Brings a node back healthy; with `wipe_data` it returns empty, as a
  // replacement machine would, and relies on scrub/repair to refill.
  void ReviveNode(int node_id, bool wipe_data = false);
  NodeHealth node_health(int node_id) const;

  // -- scrub / repair --------------------------------------------------
  struct ScrubReport {
    std::uint64_t segments = 0;          // keys examined
    std::uint64_t under_replicated = 0;  // keys short of R live copies
    std::uint64_t repaired = 0;          // replica copies re-created
    std::uint64_t lost = 0;              // keys with no verified copy left
  };

  // One full pass: re-replicates every under-replicated segment onto its
  // current first-R-alive nodes. Safe concurrently with reads and writes.
  ScrubReport ScrubRepair();

  void StartBackgroundScrub(int period_ms);
  void StopBackgroundScrub();

  // -- observability ---------------------------------------------------
  struct Stats {
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t retries = 0;        // transient-retries inside reads
    std::uint64_t failovers = 0;      // reads served past the 1st candidate
    std::uint64_t replicas_lost = 0;  // reads with no live replica at all
    std::uint64_t under_replicated_writes = 0;
    std::uint64_t probes = 0;      // reads attempted against kDown nodes
    std::uint64_t evictions = 0;   // health transitions into kDown
    std::uint64_t recoveries = 0;  // kDown nodes brought back by a probe
    std::uint64_t scrub_repaired = 0;
    std::uint64_t scrub_lost = 0;
  };
  Stats stats() const;

  // Mirrors failover/retry/loss events into shared service metrics
  // (retries_total, failovers_total, replicas_lost). Optional.
  void set_metrics(ServiceMetrics* metrics) { metrics_ = metrics; }

  int num_nodes() const { return options_.num_nodes; }
  int replication() const { return replication_; }
  const HashRing& ring() const { return ring_; }

  // -- test accessors --------------------------------------------------
  // Whether `node_id`'s local store holds the key (ignores health).
  bool NodeContains(int node_id, const std::string& field_id, int level,
                    int plane) const;
  // The key's current replica target: first `replication` alive nodes of
  // its preference list.
  std::vector<int> ReplicasFor(const std::string& field_id, int level,
                               int plane) const;
  // The node's fault layer, or nullptr when inject_faults is off or the
  // node has not stored anything for `field_id` yet.
  FaultInjectingBackend* node_fault_backend(int node_id,
                                            const std::string& field_id);

 private:
  // One field's storage stack on one node.
  struct FieldStore {
    MemoryBackend memory;
    std::unique_ptr<FaultInjectingBackend> faulty;  // set iff inject_faults
    StorageBackend* top = nullptr;  // faulty.get() or &memory
  };

  struct Node {
    int id = 0;
    // Guards `fields` and every backend under it: reads take shared,
    // writes (Put, repair, wipe) exclusive.
    mutable std::shared_mutex storage_mu;
    std::map<std::string, std::unique_ptr<FieldStore>> fields;
    // Health state, guarded by the cluster-wide health_mu_.
    NodeHealth health = NodeHealth::kHealthy;
    int consecutive_failures = 0;
    int skips_since_down = 0;
  };

  // Reads (level, plane) of `field_id` from one node's stack; NotFound
  // when the node never stored that field/key.
  Result<std::string> NodeGet(Node& node, const std::string& field_id,
                              int level, int plane);
  // Writes directly into the node's memory store (faults are read-side).
  Status NodePut(Node& node, const std::string& field_id, int level,
                 int plane, std::string payload);

  // Health bookkeeping. `probing` reports whether this attempt is a probe
  // of a kDown node.
  bool ShouldAttempt(Node& node, bool* probing);
  void RecordNodeAlive(Node& node);    // resets failures, recovers kDown
  void RecordNodeFailure(Node& node);  // may evict to kDown

  // Expected checksum recorded at Put time; false when the key is unknown.
  bool LookupChecksum(const std::string& field_id, int level, int plane,
                      std::uint32_t* crc) const;

  ClusterOptions options_;
  int replication_;
  HashRing ring_;
  RetryPolicy retry_;
  std::vector<std::unique_ptr<Node>> nodes_;

  mutable std::mutex health_mu_;

  // (field, level, plane) -> CRC recorded when the cluster accepted the
  // segment. Doubles as the catalog of every key the cluster owns.
  mutable std::shared_mutex checksums_mu_;
  std::map<std::tuple<std::string, int, int>, std::uint32_t> checksums_;

  ServiceMetrics* metrics_ = nullptr;

  // Background scrub thread.
  std::mutex scrub_mu_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;
  std::thread scrub_thread_;

  // Stats: relaxed atomics, snapshot via stats().
  std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> replicas_lost_{0};
  std::atomic<std::uint64_t> under_replicated_writes_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> scrub_repaired_{0};
  std::atomic<std::uint64_t> scrub_lost_{0};
};

// A StorageBackend view of one field on the cluster, so the per-field
// retrieval stack (sessions, caches, fault-tolerant reconstruction) plugs
// into replicated storage unchanged. The cluster must outlive the view.
class ClusterFieldView : public StorageBackend {
 public:
  ClusterFieldView(ClusterBackend* cluster, std::string field_id)
      : cluster_(cluster), field_id_(std::move(field_id)) {}

  Result<std::string> Get(int level, int plane) override {
    return cluster_->GetSegment(field_id_, level, plane);
  }
  Status Put(int level, int plane, std::string payload) override {
    return cluster_->PutSegment(field_id_, level, plane, std::move(payload));
  }
  bool Contains(int level, int plane) const override {
    return cluster_->ContainsSegment(field_id_, level, plane);
  }
  std::vector<std::pair<int, int>> Keys() const override {
    return cluster_->FieldKeys(field_id_);
  }
  std::string name() const override {
    return "cluster-view:" + field_id_;
  }

  const std::string& field_id() const { return field_id_; }

 private:
  ClusterBackend* cluster_;
  std::string field_id_;
};

}  // namespace mgardp

#endif  // MGARDP_CLUSTER_CLUSTER_BACKEND_H_
