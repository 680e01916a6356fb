#include "cluster/cluster_backend.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/tracer.h"
#include "storage/container_format.h"
#include "storage/segment_store.h"

namespace mgardp {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

// FNV-1a of the field id, mixed into per-node fault seeds so two fields on
// one node draw independent fault streams.
std::uint64_t HashField(const std::string& field_id) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : field_id) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string SegmentName(const std::string& field_id, int level, int plane) {
  std::string out = field_id.empty() ? "<default>" : field_id;
  out += '/';
  out += container::KeyString(level, plane);
  return out;
}

}  // namespace

ClusterBackend::ClusterBackend(ClusterOptions options)
    : options_(options),
      replication_(std::max(1, std::min(options.replication,
                                        options.num_nodes))),
      ring_(options.num_nodes, options.ring),
      retry_(options.retry) {
  assert(options_.num_nodes >= 1);
  retry_.set_sleep([](double) {});  // simulated cluster: never really wait
  nodes_.reserve(static_cast<std::size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    auto node = std::make_unique<Node>();
    node->id = i;
    nodes_.push_back(std::move(node));
  }
}

ClusterBackend::~ClusterBackend() { StopBackgroundScrub(); }

std::string ClusterBackend::name() const {
  return "cluster(n=" + std::to_string(options_.num_nodes) +
         ",r=" + std::to_string(replication_) + ")";
}

Result<std::string> ClusterBackend::NodeGet(Node& node,
                                            const std::string& field_id,
                                            int level, int plane) {
  std::shared_lock<std::shared_mutex> lock(node.storage_mu);
  auto it = node.fields.find(field_id);
  if (it == node.fields.end()) {
    return Status::NotFound("node " + std::to_string(node.id) +
                            " holds nothing of " +
                            SegmentName(field_id, level, plane));
  }
  return it->second->top->Get(level, plane);
}

Status ClusterBackend::NodePut(Node& node, const std::string& field_id,
                               int level, int plane, std::string payload) {
  std::unique_lock<std::shared_mutex> lock(node.storage_mu);
  auto it = node.fields.find(field_id);
  if (it == node.fields.end()) {
    auto store = std::make_unique<FieldStore>();
    if (options_.inject_faults) {
      FaultConfig config = options_.fault.ForNode(node.id);
      config.seed ^= HashField(field_id);
      store->faulty =
          std::make_unique<FaultInjectingBackend>(&store->memory, config);
      store->top = store->faulty.get();
    } else {
      store->top = &store->memory;
    }
    it = node.fields.emplace(field_id, std::move(store)).first;
  }
  // Straight into memory: injected faults are read-side media behavior.
  return it->second->memory.Put(level, plane, std::move(payload));
}

bool ClusterBackend::ShouldAttempt(Node& node, bool* probing) {
  *probing = false;
  std::lock_guard<std::mutex> lock(health_mu_);
  switch (node.health) {
    case NodeHealth::kKilled:
      return false;
    case NodeHealth::kDown:
      if (++node.skips_since_down >= options_.probe_after) {
        node.skips_since_down = 0;
        *probing = true;
        probes_.fetch_add(1, kRelaxed);
        return true;
      }
      return false;
    default:
      return true;
  }
}

void ClusterBackend::RecordNodeAlive(Node& node) {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (node.health == NodeHealth::kKilled) {
    return;  // an in-flight read raced the kill; stay killed
  }
  node.consecutive_failures = 0;
  node.skips_since_down = 0;
  if (node.health == NodeHealth::kDown) {
    recoveries_.fetch_add(1, kRelaxed);
  }
  node.health = NodeHealth::kHealthy;
}

void ClusterBackend::RecordNodeFailure(Node& node) {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (node.health == NodeHealth::kKilled) {
    return;
  }
  ++node.consecutive_failures;
  if (node.consecutive_failures >= options_.eviction_threshold) {
    if (node.health != NodeHealth::kDown) {
      node.health = NodeHealth::kDown;
      evictions_.fetch_add(1, kRelaxed);
    }
    node.skips_since_down = 0;
  } else {
    node.health = NodeHealth::kSuspect;
  }
}

bool ClusterBackend::LookupChecksum(const std::string& field_id, int level,
                                    int plane, std::uint32_t* crc) const {
  std::shared_lock<std::shared_mutex> lock(checksums_mu_);
  auto it = checksums_.find(std::make_tuple(field_id, level, plane));
  if (it == checksums_.end()) {
    return false;
  }
  *crc = it->second;
  return true;
}

Result<std::string> ClusterBackend::GetSegment(const std::string& field_id,
                                               int level, int plane) {
  MGARDP_TRACE_SPAN("cluster/get", "cluster");
  gets_.fetch_add(1, kRelaxed);
  const std::uint64_t hash = HashRing::KeyHash(field_id, level, plane);
  std::uint32_t expected_crc = 0;
  const bool known = LookupChecksum(field_id, level, plane, &expected_crc);

  // The failover walk is only visible as a whole: each replica attempt is
  // its own span below, and when the first candidate did not serve, the
  // full walk is recorded as an externally-timed "cluster/failover_walk"
  // interval — a retained request trace then shows exactly how long the
  // request spent walking dead or corrupt replicas.
  obs::Tracer& tracer = obs::GlobalTracer();
  const bool walk_traced = tracer.enabled();
  const auto walk_start = walk_traced ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point{};
  const auto record_failover_walk = [&] {
    if (!walk_traced) {
      return;
    }
    static obs::StageStats* const walk_stage =
        obs::GlobalTracer().GetOrCreateStage("cluster/failover_walk",
                                             "cluster");
    tracer.RecordInterval(walk_stage, walk_start,
                          std::chrono::steady_clock::now());
  };

  // Candidates passed over before the one that finally served: skipped
  // (killed/down), answered without the payload, or failed. Success with
  // any passed-over candidate ahead of it is a failover.
  int passed_over = 0;
  for (int node_id : ring_.WalkOrder(hash)) {
    Node& node = *nodes_[static_cast<std::size_t>(node_id)];
    bool probing = false;
    if (!ShouldAttempt(node, &probing)) {
      ++passed_over;
      continue;
    }
    (void)probing;  // the probe itself is counted inside ShouldAttempt
    int retries = 0;
    Result<std::string> outcome = [&] {
      MGARDP_TRACE_SPAN("cluster/replica_read", "cluster");
      return retry_.Run(
          [&] { return NodeGet(node, field_id, level, plane); },
          hash ^ static_cast<std::uint64_t>(node_id), &retries);
    }();
    if (retries > 0) {
      retries_.fetch_add(static_cast<std::uint64_t>(retries), kRelaxed);
      if (metrics_ != nullptr) {
        metrics_->OnRetries(retries);
      }
    }
    if (outcome.ok()) {
      RecordNodeAlive(node);
      if (options_.verify_checksums && known &&
          SegmentChecksum(level, plane, outcome.value()) != expected_crc) {
        // Bad replica: the node answered but its copy is corrupt. Fail
        // over without penalizing the node's reachability.
        ++passed_over;
        continue;
      }
      if (passed_over > 0) {
        failovers_.fetch_add(1, kRelaxed);
        if (metrics_ != nullptr) {
          metrics_->OnFailover();
        }
        record_failover_walk();
      }
      return outcome;
    }
    if (outcome.status().code() == StatusCode::kNotFound) {
      // A definitive answer: the node is alive, it just has no copy (it
      // joined the preference list after the write, or lost the segment).
      RecordNodeAlive(node);
      ++passed_over;
      continue;
    }
    // IOError (retries exhausted) or worse: the replica is unusable.
    RecordNodeFailure(node);
    ++passed_over;
  }

  if (known) {
    replicas_lost_.fetch_add(1, kRelaxed);
    if (metrics_ != nullptr) {
      metrics_->OnReplicaLost();
    }
    record_failover_walk();
    return Status::DataLoss("all replicas of segment " +
                            SegmentName(field_id, level, plane) + " lost");
  }
  return Status::NotFound("segment " + SegmentName(field_id, level, plane) +
                          " unknown to the cluster");
}

Status ClusterBackend::PutSegment(const std::string& field_id, int level,
                                  int plane, std::string payload) {
  MGARDP_TRACE_SPAN("cluster/put", "cluster");
  puts_.fetch_add(1, kRelaxed);
  {
    std::unique_lock<std::shared_mutex> lock(checksums_mu_);
    checksums_[std::make_tuple(field_id, level, plane)] =
        SegmentChecksum(level, plane, payload);
  }
  const std::uint64_t hash = HashRing::KeyHash(field_id, level, plane);
  int written = 0;
  for (int node_id : ring_.WalkOrder(hash)) {
    if (written >= replication_) {
      break;
    }
    Node& node = *nodes_[static_cast<std::size_t>(node_id)];
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      if (node.health == NodeHealth::kKilled ||
          node.health == NodeHealth::kDown) {
        continue;
      }
    }
    if (NodePut(node, field_id, level, plane, payload).ok()) {
      ++written;
    }
  }
  if (written == 0) {
    return Status::IOError("no live node accepted segment " +
                           SegmentName(field_id, level, plane));
  }
  if (written < replication_) {
    under_replicated_writes_.fetch_add(1, kRelaxed);
  }
  return Status::OK();
}

bool ClusterBackend::ContainsSegment(const std::string& field_id, int level,
                                     int plane) const {
  std::shared_lock<std::shared_mutex> lock(checksums_mu_);
  return checksums_.count(std::make_tuple(field_id, level, plane)) != 0;
}

std::vector<std::pair<int, int>> ClusterBackend::FieldKeys(
    const std::string& field_id) const {
  std::vector<std::pair<int, int>> keys;
  std::shared_lock<std::shared_mutex> lock(checksums_mu_);
  for (const auto& entry : checksums_) {
    if (std::get<0>(entry.first) == field_id) {
      keys.emplace_back(std::get<1>(entry.first), std::get<2>(entry.first));
    }
  }
  return keys;
}

void ClusterBackend::KillNode(int node_id) {
  Node& node = *nodes_[static_cast<std::size_t>(node_id)];
  std::lock_guard<std::mutex> lock(health_mu_);
  node.health = NodeHealth::kKilled;
  node.consecutive_failures = 0;
  node.skips_since_down = 0;
}

void ClusterBackend::ReviveNode(int node_id, bool wipe_data) {
  Node& node = *nodes_[static_cast<std::size_t>(node_id)];
  if (wipe_data) {
    std::unique_lock<std::shared_mutex> lock(node.storage_mu);
    node.fields.clear();
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  node.health = NodeHealth::kHealthy;
  node.consecutive_failures = 0;
  node.skips_since_down = 0;
}

NodeHealth ClusterBackend::node_health(int node_id) const {
  const Node& node = *nodes_[static_cast<std::size_t>(node_id)];
  std::lock_guard<std::mutex> lock(health_mu_);
  return node.health;
}

ClusterBackend::ScrubReport ClusterBackend::ScrubRepair() {
  MGARDP_TRACE_SPAN("cluster/scrub", "cluster");
  ScrubReport report;
  // Snapshot the catalog; repairs below take per-node locks one at a time.
  std::vector<std::pair<std::tuple<std::string, int, int>, std::uint32_t>>
      catalog;
  {
    std::shared_lock<std::shared_mutex> lock(checksums_mu_);
    catalog.assign(checksums_.begin(), checksums_.end());
  }
  for (const auto& entry : catalog) {
    const std::string& field_id = std::get<0>(entry.first);
    const int level = std::get<1>(entry.first);
    const int plane = std::get<2>(entry.first);
    const std::uint32_t crc = entry.second;
    ++report.segments;

    const std::uint64_t hash = HashRing::KeyHash(field_id, level, plane);
    const std::vector<int> walk = ring_.WalkOrder(hash);

    // The key's current home: first R alive nodes of its preference list.
    std::vector<int> desired;
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      for (int node_id : walk) {
        if (static_cast<int>(desired.size()) >= replication_) {
          break;
        }
        const Node& node = *nodes_[static_cast<std::size_t>(node_id)];
        if (node.health != NodeHealth::kKilled &&
            node.health != NodeHealth::kDown) {
          desired.push_back(node_id);
        }
      }
    }

    // Find one verified copy anywhere alive, remembering which desired
    // nodes already hold one.
    std::string good;
    bool have_good = false;
    std::vector<int> missing = desired;
    for (int node_id : walk) {
      Node& node = *nodes_[static_cast<std::size_t>(node_id)];
      {
        std::lock_guard<std::mutex> lock(health_mu_);
        if (node.health == NodeHealth::kKilled ||
            node.health == NodeHealth::kDown) {
          continue;
        }
      }
      auto outcome = retry_.Run(
          [&] { return NodeGet(node, field_id, level, plane); },
          hash ^ static_cast<std::uint64_t>(node_id) ^ 0x5C3Bull);
      if (!outcome.ok() ||
          SegmentChecksum(level, plane, outcome.value()) != crc) {
        continue;
      }
      if (!have_good) {
        good = std::move(outcome).value();
        have_good = true;
      }
      missing.erase(std::remove(missing.begin(), missing.end(), node_id),
                    missing.end());
    }

    if (!have_good) {
      ++report.lost;
      continue;
    }
    if (missing.empty()) {
      continue;
    }
    ++report.under_replicated;
    for (int node_id : missing) {
      Node& node = *nodes_[static_cast<std::size_t>(node_id)];
      if (NodePut(node, field_id, level, plane, good).ok()) {
        ++report.repaired;
      }
    }
  }
  scrub_repaired_.fetch_add(report.repaired, kRelaxed);
  scrub_lost_.fetch_add(report.lost, kRelaxed);
  return report;
}

void ClusterBackend::StartBackgroundScrub(int period_ms) {
  StopBackgroundScrub();
  {
    std::lock_guard<std::mutex> lock(scrub_mu_);
    scrub_stop_ = false;
  }
  scrub_thread_ = std::thread([this, period_ms] {
    std::unique_lock<std::mutex> lock(scrub_mu_);
    while (!scrub_stop_) {
      scrub_cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                         [this] { return scrub_stop_; });
      if (scrub_stop_) {
        break;
      }
      lock.unlock();
      ScrubRepair();
      lock.lock();
    }
  });
}

void ClusterBackend::StopBackgroundScrub() {
  {
    std::lock_guard<std::mutex> lock(scrub_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.notify_all();
  if (scrub_thread_.joinable()) {
    scrub_thread_.join();
  }
}

ClusterBackend::Stats ClusterBackend::stats() const {
  Stats s;
  s.gets = gets_.load(kRelaxed);
  s.puts = puts_.load(kRelaxed);
  s.retries = retries_.load(kRelaxed);
  s.failovers = failovers_.load(kRelaxed);
  s.replicas_lost = replicas_lost_.load(kRelaxed);
  s.under_replicated_writes = under_replicated_writes_.load(kRelaxed);
  s.probes = probes_.load(kRelaxed);
  s.evictions = evictions_.load(kRelaxed);
  s.recoveries = recoveries_.load(kRelaxed);
  s.scrub_repaired = scrub_repaired_.load(kRelaxed);
  s.scrub_lost = scrub_lost_.load(kRelaxed);
  return s;
}

bool ClusterBackend::NodeContains(int node_id, const std::string& field_id,
                                  int level, int plane) const {
  const Node& node = *nodes_[static_cast<std::size_t>(node_id)];
  std::shared_lock<std::shared_mutex> lock(node.storage_mu);
  auto it = node.fields.find(field_id);
  return it != node.fields.end() && it->second->memory.Contains(level, plane);
}

std::vector<int> ClusterBackend::ReplicasFor(const std::string& field_id,
                                             int level, int plane) const {
  const std::uint64_t hash = HashRing::KeyHash(field_id, level, plane);
  std::vector<int> desired;
  std::lock_guard<std::mutex> lock(health_mu_);
  for (int node_id : ring_.WalkOrder(hash)) {
    if (static_cast<int>(desired.size()) >= replication_) {
      break;
    }
    const Node& node = *nodes_[static_cast<std::size_t>(node_id)];
    if (node.health != NodeHealth::kKilled &&
        node.health != NodeHealth::kDown) {
      desired.push_back(node_id);
    }
  }
  return desired;
}

FaultInjectingBackend* ClusterBackend::node_fault_backend(
    int node_id, const std::string& field_id) {
  Node& node = *nodes_[static_cast<std::size_t>(node_id)];
  std::shared_lock<std::shared_mutex> lock(node.storage_mu);
  auto it = node.fields.find(field_id);
  return it == node.fields.end() ? nullptr : it->second->faulty.get();
}

}  // namespace mgardp
