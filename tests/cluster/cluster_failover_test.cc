// End-to-end failover: retrieval sessions on top of the replicated
// cluster. A fault-kind x replication-factor matrix checks that
// R=2 hides single-replica faults completely (bit-identical, non-degraded
// retrievals) while R=1 degrades honestly instead of crashing or lying,
// and a scheduler-driven mini chaos run kills a node mid-workload.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_backend.h"
#include "progressive/refactorer.h"
#include "service/retrieval_session.h"
#include "service/scheduler.h"
#include "service/service_metrics.h"
#include "sim/warpx.h"

namespace mgardp {
namespace {

class ClusterFailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WarpXSimulator sim(Dims3{17, 17, 17});
    truth_ = sim.Field(WarpXField::kEx, 6);
    auto field = Refactorer().Refactor(truth_);
    ASSERT_TRUE(field.ok());
    field_ = std::move(field).value();
    range_ = field_.data_summary.range();
  }

  // Loads every segment of the refactored field into `cluster` under
  // `field_id` and returns a per-field view.
  std::unique_ptr<ClusterFieldView> Load(ClusterBackend* cluster,
                                         const std::string& field_id) {
    for (const auto& key : field_.segments.Keys()) {
      auto payload = field_.segments.Get(key.first, key.second);
      EXPECT_TRUE(payload.ok());
      EXPECT_TRUE(cluster
                      ->PutSegment(field_id, key.first, key.second,
                                   std::move(payload).value())
                      .ok());
    }
    return std::make_unique<ClusterFieldView>(cluster, field_id);
  }

  Array3Dd truth_;
  RefactoredField field_;
  TheoryEstimator theory_;
  double range_ = 0.0;
};

struct FaultCase {
  FaultKind kind;
  const char* name;
};

const FaultCase kFaultMatrix[] = {
    {FaultKind::kMissing, "missing"},
    {FaultKind::kTransient, "transient"},
    {FaultKind::kBitFlip, "bitflip"},
    {FaultKind::kTruncate, "truncate"},
};

TEST_F(ClusterFailoverTest, ReplicatedClusterHidesEverySingleReplicaFault) {
  for (const FaultCase& fc : kFaultMatrix) {
    SCOPED_TRACE(fc.name);
    ClusterOptions options;
    options.num_nodes = 4;
    options.replication = 2;
    options.inject_faults = true;
    options.retry.max_attempts = 3;
    ClusterBackend cluster(options);
    auto view = Load(&cluster, "ex");

    // Fault the primary replica of segment (0, 0) only.
    const std::vector<int> replicas = cluster.ReplicasFor("ex", 0, 0);
    ASSERT_EQ(replicas.size(), 2u);
    FaultInjectingBackend* faults =
        cluster.node_fault_backend(replicas[0], "ex");
    ASSERT_NE(faults, nullptr);
    FaultInjectingBackend::FaultRule rule;
    rule.kind = fc.kind;
    rule.fail_attempts = -1;  // transient that never recovers on its own
    faults->SetFault(0, 0, rule);

    RetrievalSession session("ex", &field_, view.get(), &theory_);
    RetrievalSession::Refinement report;
    auto result = session.Refine(1e-3 * range_, &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The second replica served the clean copy: nothing was degraded and
    // the result is bit-identical to a fault-free retrieval.
    EXPECT_FALSE(report.degraded);
    EXPECT_TRUE(report.bound_met);
    EXPECT_TRUE(report.skipped.empty());
    EXPECT_EQ(cluster.stats().replicas_lost, 0u);
    if (fc.kind != FaultKind::kTransient) {
      // Transient faults may be absorbed by retries against the same node
      // instead of failing over; every other kind must fail over.
      EXPECT_GT(cluster.stats().failovers, 0u);
    }
  }
}

TEST_F(ClusterFailoverTest, UnreplicatedClusterDegradesHonestly) {
  for (const FaultCase& fc : kFaultMatrix) {
    if (fc.kind == FaultKind::kTransient) {
      continue;  // absorbed by retries even with R=1; nothing degrades
    }
    SCOPED_TRACE(fc.name);
    ClusterOptions options;
    options.num_nodes = 4;
    options.replication = 1;
    options.inject_faults = true;
    options.retry.max_attempts = 2;
    ClusterBackend cluster(options);
    auto view = Load(&cluster, "ex");

    // Permanently fault the only copy of the level-0 bottom plane on its
    // home node: retrieval must degrade around it.
    const std::vector<int> replicas = cluster.ReplicasFor("ex", 0, 0);
    ASSERT_EQ(replicas.size(), 1u);
    FaultInjectingBackend* faults =
        cluster.node_fault_backend(replicas[0], "ex");
    ASSERT_NE(faults, nullptr);
    FaultInjectingBackend::FaultRule rule;
    rule.kind = fc.kind;
    rule.fail_attempts = -1;
    faults->SetFault(0, 0, rule);

    RetrievalSession session("ex", &field_, view.get(), &theory_);
    RetrievalSession::Refinement report;
    auto result = session.Refine(1e-3 * range_, &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Honest degradation: the skipped segment is reported and the achieved
    // bound does not pretend to meet the request.
    EXPECT_TRUE(report.degraded);
    EXPECT_FALSE(report.skipped.empty());
    EXPECT_GT(report.estimated_error, 1e-3 * range_);
    EXPECT_FALSE(report.bound_met);
  }
}

TEST_F(ClusterFailoverTest, SchedulerChaosRunSurvivesNodeKill) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.replication = 2;
  ClusterBackend cluster(options);
  ServiceMetrics metrics;
  cluster.set_metrics(&metrics);
  auto view = Load(&cluster, "ex");

  RetrievalScheduler scheduler(&metrics);
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<RetrievalSession>> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(std::make_unique<RetrievalSession>(
        "ex", &field_, view.get(), &theory_, nullptr, &metrics));
  }

  const std::vector<double> ladder = {1e-1, 1e-2, 1e-3};
  std::atomic<int> failed{0};
  for (std::size_t round = 0; round < ladder.size(); ++round) {
    if (round == 1) {
      cluster.KillNode(2);  // mid-run chaos
    }
    for (int c = 0; c < kClients; ++c) {
      ASSERT_TRUE(
          scheduler
              .Submit({sessions[c].get(), ladder[round] * range_, 0.0,
                       "t" + std::to_string(c % 2)},
                      [&failed](const RetrievalScheduler::Response& resp) {
                        if (!resp.status.ok()) {
                          failed.fetch_add(1);
                        }
                      })
              .ok());
    }
    scheduler.Drain();
  }
  // Every refinement still completed (reads failed over around the dead
  // node), every session converged to the tightest bound, and the failover
  // counter shows the cluster actually rode through the kill.
  EXPECT_EQ(failed.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_LE(sessions[c]->estimated_error(), 1e-3 * range_);
  }
  EXPECT_GT(metrics.snapshot().failovers_total, 0u);
  EXPECT_EQ(metrics.snapshot().replicas_lost, 0u);
}

}  // namespace
}  // namespace mgardp
