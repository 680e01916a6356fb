// Fault-tolerant retrieval demo: persist a refactored field, damage it the
// way long-lived campaign storage does (bit rot, lost segments, flaky
// tiers), and retrieve through a RetrievalSession. Transient faults are
// retried away; permanent losses degrade the delivered accuracy and the
// refinement says so honestly instead of crashing or lying.
//
//   $ ./fault_tolerant_retrieval

#include <cstdio>
#include <filesystem>

#include "progressive/refactorer.h"
#include "service/retrieval_session.h"
#include "sim/dataset.h"
#include "storage/fault_injection.h"
#include "util/stats.h"

int main() {
  using namespace mgardp;

  WarpXDatasetOptions opts;
  opts.dims = Dims3{33, 33, 33};
  opts.num_timesteps = 4;
  FieldSeries series = GenerateWarpX(opts, WarpXField::kEx);
  const Array3Dd& original = series.frames[2];

  auto fr = Refactorer().Refactor(original);
  fr.status().Abort("refactor");
  const RefactoredField& field = fr.value();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "mgardp_fault_demo")
          .string();
  std::filesystem::remove_all(dir);
  field.segments.WriteToDirectory(dir).Abort("write");
  std::printf("artifact stored (with per-segment CRC-32C) at %s\n",
              dir.c_str());

  auto disk = DirectoryBackend::Open(dir);
  disk.status().Abort("open");

  TheoryEstimator estimator;
  const double bound = 1e-4 * field.data_summary.range();

  // A storage layer that misbehaves: one plane of the coarsest level is
  // flaky for two attempts, one mid-level plane is corrupted outright, and
  // one fine-level plane has vanished.
  FaultInjectingBackend faulty(&disk.value());
  faulty.SetFault(0, 4, {FaultKind::kTransient, 2});
  faulty.SetFault(1, 6, {FaultKind::kBitFlip});
  faulty.SetFault(field.num_levels() - 1, 2, {FaultKind::kMissing});
  // The bit flip happens below the integrity check; this layer catches it.
  VerifyingBackend verified(&faulty, field.segments);

  RetryPolicy retry;
  retry.set_sleep([](double) {});  // demo: no waiting
  RetrievalSession session("demo", &field, &verified, &estimator, nullptr,
                           nullptr, retry);

  RetrievalSession::Refinement refinement;
  auto data = session.Refine(bound, &refinement);
  data.status().Abort("retrieve");

  std::printf("\n%s\n\n", refinement.ToString().c_str());
  const double measured =
      MaxAbsError(original.vector(), data.value()->vector());
  std::printf("measured max error: %.6g (reported bound %.6g, requested "
              "%.6g)\n",
              measured, refinement.estimated_error, bound);
  if (measured > refinement.estimated_error) {
    std::fprintf(stderr, "BUG: delivered error exceeds the reported bound\n");
    return 1;
  }
  if (!refinement.degraded || refinement.retries == 0) {
    std::fprintf(stderr, "BUG: expected a degraded, retried retrieval\n");
    return 1;
  }

  // The same retrieval against clean storage: nothing skipped, bound met.
  auto clean = DirectoryBackend::Open(dir);
  clean.status().Abort("reopen");
  RetrievalSession clean_session("demo", &field, &clean.value(), &estimator);
  RetrievalSession::Refinement clean_refinement;
  clean_session.Refine(bound, &clean_refinement).status().Abort(
      "clean retrieve");
  std::printf("clean storage for comparison: %s, %zu bytes read\n",
              clean_refinement.bound_met ? "bound met" : "bound missed",
              clean_refinement.fetched_bytes);

  std::filesystem::remove_all(dir);
  return 0;
}
