// The refactor and retrieve pipelines rebuilt from the layers' public
// calls, so a traced run can time each layer call on its own. Every step
// mirrors Refactorer::Refactor, ReconstructFromSegments and
// Reconstructor::Retrieve call for call; the traced run's self-check
// (SameField / SameArray against the library's own entry points) fails the
// run if they ever diverge, because the trace would then describe a
// different program.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <string>
#include <vector>

#include "decorators.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "util/array3d.h"
#include "util/status.h"

namespace perfbench {

// Refactorer::Refactor with default RefactorOptions, one span per layer
// call. When `levels` is non-null it receives the extracted coefficient
// levels, for the slice-only encode probe.
mgardp::Result<mgardp::RefactoredField> TracedRefactor(
    mgardp::Array3Dd data, std::vector<std::vector<double>>* levels);

// Times BitplaneEncoder::Encode without error statistics over `levels`
// ("encode.slice"): the plane-slicing cost on its own. Runs outside any
// operation so it never inflates an op's wall time.
void ProbeSlice(const std::vector<std::vector<double>>& levels);

// Reconstructor::Retrieve: Plan (with `estimator`'s calls as one aggregate
// "models.estimate" span), ReconstructFromSegments over field.segments
// (each Get a "storage.get" span), and the audit record Retrieve files.
mgardp::Result<mgardp::Array3Dd> TracedRetrieve(
    const mgardp::RefactoredField& field, const TimedEstimator& estimator,
    double error_bound, mgardp::RetrievalPlan* plan);

// Byte-identical segments and identical serialized metadata.
bool SameField(const mgardp::RefactoredField& a,
               const mgardp::RefactoredField& b);
// Bit-identical arrays (same dims, same bytes).
bool SameArray(const mgardp::Array3Dd& a, const mgardp::Array3Dd& b);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
