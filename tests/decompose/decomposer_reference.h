// Scalar reference kernels for multilevel decomposition: the one-line-at-a-
// time lifting implementation the library used before its lane-batched
// kernel, kept verbatim so the cross-check tests can pin Decomposer to it
// bit for bit. Test-only; the library does not link this file.

#ifndef MGARDP_TESTS_DECOMPOSE_DECOMPOSER_REFERENCE_H_
#define MGARDP_TESTS_DECOMPOSE_DECOMPOSER_REFERENCE_H_

#include <cstddef>
#include <vector>

#include "decompose/decomposer.h"
#include "decompose/hierarchy.h"
#include "util/array3d.h"
#include "util/status.h"

namespace mgardp {
namespace internal {

// 1D lifting primitives operating on a contiguous line of odd length
// m >= 3.
//
// Forward: odd entries become interpolation residuals; if `correct`, even
// entries receive the L2 projection correction.
void ForwardLine(double* u, std::size_t m, bool correct,
                 std::vector<double>* scratch);
// Exact inverse of ForwardLine.
void InverseLine(double* u, std::size_t m, bool correct,
                 std::vector<double>* scratch);

// Solves the tridiagonal coarse-grid mass-matrix system M w = b in place
// (b becomes w). The matrix is (H/6) * tridiag(1, 4, 1) with halved diagonal
// at the two boundary rows, H = 2 (coarse spacing in units of the fine one).
// `scratch` receives the modified upper-diagonal factors.
void SolveCoarseMass(double* b, std::size_t mc, std::vector<double>* scratch);

// Single-threaded Decomposer::Decompose / Recompose that transform one line
// at a time through the kernels above.
Status DecomposeScalar(const GridHierarchy& hierarchy,
                       const DecomposeOptions& options, Array3Dd* data);
Status RecomposeScalar(const GridHierarchy& hierarchy,
                       const DecomposeOptions& options, Array3Dd* data);

}  // namespace internal
}  // namespace mgardp

#endif  // MGARDP_TESTS_DECOMPOSE_DECOMPOSER_REFERENCE_H_
