// Reference level scan for the interleaver: the node-at-a-time enumerator
// the library used before its row-run kernel, kept verbatim so the
// cross-check tests can pin Interleaver::Extract / Deposit to it byte for
// byte. The level order decides which coefficient every stored plane bit
// belongs to, so it must never change. Test-only; the library does not link
// this file.

#ifndef MGARDP_TESTS_DECOMPOSE_INTERLEAVER_REFERENCE_H_
#define MGARDP_TESTS_DECOMPOSE_INTERLEAVER_REFERENCE_H_

#include <vector>

#include "decompose/hierarchy.h"
#include "util/array3d.h"

namespace mgardp {
namespace internal {

// One contiguous coefficient vector per level, level 0 first, gathered one
// node at a time in the canonical (i, j, k)-ascending order.
std::vector<std::vector<double>> ExtractReference(
    const GridHierarchy& hierarchy, const Array3Dd& data);

// Scatters per-level vectors (of the exact hierarchy sizes) back into
// `data` in the same order.
void DepositReference(const GridHierarchy& hierarchy,
                      const std::vector<std::vector<double>>& levels,
                      Array3Dd* data);

}  // namespace internal
}  // namespace mgardp

#endif  // MGARDP_TESTS_DECOMPOSE_INTERLEAVER_REFERENCE_H_
