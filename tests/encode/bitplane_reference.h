// Scalar reference kernels for bit-plane encoding: the pre-word-parallel
// implementation, kept verbatim so the cross-check tests can pin the
// library's BitplaneEncoder to it bit for bit. Test-only; the library does
// not link this file.

#ifndef MGARDP_TESTS_ENCODE_BITPLANE_REFERENCE_H_
#define MGARDP_TESTS_ENCODE_BITPLANE_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "encode/bitplane.h"
#include "util/status.h"

namespace mgardp {
namespace internal {

// Slices nega-binary words into plane payloads one bit at a time.
// `planes` must already hold num_planes strings of PlaneBytes() zero bytes.
void SlicePlanesScalar(const std::uint64_t* nb, std::size_t count,
                       int num_planes, std::vector<std::string>* planes);
// Full scalar encode: quantize + slice + optional error matrix.
Result<BitplaneSet> EncodeScalar(const std::vector<double>& coefs,
                                 int num_planes, LevelErrorStats* stats);
// Scalar decode, one plane bit per coefficient per iteration.
Result<std::vector<double>> DecodeScalar(const BitplaneSet& set,
                                         int prefix_planes);

}  // namespace internal
}  // namespace mgardp

#endif  // MGARDP_TESTS_ENCODE_BITPLANE_REFERENCE_H_
