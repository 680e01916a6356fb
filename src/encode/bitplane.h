// Bit-plane encoding of coefficient levels.
//
// Each level's coefficients are scaled by a per-level exponent into fixed
// point, converted to nega-binary, and sliced into `num_planes` bit-planes
// ordered most-significant first. Retrieving a prefix of planes yields a
// coarse version of every coefficient; the error matrix records exactly how
// coarse (max-abs and mean-squared error per prefix length), which is the
// Err[l][b] input to the error estimators (Table I of the paper).
//
// The hot slicing loops are word-parallel: blocks of 64 nega-binary
// coefficient words are transposed into plane-major machine words with a
// 64x64 SWAR bit-matrix transpose (six fixed-width shift/mask butterfly
// rounds the compiler unrolls and vectorises), so every plane is emitted or
// consumed 64 coefficients per instruction instead of one bit at a time.
//
// The error matrix is computed per coefficient as plane vectors: the prefix
// value at length b is FromNegabinary(word & top-b-digit mask), which needs
// no value carried from plane to plane, so all prefix errors of one
// coefficient form fixed-width rows of 32 lanes that the compiler
// vectorises. GCC builds for x86-64 compile the kernel for x86-64,
// x86-64-v3 and x86-64-v4 and the loader picks the clone the CPU supports.
// Coefficients are still summed one at a time in index order (per
// 8192-coefficient chunk, chunks combined in order), and the library is
// built with -ffp-contract=off so no clone fuses the multiply-adds, so the
// error matrix is bit-identical on every CPU and thread count. tests/encode/
// keeps the scalar reference kernels the cross-check tests pin payloads,
// error matrices and decoded coefficients to.

#ifndef MGARDP_ENCODE_BITPLANE_H_
#define MGARDP_ENCODE_BITPLANE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace mgardp {

// The bit-planes of one coefficient level.
struct BitplaneSet {
  int num_planes = 0;   // B: total planes encoded
  int exponent = 0;     // e: max |coefficient| <= 2^e
  std::uint64_t count = 0;  // number of coefficients
  // planes[p] is the packed bitstream of plane p (p = 0 is the most
  // significant); each holds ceil(count / 8) bytes. Bit (i & 7) of byte
  // (i >> 3) is coefficient i's digit, i.e. a plane is the little-endian
  // byte image of 64-bit words whose bit i belongs to coefficient i.
  std::vector<std::string> planes;

  // Raw (pre-lossless) size in bytes of one plane.
  std::size_t PlaneBytes() const { return (count + 7) / 8; }
};

// Per-prefix reconstruction error of one level: entry b describes the error
// when only the first b planes are kept (b = 0 -> nothing retrieved,
// b = num_planes -> quantization floor).
struct LevelErrorStats {
  std::vector<double> max_abs;  // size num_planes + 1
  std::vector<double> mse;      // size num_planes + 1
};

class BitplaneEncoder {
 public:
  // `num_planes` in [2, 60]. 32 matches the paper's per-level plane count.
  explicit BitplaneEncoder(int num_planes = 32);

  int num_planes() const { return num_planes_; }

  // Encodes `coefs` into bit-planes; if `stats` is non-null also collects
  // the error matrix row for this level (folded into the same transposed
  // pass over the nega-binary words).
  Result<BitplaneSet> Encode(const std::vector<double>& coefs,
                             LevelErrorStats* stats) const;

  // Reconstructs coefficients from the first `prefix_planes` planes
  // (0 <= prefix_planes <= set.num_planes). Missing planes read as zero
  // digits. Validates the set's shape (num_planes range, plane count, and
  // every present plane's payload size) before touching any plane byte, so
  // corrupt or hostile sets fail cleanly instead of over-reading.
  Result<std::vector<double>> Decode(const BitplaneSet& set,
                                     int prefix_planes) const;

 private:
  int num_planes_;
};

namespace internal {

// One transpose round over words [0, N): swaps the off-diagonal J x J bit
// blocks of every 2J x 2J block, in loops with compile-time trip counts.
template <int J, int N>
inline void TransposeRound(std::uint64_t* m, std::uint64_t mask) {
  for (int base = 0; base < N; base += 2 * J) {
    for (int k = base; k < base + J; ++k) {
      const std::uint64_t t = ((m[k] >> J) ^ m[k + J]) & mask;
      m[k + J] ^= t;
      m[k] ^= t << J;
    }
  }
}

// In-place transpose of a 64x64 bit matrix: bit d of word r moves to bit r
// of word d; an involution. Round J swaps index bit log2(J) of the row with
// that of the column, so the six rounds commute. Rounds J <= 16 keep bits
// inside their 32-word half and their 32-bit word half; J = 32 runs last,
// so a matrix whose words from `rows` on are zero skips the upper words'
// rounds when rows <= 32.
inline void Transpose64x64(std::uint64_t m[64], int rows = 64) {
  for (std::uint64_t* h = m; h < m + (rows > 32 ? 64 : 32); h += 32) {
    TransposeRound<16, 32>(h, 0x0000FFFF0000FFFFULL);
    TransposeRound<8, 32>(h, 0x00FF00FF00FF00FFULL);
    TransposeRound<4, 32>(h, 0x0F0F0F0F0F0F0F0FULL);
    TransposeRound<2, 32>(h, 0x3333333333333333ULL);
    TransposeRound<1, 32>(h, 0x5555555555555555ULL);
  }
  TransposeRound<32, 64>(m, 0x00000000FFFFFFFFULL);
}

// Structural validation shared by Decode and the scalar reference: checks
// num_planes, prefix range, plane count, and every present plane's size.
Status ValidateBitplaneSet(const BitplaneSet& set, int prefix_planes);

}  // namespace internal

}  // namespace mgardp

#endif  // MGARDP_ENCODE_BITPLANE_H_
