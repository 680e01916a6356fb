// Golomb/Rice coding of sparse bit-plane payloads.
//
// High-significance bit-planes of nega-binary coefficients are almost all
// zeros: only the few large coefficients have digits there. For those the
// RLE/LZ/Huffman pipeline both works hard (three trial encodings) and loses
// to plain gap coding. This codec encodes the positions of the set bits as
// Rice-coded gaps instead.
//
// Container layout (after the 1-byte codec id, kRiceCodecId):
//   u8     mode          0 = raw fallback, 1 = rice
//   varint raw_size      decompressed size in bytes
//   mode 0: raw_size raw bytes.
//   mode 1:
//     u8     k_and_flags  bits 0..5 = Rice parameter k, bit 6 = invert
//     varint num_marks    number of coded set bits
//     bitstream, MSB-first within each byte: per mark, the gap (number of
//     clear bits since the previous mark) as `gap >> k` one-bits, a zero
//     bit, then the low k bits of the gap.
// Bit index i of the payload means bit (i & 7) of byte (i >> 3), matching
// the bit-plane coefficient layout. With `invert` set the gaps describe the
// complemented payload (used when set bits outnumber clear bits).
//
// The encoder always compares against the raw fallback and emits whichever
// is smaller, so output never exceeds input by more than the few header
// bytes, for any input. Callers reach it through lossless::CompressWith(in,
// "rice"), CompressAuto and Decompress (codec.h).

#ifndef MGARDP_LOSSLESS_RICE_H_
#define MGARDP_LOSSLESS_RICE_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace mgardp {
namespace lossless {

constexpr std::uint8_t kRiceCodecId = 0x10;

namespace internal {
// The Rice container's encoder and decoder; codec.h routes to them.
std::string RiceEncode(const std::string& in);
Result<std::string> RiceDecode(const std::string& in);
}  // namespace internal

}  // namespace lossless
}  // namespace mgardp

#endif  // MGARDP_LOSSLESS_RICE_H_
