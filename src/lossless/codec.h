// Lossless coding of bit-plane payloads.
//
// MGARD compresses encoded bit-planes with ZSTD before they hit storage; the
// retrieval sizes the paper reports are post-lossless sizes. This module is
// our from-scratch substitute: a fixed coder with a closed set of
// self-describing containers. The FIRST container byte says how to decode
// it, so `Decompress` routes any payload without side metadata:
//
//   0x00..0x0F  the RLE/LZ/Huffman pipeline ("pipeline"). The byte is a
//               flags byte (0x08 = chunked); every container written since
//               the first release starts with one, so the whole range stays
//               reserved for it.
//   0x10        Golomb/Rice gap coding ("rice", see rice.h), tuned for the
//               sparse high-significance planes where the pipeline's trial
//               stages are both slow and beaten by plain gap coding.
//   0x11..0xFF  unassigned; Decompress rejects them.
//
// `CompressAuto` is what the refactorer uses: a density/entropy-gated
// per-plane choice that routes sparse planes to Rice, incompressible planes
// to a raw container, and only pays for the full trial in between.

#ifndef MGARDP_LOSSLESS_CODEC_H_
#define MGARDP_LOSSLESS_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace mgardp {
namespace lossless {

// First container byte at or above this value is a codec id (0x10 = Rice);
// anything below is a pipeline flags byte.
constexpr std::uint8_t kFirstRegisteredCodecId = 0x10;

// The largest decoded size any decoder accepts: size fields and run lengths
// read from a container are checked against it before they drive an
// allocation, so a corrupt or hostile header fails with a Status.
constexpr std::uint64_t kMaxRawSize = std::uint64_t{1} << 30;

// The codec name of a container's first byte: "pipeline" for 0x00..0x0F,
// "rice" for 0x10, nullptr for any other byte.
const char* CodecName(std::uint8_t id);

// Per-plane codec choice, the refactorer's default path. Gates on cheap
// statistics before paying for trials:
//   * set-bit density < 1/16 (either polarity) -> Rice only (sparse
//     planes);
//   * byte entropy near 8 bits with no runs -> raw pipeline container
//     (1-byte overhead, skips the LZ/Huffman trials that cannot win);
//   * density in [1/4, 3/4] -> pipeline only (a mean gap <= 4 means Rice
//     spends >= 2 bits per mark and cannot beat the entropy stage);
//   * the remaining bands trial both codecs and keep the smaller
//     container.
std::string CompressAuto(const std::string& in);

// Compresses with the codec `name` ("pipeline" or "rice"), or with the
// auto policy when `name` is "auto". Fails on any other name. Output
// always decompresses back to `in` exactly.
Result<std::string> CompressWith(const std::string& in,
                                 const std::string& name);

// Inverse of every Compress* function: routes on the container's first
// byte. Fails on corrupt or truncated input and on unassigned ids.
Result<std::string> Decompress(const std::string& in);

// Exposed for unit tests: the pipeline codec's individual stages.
namespace internal {
void PutVarint(std::string* out, std::uint64_t v);
Status GetVarint(std::string_view in, std::size_t* pos, std::uint64_t* v);
std::string RleEncode(const std::string& in);
Result<std::string> RleDecode(std::string_view in);
std::string LzEncode(const std::string& in);
Result<std::string> LzDecode(std::string_view in);
std::string HuffmanEncode(const std::string& in);
Result<std::string> HuffmanDecode(std::string_view in);
}  // namespace internal

}  // namespace lossless
}  // namespace mgardp

#endif  // MGARDP_LOSSLESS_CODEC_H_
