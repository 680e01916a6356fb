// Lossless coding of bit-plane payloads.
//
// MGARD compresses encoded bit-planes with ZSTD before they hit storage; the
// retrieval sizes the paper reports are post-lossless sizes. This module is
// our from-scratch substitute, organised as a small codec framework:
//
//   * `Codec` is the interface (Name / Id / Compress / Decompress). Every
//     codec emits a self-describing container whose FIRST byte is its method
//     id, so `Decompress` can route any payload without side metadata.
//   * The legacy RLE/LZ/Huffman pipeline is one codec ("pipeline"). Its
//     containers predate the registry and use a flags byte in 0x00..0x0F
//     (optionally 0x08 = chunked), so that whole range is reserved for it
//     and archives written before the registry existed still decode.
//   * Registry ids for new codecs start at 0x10. Currently: 0x10 = "rice"
//     (Golomb/Rice gap coding, see rice.h), tuned for the sparse
//     high-significance planes where the pipeline's trial stages are both
//     slow and beaten by plain gap coding.
//
// `Compress` keeps its historical behaviour (always the pipeline codec);
// `CompressAuto` is what the refactorer uses: a density/entropy-gated
// per-plane choice that routes sparse planes to Rice, incompressible planes
// to a raw container, and only pays for the full trial in between.

#ifndef MGARDP_LOSSLESS_CODEC_H_
#define MGARDP_LOSSLESS_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace mgardp {
namespace lossless {

// First container byte at or above this value names a registered codec;
// anything below is a legacy pipeline flags byte.
constexpr std::uint8_t kFirstRegisteredCodecId = 0x10;

// The largest decoded size any decoder accepts: size fields and run lengths
// read from a container are checked against it before they drive an
// allocation, so a corrupt or hostile header fails with a Status.
constexpr std::uint64_t kMaxRawSize = std::uint64_t{1} << 30;

// A self-describing lossless codec. Compress returns a container whose
// first byte identifies the codec (its Id, or a legacy flags byte for the
// pipeline codec); Decompress consumes exactly such a container. Output of
// Compress must always round-trip, for every input, and should degrade to
// a raw store (small constant overhead) rather than expand meaningfully on
// incompressible data.
class Codec {
 public:
  virtual ~Codec() = default;
  virtual const char* Name() const = 0;
  // The id byte this codec's containers start with. The pipeline codec
  // reports 0x00 but owns the whole legacy range 0x00..0x0F.
  virtual std::uint8_t Id() const = 0;
  virtual std::string Compress(const std::string& in) const = 0;
  virtual Result<std::string> Decompress(const std::string& in) const = 0;
};

// Registry. Built-in codecs (pipeline, rice) are always present; Register
// adds an external codec whose Id() must be >= kFirstRegisteredCodecId and
// unclaimed. Lookups return nullptr when nothing matches. All functions are
// thread-safe; registration is expected at startup, before compression
// traffic.
Status RegisterCodec(const Codec* codec);
const Codec* FindCodec(std::uint8_t id);
const Codec* FindCodecByName(const std::string& name);
// All registered codecs (pipeline first), for CLI listings and tests.
std::vector<const Codec*> RegisteredCodecs();

// The two built-ins.
const Codec& PipelineCodec();
const Codec& RiceCodec();  // defined in rice.cc

// Compresses `in` with the legacy pipeline codec; output always
// decompresses back to `in` exactly. (Kept for call sites that want
// deterministic legacy bytes, e.g. back-compat fixtures.)
std::string Compress(const std::string& in);

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

// Compresses with the codec registered under `name`, or with the auto
// policy when `name` is "auto". Fails on unknown names.
Result<std::string> CompressWith(const std::string& in,
                                 const std::string& name);

// Inverse of any codec's Compress: routes on the container's first byte
// (legacy flags or registered codec id). Fails on corrupt or truncated
// input and on unregistered ids.
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
