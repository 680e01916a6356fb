#include "lossless/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <queue>
#include <vector>

#include "lossless/rice.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace mgardp {
namespace lossless {
namespace internal {

void PutVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Status GetVarint(std::string_view in, std::size_t* pos, std::uint64_t* v) {
  *v = 0;
  int shift = 0;
  while (true) {
    if (*pos >= in.size() || shift > 63) {
      return Status::OutOfRange("varint: truncated or overlong");
    }
    const unsigned char b = static_cast<unsigned char>(in[(*pos)++]);
    *v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      return Status::OK();
    }
    shift += 7;
  }
}

namespace {

constexpr unsigned char kEsc = 0xFE;
constexpr std::size_t kMinRun = 4;

}  // namespace

std::string RleEncode(const std::string& in) {
  std::string out;
  out.reserve(in.size() / 2 + 16);
  std::size_t i = 0;
  while (i < in.size()) {
    const unsigned char b = static_cast<unsigned char>(in[i]);
    std::size_t run = 1;
    while (i + run < in.size() &&
           static_cast<unsigned char>(in[i + run]) == b) {
      ++run;
    }
    if (run >= kMinRun) {
      out.push_back(static_cast<char>(kEsc));
      out.push_back(0x01);
      out.push_back(static_cast<char>(b));
      PutVarint(&out, run);
      i += run;
    } else {
      for (std::size_t r = 0; r < run; ++r) {
        if (b == kEsc) {
          out.push_back(static_cast<char>(kEsc));
          out.push_back(0x00);
        } else {
          out.push_back(static_cast<char>(b));
        }
      }
      i += run;
    }
  }
  return out;
}

Result<std::string> RleDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size() * 2);
  std::size_t i = 0;
  while (i < in.size()) {
    const unsigned char b = static_cast<unsigned char>(in[i++]);
    if (b != kEsc) {
      out.push_back(static_cast<char>(b));
      continue;
    }
    if (i >= in.size()) {
      return Status::OutOfRange("RLE: dangling escape");
    }
    const unsigned char tag = static_cast<unsigned char>(in[i++]);
    if (tag == 0x00) {
      out.push_back(static_cast<char>(kEsc));
    } else if (tag == 0x01) {
      if (i >= in.size()) {
        return Status::OutOfRange("RLE: truncated run");
      }
      const char v = in[i++];
      std::uint64_t run = 0;
      MGARDP_RETURN_NOT_OK(GetVarint(in, &i, &run));
      if (run > kMaxRawSize - out.size()) {
        return Status::Invalid("RLE: run exceeds the decoded size cap");
      }
      out.append(static_cast<std::size_t>(run), v);
    } else {
      return Status::Invalid("RLE: bad escape tag");
    }
  }
  return out;
}

namespace {

constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzWindow = 1 << 16;
constexpr std::size_t kLzHashBits = 15;

std::uint32_t LzHash(const unsigned char* p, int hash_bits) {
  // Multiplicative hash of a 4-byte prefix.
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - hash_bits);
}

}  // namespace

// Token format (repeats until input is consumed):
//   varint(literal_count) [literals]
//   varint(match_length)  varint(offset)     -- omitted at end of stream
// match_length == 0 terminates after the literals.
std::string LzEncode(const std::string& in) {
  std::string out;
  out.reserve(in.size() / 2 + 16);
  const unsigned char* data =
      reinterpret_cast<const unsigned char*>(in.data());
  const std::size_t n = in.size();
  // Size the hash table to the input: a full 2^15-entry table is a 256 KiB
  // clear per call, which dwarfs the actual matching work on the few-KiB
  // payloads the refactorer feeds through here. The table size only shapes
  // match discovery; the token stream stays self-describing either way.
  int hash_bits = 9;
  while (hash_bits < static_cast<int>(kLzHashBits) &&
         (std::size_t{1} << hash_bits) < n) {
    ++hash_bits;
  }
  std::vector<std::int64_t> head(std::size_t{1} << hash_bits, -1);

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  auto flush_literals = [&](std::size_t upto) {
    PutVarint(&out, upto - literal_start);
    out.append(in, literal_start, upto - literal_start);
  };
  while (pos + kLzMinMatch <= n) {
    const std::uint32_t h = LzHash(data + pos, hash_bits);
    const std::int64_t cand = head[h];
    head[h] = static_cast<std::int64_t>(pos);
    std::size_t match_len = 0;
    if (cand >= 0 && pos - static_cast<std::size_t>(cand) <= kLzWindow &&
        std::memcmp(data + cand, data + pos, kLzMinMatch) == 0) {
      const std::size_t offset = pos - static_cast<std::size_t>(cand);
      match_len = kLzMinMatch;
      const std::size_t max_len = n - pos;
      while (match_len < max_len &&
             data[cand + match_len] == data[pos + match_len]) {
        ++match_len;
      }
      flush_literals(pos);
      PutVarint(&out, match_len);
      PutVarint(&out, offset);
      // Insert a few positions inside the match to keep the table fresh.
      const std::size_t stop = std::min(pos + match_len, n - kLzMinMatch);
      for (std::size_t q = pos + 1; q < stop; q += 7) {
        head[LzHash(data + q, hash_bits)] = static_cast<std::int64_t>(q);
      }
      pos += match_len;
      literal_start = pos;
      continue;
    }
    ++pos;
  }
  // Tail literals + terminator.
  flush_literals(n);
  PutVarint(&out, 0);
  return out;
}

Result<std::string> LzDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size() * 2);
  std::size_t pos = 0;
  while (pos < in.size()) {
    std::uint64_t literal_count = 0;
    MGARDP_RETURN_NOT_OK(GetVarint(in, &pos, &literal_count));
    if (literal_count > in.size() - pos) {
      return Status::OutOfRange("lz: literal run past end of input");
    }
    out.append(in.substr(pos, literal_count));
    pos += literal_count;
    std::uint64_t match_len = 0;
    MGARDP_RETURN_NOT_OK(GetVarint(in, &pos, &match_len));
    if (match_len == 0) {
      if (pos != in.size()) {
        return Status::Invalid("lz: data after terminator");
      }
      break;
    }
    std::uint64_t offset = 0;
    MGARDP_RETURN_NOT_OK(GetVarint(in, &pos, &offset));
    if (offset == 0 || offset > out.size()) {
      return Status::OutOfRange("lz: offset outside the window");
    }
    if (match_len > kMaxRawSize - out.size()) {
      return Status::Invalid("lz: match exceeds the decoded size cap");
    }
    // Byte-by-byte copy: overlapping matches (offset < length) replicate.
    std::size_t src = out.size() - static_cast<std::size_t>(offset);
    for (std::uint64_t i = 0; i < match_len; ++i) {
      out.push_back(out[src + i]);
    }
  }
  return out;
}

namespace {

// Computes Huffman code lengths for 256 byte symbols (0 = unused symbol).
std::array<std::uint8_t, 256> CodeLengths(
    const std::array<std::uint64_t, 256>& freq) {
  std::array<std::uint8_t, 256> lengths{};
  // Nodes: 0..255 are leaves; internal nodes appended after.
  struct Node {
    std::uint64_t weight;
    int index;
  };
  auto cmp = [](const Node& a, const Node& b) {
    // Tie-break on index for determinism.
    return a.weight > b.weight || (a.weight == b.weight && a.index > b.index);
  };
  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
  std::vector<int> parent;
  parent.reserve(512);
  parent.resize(256, -1);
  int used = 0;
  for (int s = 0; s < 256; ++s) {
    if (freq[s] > 0) {
      heap.push({freq[s], s});
      ++used;
    }
  }
  if (used == 0) {
    return lengths;
  }
  if (used == 1) {
    // Degenerate tree: single symbol gets a 1-bit code.
    for (int s = 0; s < 256; ++s) {
      if (freq[s] > 0) {
        lengths[s] = 1;
      }
    }
    return lengths;
  }
  while (heap.size() > 1) {
    Node a = heap.top();
    heap.pop();
    Node b = heap.top();
    heap.pop();
    const int idx = static_cast<int>(parent.size());
    parent.push_back(-1);
    parent[a.index] = idx;
    parent[b.index] = idx;
    heap.push({a.weight + b.weight, idx});
  }
  for (int s = 0; s < 256; ++s) {
    if (freq[s] == 0) {
      continue;
    }
    int depth = 0;
    for (int n = s; parent[n] != -1; n = parent[n]) {
      ++depth;
    }
    lengths[s] = static_cast<std::uint8_t>(depth);
  }
  return lengths;
}

// Canonical code assignment: codes sorted by (length, symbol).
std::array<std::uint32_t, 256> CanonicalCodes(
    const std::array<std::uint8_t, 256>& lengths) {
  std::array<std::uint32_t, 256> codes{};
  std::vector<int> symbols;
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] > 0) {
      symbols.push_back(s);
    }
  }
  std::sort(symbols.begin(), symbols.end(), [&](int a, int b) {
    return lengths[a] < lengths[b] || (lengths[a] == lengths[b] && a < b);
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (int s : symbols) {
    code <<= (lengths[s] - prev_len);
    codes[s] = code;
    ++code;
    prev_len = lengths[s];
  }
  return codes;
}

}  // namespace

// Byte histogram with four interleaved sub-counts: a single counter array
// serializes on store-to-load forwarding when neighbouring bytes repeat,
// which is the common case for bit-plane payloads.
std::array<std::uint64_t, 256> ByteHistogram(const std::string& in) {
  std::array<std::uint64_t, 256> h0{}, h1{}, h2{}, h3{};
  const unsigned char* p = reinterpret_cast<const unsigned char*>(in.data());
  std::size_t i = 0;
  for (; i + 4 <= in.size(); i += 4) {
    ++h0[p[i]];
    ++h1[p[i + 1]];
    ++h2[p[i + 2]];
    ++h3[p[i + 3]];
  }
  for (; i < in.size(); ++i) {
    ++h0[p[i]];
  }
  for (int s = 0; s < 256; ++s) {
    h0[s] += h1[s] + h2[s] + h3[s];
  }
  return h0;
}

std::string HuffmanEncode(const std::string& in) {
  const std::array<std::uint64_t, 256> freq = ByteHistogram(in);
  const auto lengths = CodeLengths(freq);
  const auto codes = CanonicalCodes(lengths);

  // The exact body size is known from the histogram, so the bitstream is
  // written straight into a pre-sized buffer (a push_back per output byte
  // would dominate the encode) and drained four bytes at a time.
  std::uint64_t total_bits = 0;
  for (int s = 0; s < 256; ++s) {
    total_bits += freq[s] * lengths[s];
  }
  BinaryWriter header;
  header.Put<std::uint64_t>(in.size());
  std::string out = header.TakeBuffer();
  out.append(reinterpret_cast<const char*>(lengths.data()), 256);
  const std::size_t body_off = out.size();
  out.resize(body_off + static_cast<std::size_t>((total_bits + 7) / 8));
  char* dst = &out[body_off];

  // MSB-first bit packing, byte-identical to a per-byte drain. Code
  // lengths are bounded well below 33 bits for <= 64 KiB chunk inputs, so
  // a 32-bit drain never overflows the 64-bit accumulator.
  std::uint64_t acc = 0;
  int nbits = 0;
  for (unsigned char c : in) {
    acc = (acc << lengths[c]) | codes[c];
    nbits += lengths[c];
    if (nbits >= 32) {
      nbits -= 32;
      const std::uint32_t word =
          __builtin_bswap32(static_cast<std::uint32_t>(acc >> nbits));
      std::memcpy(dst, &word, 4);
      dst += 4;
    }
  }
  while (nbits >= 8) {
    nbits -= 8;
    *dst++ = static_cast<char>((acc >> nbits) & 0xFF);
  }
  if (nbits > 0) {
    *dst++ = static_cast<char>((acc << (8 - nbits)) & 0xFF);
  }
  return out;
}

Result<std::string> HuffmanDecode(std::string_view in) {
  if (in.size() < 8 + 256) {
    return Status::OutOfRange("huffman: truncated header");
  }
  BinaryReader r(in.data(), in.size());
  std::uint64_t n = 0;
  MGARDP_RETURN_NOT_OK(r.Get(&n));
  std::array<std::uint8_t, 256> lengths{};
  MGARDP_RETURN_NOT_OK(r.GetBytes(lengths.data(), 256));
  // Every code is at least one bit long.
  if (n > 8 * (in.size() - (8 + 256))) {
    return Status::OutOfRange("huffman: symbol count exceeds the payload");
  }

  std::string out;
  out.reserve(n);
  if (n == 0) {
    return out;
  }

  // Canonical decoding tables per code length.
  int max_len = 0;
  for (int s = 0; s < 256; ++s) {
    max_len = std::max<int>(max_len, lengths[s]);
  }
  if (max_len == 0) {
    return Status::Invalid("huffman: no symbols but nonzero payload");
  }
  std::vector<std::uint32_t> first_code(max_len + 1, 0);
  std::vector<std::uint32_t> count(max_len + 1, 0);
  std::vector<std::vector<std::uint8_t>> syms(max_len + 1);
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] > 0) {
      ++count[lengths[s]];
      syms[lengths[s]].push_back(static_cast<std::uint8_t>(s));
    }
  }
  std::uint32_t code = 0;
  for (int len = 1; len <= max_len; ++len) {
    code <<= 1;
    first_code[len] = code;
    code += count[len];
  }

  // Primary lookup table: every prefix of kTableBits resolves the symbol
  // and its length in one load when the code fits; longer codes take the
  // canonical per-length walk. Entry 0 marks an invalid prefix.
  const int table_bits = std::min(max_len, 12);
  std::vector<std::uint16_t> table(std::size_t{1} << table_bits, 0);
  {
    std::uint32_t c2 = 0;
    for (int len = 1; len <= table_bits; ++len) {
      c2 <<= 1;
      for (std::uint32_t idx = 0; idx < count[len]; ++idx) {
        const std::uint32_t code_bits = c2 + idx;
        const int pad = table_bits - len;
        const std::uint16_t entry = static_cast<std::uint16_t>(
            (static_cast<int>(syms[len][idx]) << 8) | len);
        const std::size_t base = static_cast<std::size_t>(code_bits) << pad;
        for (std::size_t fill = 0; fill < (std::size_t{1} << pad); ++fill) {
          table[base + fill] = entry;
        }
      }
      c2 += count[len];
    }
  }

  const std::size_t payload_off = 8 + 256;
  std::size_t byte_pos = payload_off;
  int bit_pos = 7;
  auto next_bit = [&](int* bit) -> bool {
    if (byte_pos >= in.size()) {
      return false;
    }
    *bit = (static_cast<unsigned char>(in[byte_pos]) >> bit_pos) & 1;
    if (--bit_pos < 0) {
      bit_pos = 7;
      ++byte_pos;
    }
    return true;
  };

  // Fast path: a 64-bit refill buffer over whole bytes. Falls back to the
  // bit-by-bit walk near the end of the input and for codes longer than
  // the table, reproducing the reference decoder's behavior exactly.
  std::uint64_t acc64 = 0;
  int navail = 0;
  std::uint64_t i = 0;
  if (bit_pos == 7) {
    while (i < n) {
      while (navail <= 56 && byte_pos < in.size()) {
        acc64 = (acc64 << 8) |
                static_cast<unsigned char>(in[byte_pos++]);
        navail += 8;
      }
      if (navail < max_len) {
        break;  // tail: finish with the exact reference loop
      }
      const std::uint32_t peek = static_cast<std::uint32_t>(
          (acc64 >> (navail - table_bits)) &
          ((std::uint64_t{1} << table_bits) - 1));
      const std::uint16_t entry = table[peek];
      int len = entry & 0xFF;
      int sym;
      if (len != 0) {
        sym = entry >> 8;
      } else {
        // Code longer than the table: canonical walk on the buffered bits.
        std::uint32_t code_acc = 0;
        len = 0;
        sym = -1;
        while (len < max_len) {
          code_acc = (code_acc << 1) |
                     static_cast<std::uint32_t>(
                         (acc64 >> (navail - len - 1)) & 1u);
          ++len;
          if (count[len] > 0 && code_acc >= first_code[len] &&
              code_acc < first_code[len] + count[len]) {
            sym = syms[len][code_acc - first_code[len]];
            break;
          }
        }
        if (sym < 0) {
          return Status::Invalid("huffman: invalid code in payload");
        }
      }
      navail -= len;
      out.push_back(static_cast<char>(sym));
      ++i;
    }
    // Hand unconsumed buffered bits back to the byte/bit cursor.
    byte_pos -= static_cast<std::size_t>(navail / 8);
    bit_pos = 7;
    const int frac = navail % 8;
    if (frac != 0) {
      --byte_pos;
      bit_pos = frac - 1;
    }
  }

  for (; i < n; ++i) {
    std::uint32_t acc = 0;
    int len = 0;
    int sym = -1;
    while (len < max_len) {
      int bit = 0;
      if (!next_bit(&bit)) {
        return Status::OutOfRange("huffman: truncated payload");
      }
      acc = (acc << 1) | static_cast<std::uint32_t>(bit);
      ++len;
      if (count[len] > 0 && acc >= first_code[len] &&
          acc < first_code[len] + count[len]) {
        sym = syms[len][acc - first_code[len]];
        break;
      }
    }
    if (sym < 0) {
      return Status::Invalid("huffman: invalid code in payload");
    }
    out.push_back(static_cast<char>(sym));
  }
  return out;
}

}  // namespace internal

namespace {
// Container flags in the leading method byte. RLE and LZ are front-stage
// alternatives; Huffman can stack on either. Chunked containers carry the
// chunked flag alone; each chunk is a complete single-shot container.
constexpr unsigned char kFlagRle = 0x01;
constexpr unsigned char kFlagHuffman = 0x02;
constexpr unsigned char kFlagLz = 0x04;
constexpr unsigned char kFlagChunked = 0x08;

// Inputs above one chunk are framed into kChunkSize pieces so encode and
// decode parallelize per chunk. The boundary is a format constant: the
// output bytes never depend on the thread count.
constexpr std::size_t kChunkSize = 64 * 1024;

// The original single-shot container: best front stage, then Huffman if it
// helps.
std::string CompressWhole(const std::string& in) {
  unsigned char flags = 0;
  std::string stage = in;
  std::string rle = internal::RleEncode(in);
  std::string lz = internal::LzEncode(in);
  if (lz.size() < stage.size() && lz.size() <= rle.size()) {
    flags |= kFlagLz;
    stage = std::move(lz);
  } else if (rle.size() < stage.size()) {
    flags |= kFlagRle;
    stage = std::move(rle);
  }
  // A Huffman container carries an 8-byte size plus a 256-byte length
  // table, so it can only win on stages larger than that; skipping the
  // trial below the floor changes nothing about the chosen output.
  if (stage.size() > 8 + 256) {
    std::string entropy = internal::HuffmanEncode(stage);
    if (entropy.size() < stage.size()) {
      flags |= kFlagHuffman;
      stage = std::move(entropy);
    }
  }
  std::string out;
  out.reserve(stage.size() + 1);
  out.push_back(static_cast<char>(flags));
  out.append(stage);
  return out;
}

// Undoes a single-shot container's stages. The result views the decoded
// bytes: the container's own body when it is stored raw, else `*stage`,
// which holds the last stage's output.
Result<std::string_view> DecodeWhole(std::string_view in, std::string* stage) {
  if (in.empty()) {
    return Status::OutOfRange("lossless: empty container");
  }
  const unsigned char flags = static_cast<unsigned char>(in[0]);
  if ((flags & ~(kFlagRle | kFlagHuffman | kFlagLz)) != 0) {
    return Status::Invalid("lossless: unknown method flags");
  }
  if ((flags & kFlagRle) && (flags & kFlagLz)) {
    return Status::Invalid("lossless: RLE and LZ flags are exclusive");
  }
  std::string_view body = in.substr(1);
  if (flags & kFlagHuffman) {
    MGARDP_ASSIGN_OR_RETURN(*stage, internal::HuffmanDecode(body));
    body = *stage;
  }
  if (flags & kFlagLz) {
    MGARDP_ASSIGN_OR_RETURN(*stage, internal::LzDecode(body));
    body = *stage;
  }
  if (flags & kFlagRle) {
    MGARDP_ASSIGN_OR_RETURN(*stage, internal::RleDecode(body));
    body = *stage;
  }
  return body;
}

std::string CompressChunked(const std::string& in) {
  // Chunked frame: flags byte, then varint(raw_size), varint(chunk_size),
  // varint(num_chunks), then per chunk varint(frame_size) + frame.
  const std::size_t num_chunks = (in.size() + kChunkSize - 1) / kChunkSize;
  std::vector<std::string> frames(num_chunks);
  ParallelFor(0, num_chunks, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      frames[c] = CompressWhole(in.substr(c * kChunkSize, kChunkSize));
    }
  });
  std::string out;
  out.push_back(static_cast<char>(kFlagChunked));
  internal::PutVarint(&out, in.size());
  internal::PutVarint(&out, kChunkSize);
  internal::PutVarint(&out, num_chunks);
  for (const std::string& f : frames) {
    internal::PutVarint(&out, f.size());
    out.append(f);
  }
  return out;
}

Result<std::string> DecompressPipeline(const std::string& in) {
  if (in.empty()) {
    return Status::OutOfRange("lossless: empty container");
  }
  const unsigned char flags = static_cast<unsigned char>(in[0]);
  if ((flags & kFlagChunked) == 0) {
    std::string stage;
    MGARDP_ASSIGN_OR_RETURN(std::string_view out, DecodeWhole(in, &stage));
    if (out.data() == stage.data()) {
      return stage;
    }
    return std::string(out);
  }
  if (flags != kFlagChunked) {
    return Status::Invalid("lossless: chunked flag admits no other flags");
  }
  std::size_t pos = 1;
  std::uint64_t raw_size = 0, chunk_size = 0, num_chunks = 0;
  MGARDP_RETURN_NOT_OK(internal::GetVarint(in, &pos, &raw_size));
  MGARDP_RETURN_NOT_OK(internal::GetVarint(in, &pos, &chunk_size));
  MGARDP_RETURN_NOT_OK(internal::GetVarint(in, &pos, &num_chunks));
  if (raw_size > kMaxRawSize || chunk_size > kMaxRawSize) {
    return Status::Invalid("lossless: chunk header exceeds the size cap");
  }
  if (chunk_size == 0 || num_chunks == 0 ||
      (raw_size + chunk_size - 1) / chunk_size != num_chunks) {
    return Status::Invalid("lossless: inconsistent chunk header");
  }
  // Every frame carries at least its one-byte size varint.
  if (num_chunks > in.size() - pos) {
    return Status::OutOfRange("lossless: fewer frames than chunks");
  }
  std::vector<std::string_view> frames(num_chunks);
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    std::uint64_t frame_size = 0;
    MGARDP_RETURN_NOT_OK(internal::GetVarint(in, &pos, &frame_size));
    if (frame_size > in.size() - pos) {
      return Status::OutOfRange("lossless: chunk frame past end of input");
    }
    frames[c] = std::string_view(in).substr(pos, frame_size);
    pos += frame_size;
  }
  if (pos != in.size()) {
    return Status::Invalid("lossless: trailing bytes after chunk frames");
  }
  // Each frame decodes straight into its own slice of the output.
  std::string out(raw_size, '\0');
  char* const dst = out.data();
  std::vector<Status> results(num_chunks);
  ParallelFor(0, num_chunks, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      std::string stage;
      Result<std::string_view> piece = DecodeWhole(frames[c], &stage);
      const std::size_t expect =
          std::min<std::size_t>(chunk_size, raw_size - c * chunk_size);
      if (!piece.ok()) {
        results[c] = piece.status();
      } else if (piece.value().size() != expect) {
        results[c] =
            Status::Invalid("lossless: chunk decodes to the wrong size");
      } else {
        std::memcpy(dst + c * chunk_size, piece.value().data(), expect);
      }
    }
  });
  for (const Status& st : results) {
    MGARDP_RETURN_NOT_OK(st);
  }
  return out;
}

// The pipeline container: whole-buffer up to one chunk, framed above.
std::string CompressPipeline(const std::string& in) {
  return in.size() <= kChunkSize ? CompressWhole(in) : CompressChunked(in);
}

// Set-bit density of the payload, in [0, 1].
double BitDensity(const std::string& in) {
  std::size_t ones = 0;
  std::size_t i = 0;
  for (; i + 8 <= in.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, in.data() + i, 8);
    ones += static_cast<std::size_t>(__builtin_popcountll(w));
  }
  for (; i < in.size(); ++i) {
    ones += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned char>(in[i])));
  }
  return in.empty() ? 0.0
                    : static_cast<double>(ones) /
                          static_cast<double>(in.size() * 8);
}

// Shannon entropy of the byte histogram, in bits per byte. Computed as
// log2(n) - (1/n) * sum(f * log2(f)) with a small-integer log2 table:
// typical bit-plane payloads put one-digit counts in most bins, and 256
// libm log2 calls per plane would dominate the whole routing decision.
double ByteEntropy(const std::string& in) {
  static const std::array<double, 256> kLog2 = [] {
    std::array<double, 256> t{};
    for (int i = 1; i < 256; ++i) {
      t[i] = std::log2(static_cast<double>(i));
    }
    return t;
  }();
  const std::array<std::uint64_t, 256> freq = internal::ByteHistogram(in);
  const double n = static_cast<double>(in.size());
  double flogf = 0.0;
  for (std::uint64_t f : freq) {
    if (f > 0) {
      const double fd = static_cast<double>(f);
      flogf += fd * (f < 256 ? kLog2[f] : std::log2(fd));
    }
  }
  return in.empty() ? 0.0 : std::log2(n) - flogf / n;
}

}  // namespace

const char* CodecName(std::uint8_t id) {
  if (id < kFirstRegisteredCodecId) {
    return "pipeline";
  }
  return id == kRiceCodecId ? "rice" : nullptr;
}

std::string CompressAuto(const std::string& in) {
  // Tiny payloads: the trials cost more than they can save.
  if (in.size() < 64) {
    return CompressPipeline(in);
  }
  const double density = BitDensity(in);
  // Sparse planes (either polarity; Rice inverts internally): gap coding
  // wins and the pipeline trials are the expensive part of refactoring.
  if (density < 1.0 / 16.0 || density > 15.0 / 16.0) {
    return internal::RiceEncode(in);
  }
  // Near-random planes (the low-significance half of every level): neither
  // codec can win more than a few percent, so store raw -- a legal
  // pipeline container with an empty flags byte -- and skip the trials.
  if (ByteEntropy(in) > 7.5) {
    std::string out;
    out.reserve(in.size() + 1);
    out.push_back('\0');
    out.append(in);
    return out;
  }
  // Balanced planes can't profit from gap coding: at density >= 1/4 the
  // mean gap is <= 4, so Rice spends >= 2 bits per mark (terminator plus
  // remainder) on >= B/4 marks -- never beating the pipeline's entropy
  // stage. Skip the Rice trial there.
  if (density >= 0.25 && density <= 0.75) {
    return CompressPipeline(in);
  }
  // The contested middle: pay for both and keep the smaller container.
  std::string pipeline = CompressPipeline(in);
  std::string rice = internal::RiceEncode(in);
  return rice.size() < pipeline.size() ? rice : pipeline;
}

Result<std::string> CompressWith(const std::string& in,
                                 const std::string& name) {
  if (name == "auto") {
    return CompressAuto(in);
  }
  if (name == "pipeline") {
    return CompressPipeline(in);
  }
  if (name == "rice") {
    return internal::RiceEncode(in);
  }
  return Status::Invalid("lossless: unknown codec '" + name + "'");
}

Result<std::string> Decompress(const std::string& in) {
  if (in.empty()) {
    return Status::OutOfRange("lossless: empty container");
  }
  const std::uint8_t id = static_cast<unsigned char>(in[0]);
  if (id < kFirstRegisteredCodecId) {
    return DecompressPipeline(in);
  }
  if (id == kRiceCodecId) {
    return internal::RiceDecode(in);
  }
  return Status::Invalid("lossless: unknown codec id");
}

}  // namespace lossless
}  // namespace mgardp
