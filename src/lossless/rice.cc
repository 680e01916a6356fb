#include "lossless/rice.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "lossless/codec.h"

namespace mgardp {
namespace lossless {
namespace {

constexpr unsigned char kModeRaw = 0;
constexpr unsigned char kModeRice = 1;
constexpr unsigned char kInvertFlag = 0x40;
constexpr int kMaxK = 40;

// MSB-first bit writer/reader, same packing convention as the Huffman
// stage.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  void PutBits(std::uint64_t bits, int n) {
    // n <= 57 so the accumulator never overflows before draining.
    acc_ = (acc_ << n) | (bits & ((n == 64 ? 0 : std::uint64_t{1} << n) - 1));
    nbits_ += n;
    while (nbits_ >= 8) {
      nbits_ -= 8;
      out_->push_back(static_cast<char>((acc_ >> nbits_) & 0xFF));
    }
  }

  void PutUnary(std::uint64_t q) {
    while (q >= 32) {
      PutBits(0xFFFFFFFFu, 32);
      q -= 32;
    }
    // q one-bits followed by the terminating zero; PutBits is MSB-first,
    // so the ones must occupy the high bits of the (q + 1)-bit value.
    PutBits(((std::uint64_t{1} << q) - 1) << 1, static_cast<int>(q) + 1);
  }

  void Flush() {
    if (nbits_ > 0) {
      out_->push_back(static_cast<char>((acc_ << (8 - nbits_)) & 0xFF));
      nbits_ = 0;
    }
  }

 private:
  std::string* out_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

class BitReader {
 public:
  BitReader(const std::string& in, std::size_t start)
      : in_(in), byte_pos_(start) {}

  bool NextBit(int* bit) {
    if (byte_pos_ >= in_.size()) {
      return false;
    }
    *bit = (static_cast<unsigned char>(in_[byte_pos_]) >> bit_pos_) & 1;
    if (--bit_pos_ < 0) {
      bit_pos_ = 7;
      ++byte_pos_;
    }
    return true;
  }

  // Reads a unary quotient (ones terminated by a zero), bounded so corrupt
  // input cannot spin.
  bool NextUnary(std::uint64_t* q, std::uint64_t limit) {
    *q = 0;
    int bit = 0;
    while (NextBit(&bit)) {
      if (bit == 0) {
        return true;
      }
      if (++*q > limit) {
        return false;
      }
    }
    return false;
  }

  bool NextBits(int n, std::uint64_t* v) {
    *v = 0;
    int bit = 0;
    for (int i = 0; i < n; ++i) {
      if (!NextBit(&bit)) {
        return false;
      }
      *v = (*v << 1) | static_cast<std::uint64_t>(bit);
    }
    return true;
  }

  std::size_t BytesConsumed() const {
    return byte_pos_ + (bit_pos_ != 7 ? 1 : 0);
  }

 private:
  const std::string& in_;
  std::size_t byte_pos_;
  int bit_pos_ = 7;
};

// Gap list of the (possibly complemented) payload: entry g means g clear
// bits, then a set bit. Bit i is bit (i & 7) of byte (i >> 3).
std::vector<std::uint64_t> Gaps(const std::string& in, bool invert,
                                std::size_t num_marks) {
  std::vector<std::uint64_t> gaps;
  gaps.reserve(num_marks);
  const std::size_t n = in.size();
  std::uint64_t gap = 0;
  std::size_t i = 0;
  // Word-at-a-time scan; the tail byte loop handles n % 8.
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, in.data() + i, 8);
    if (invert) {
      w = ~w;
    }
    if (w == 0) {
      gap += 64;
      continue;
    }
    // Jump from set bit to set bit instead of testing all 64 positions:
    // mid-density planes otherwise pay a mispredicted branch per bit.
    int consumed = 0;
    while (w != 0) {
      const int b = __builtin_ctzll(w);
      gaps.push_back(gap + static_cast<std::uint64_t>(b - consumed));
      gap = 0;
      consumed = b + 1;
      w &= w - 1;
    }
    gap += static_cast<std::uint64_t>(64 - consumed);
  }
  for (; i < n; ++i) {
    unsigned char byte = static_cast<unsigned char>(in[i]);
    if (invert) {
      byte = static_cast<unsigned char>(~byte);
    }
    for (int b = 0; b < 8; ++b) {
      if ((byte >> b) & 1u) {
        gaps.push_back(gap);
        gap = 0;
      } else {
        ++gap;
      }
    }
  }
  return gaps;
}

std::string RawContainer(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 11);
  out.push_back(static_cast<char>(kRiceCodecId));
  out.push_back(static_cast<char>(kModeRaw));
  internal::PutVarint(&out, in.size());
  out.append(in);
  return out;
}

}  // namespace

namespace internal {

std::string RiceEncode(const std::string& in) {
  const std::size_t total_bits = in.size() * 8;
  std::size_t ones = 0;
  {
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
  }
  const bool invert = ones * 2 > total_bits;
  const std::vector<std::uint64_t> gaps =
      Gaps(in, invert, invert ? total_bits - ones : ones);

  std::string out;
  out.reserve(in.size() / 4 + 16);
  out.push_back(static_cast<char>(kRiceCodecId));
  out.push_back(static_cast<char>(kModeRice));
  internal::PutVarint(&out, in.size());
  if (gaps.empty()) {
    out.push_back(static_cast<char>(invert ? kInvertFlag : 0));
    internal::PutVarint(&out, 0);
    return out;
  }

  // Rice parameter: start from log2 of the mean gap and probe its
  // neighbourhood; the exact optimum rarely strays further, and the raw
  // comparison below backstops any miss.
  std::uint64_t gap_sum = 0;
  for (std::uint64_t g : gaps) {
    gap_sum += g;
  }
  const double mean = static_cast<double>(gap_sum) /
                      static_cast<double>(gaps.size());
  int k0 = 0;
  while (k0 < kMaxK && (std::uint64_t{1} << (k0 + 1)) < mean + 1.0) {
    ++k0;
  }
  const int k_lo = std::max(0, k0 - 1);
  const int k_hi = std::min(kMaxK, k0 + 2);
  std::uint64_t quot_sum[4] = {0, 0, 0, 0};
  for (std::uint64_t g : gaps) {
    for (int k = k_lo; k <= k_hi; ++k) {
      quot_sum[k - k_lo] += g >> k;
    }
  }
  int best_k = 0;
  std::uint64_t best_cost = ~std::uint64_t{0};
  for (int k = k_lo; k <= k_hi; ++k) {
    const std::uint64_t cost =
        quot_sum[k - k_lo] +
        gaps.size() * (1 + static_cast<std::uint64_t>(k));
    if (cost < best_cost) {
      best_cost = cost;
      best_k = k;
    }
  }

  out.push_back(static_cast<char>(best_k | (invert ? kInvertFlag : 0)));
  internal::PutVarint(&out, gaps.size());
  BitWriter w(&out);
  for (std::uint64_t g : gaps) {
    w.PutUnary(g >> best_k);
    if (best_k > 0) {
      w.PutBits(g, best_k);
    }
  }
  w.Flush();
  if (out.size() >= in.size() + 11) {
    return RawContainer(in);
  }
  return out;
}

Result<std::string> RiceDecode(const std::string& in) {
  std::size_t pos = 0;
  if (in.size() < 2 ||
      static_cast<unsigned char>(in[0]) != kRiceCodecId) {
    return Status::Invalid("rice: not a rice container");
  }
  const unsigned char mode = static_cast<unsigned char>(in[1]);
  pos = 2;
  std::uint64_t raw_size = 0;
  MGARDP_RETURN_NOT_OK(internal::GetVarint(in, &pos, &raw_size));
  if (raw_size > kMaxRawSize) {
    return Status::Invalid("rice: raw size exceeds sanity cap");
  }
  if (mode == kModeRaw) {
    if (in.size() - pos != raw_size) {
      return Status::Invalid("rice: raw payload size mismatch");
    }
    return in.substr(pos, static_cast<std::size_t>(raw_size));
  }
  if (mode != kModeRice) {
    return Status::Invalid("rice: unknown mode byte");
  }
  if (pos >= in.size()) {
    return Status::OutOfRange("rice: truncated header");
  }
  const unsigned char kf = static_cast<unsigned char>(in[pos++]);
  const bool invert = (kf & kInvertFlag) != 0;
  const int k = kf & 0x3F;
  if ((kf & ~(kInvertFlag | 0x3F)) != 0 || k > kMaxK) {
    return Status::Invalid("rice: bad parameter byte");
  }
  std::uint64_t num_marks = 0;
  MGARDP_RETURN_NOT_OK(internal::GetVarint(in, &pos, &num_marks));
  const std::uint64_t total_bits = raw_size * 8;
  if (num_marks > total_bits) {
    return Status::Invalid("rice: more marks than bits");
  }
  std::string out(static_cast<std::size_t>(raw_size), '\0');
  // Word-buffered bitstream scan: unary quotients are read as whole runs
  // via count-leading-zeros on the inverted buffer rather than a call
  // per bit. Accept/reject decisions match the bit-at-a-time reference
  // reader exactly.
  const std::uint64_t unary_limit = (total_bits >> k) + 1;
  std::size_t byte_pos = pos;
  std::uint64_t acc = 0;
  int navail = 0;
  auto refill = [&] {
    while (navail <= 56 && byte_pos < in.size()) {
      acc = (acc << 8) |
            static_cast<unsigned char>(in[byte_pos++]);
      navail += 8;
    }
  };
  std::uint64_t bit = 0;  // next payload bit to place
  for (std::uint64_t m = 0; m < num_marks; ++m) {
    std::uint64_t q = 0;
    for (;;) {
      refill();
      if (navail == 0) {
        return Status::OutOfRange("rice: truncated bitstream");
      }
      // Top navail bits of acc, ones inverted: when every buffered bit
      // is a one (lead == navail; the inverted zero padding below the
      // window bounds clz at navail) the run continues past the buffer.
      const std::uint64_t t = ~(acc << (64 - navail));
      const int lead = (t == 0) ? navail : __builtin_clzll(t);
      if (lead >= navail) {
        q += static_cast<std::uint64_t>(navail);
        navail = 0;
        if (q > unary_limit) {
          return Status::OutOfRange("rice: truncated bitstream");
        }
        continue;
      }
      q += static_cast<std::uint64_t>(lead);
      navail -= lead + 1;  // the ones plus the terminating zero
      if (q > unary_limit) {
        return Status::OutOfRange("rice: truncated bitstream");
      }
      break;
    }
    std::uint64_t rem = 0;
    if (k > 0) {
      refill();
      if (navail < k) {
        return Status::OutOfRange("rice: truncated bitstream");
      }
      navail -= k;
      rem = (acc >> navail) & ((std::uint64_t{1} << k) - 1);
    }
    const std::uint64_t gap = (q << k) | rem;
    bit += gap;
    if (bit >= total_bits) {
      return Status::Invalid("rice: mark position past payload end");
    }
    out[static_cast<std::size_t>(bit >> 3)] |=
        static_cast<char>(1u << (bit & 7));
    ++bit;
  }
  const std::size_t consumed_bits =
      (byte_pos - pos) * 8 - static_cast<std::size_t>(navail);
  if (pos + (consumed_bits + 7) / 8 != in.size()) {
    return Status::Invalid("rice: trailing bytes after bitstream");
  }
  if (invert) {
    for (char& c : out) {
      c = static_cast<char>(~c);
    }
  }
  return out;
}

}  // namespace internal

}  // namespace lossless
}  // namespace mgardp
