#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/logging.h"

namespace mgardp {

FieldSummary Summarize(const double* values, std::size_t n) {
  FieldSummary s;
  s.count = n;
  if (n == 0) {
    return s;
  }
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[i];
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
    abs_sum += std::fabs(v);
    sq_sum += v * v;
    s.abs_max = std::max(s.abs_max, std::fabs(v));
  }
  s.mean = sum / static_cast<double>(n);
  s.abs_mean = abs_sum / static_cast<double>(n);
  s.l2_norm = std::sqrt(sq_sum);

  // Central moments in a second pass for numerical robustness.
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = values[i] - s.mean;
    const double d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  m4 /= static_cast<double>(n);
  s.stddev = std::sqrt(m2);
  if (m2 > 0.0) {
    s.skewness = m3 / std::pow(m2, 1.5);
    s.kurtosis = m4 / (m2 * m2) - 3.0;
  }
  return s;
}

FieldSummary Summarize(const std::vector<double>& values) {
  return Summarize(values.data(), values.size());
}

std::string FieldSummary::ToString() const {
  std::ostringstream os;
  os << "n=" << count << " min=" << min << " max=" << max << " mean=" << mean
     << " std=" << stddev;
  return os.str();
}

double MaxAbsError(const std::vector<double>& a,
                   const std::vector<double>& b) {
  MGARDP_CHECK_EQ(a.size(), b.size());
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, std::fabs(a[i] - b[i]));
  }
  return err;
}

double RmsError(const std::vector<double>& a, const std::vector<double>& b) {
  MGARDP_CHECK_EQ(a.size(), b.size());
  if (a.empty()) {
    return 0.0;
  }
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(a.size()));
}

double Psnr(const std::vector<double>& original,
            const std::vector<double>& reconstructed) {
  const double rmse = RmsError(original, reconstructed);
  const FieldSummary s = Summarize(original);
  if (rmse == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  if (s.range() == 0.0) {
    return -std::numeric_limits<double>::infinity();
  }
  return 20.0 * std::log10(s.range() / rmse);
}

double Quantile(std::vector<double> values, double q) {
  MGARDP_CHECK(!values.empty());
  MGARDP_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

namespace {

// Places the order statistics at `ranks` (ascending, within [first, last))
// into their sorted positions via divide-and-conquer nth_element: the k-th
// smallest element of a multiset is a well-defined value, so the ranks end
// up holding exactly what a full sort would put there, in O(n log ranks)
// instead of O(n log n).
void SelectRanks(std::uint64_t* keys, std::size_t first, std::size_t last,
                 const std::size_t* ranks, std::size_t num_ranks) {
  if (num_ranks == 0 || first >= last) {
    return;
  }
  const std::size_t mid = num_ranks / 2;
  const std::size_t r = ranks[mid];
  std::nth_element(keys + first, keys + r, keys + last);
  SelectRanks(keys, first, r, ranks, mid);
  SelectRanks(keys, r + 1, last, ranks + mid + 1, num_ranks - mid - 1);
}

// The radix digit of the selection: the top 16 bits of |v|'s IEEE-754
// pattern. The sign bit is clear, so 2^15 buckets cover every |v|.
constexpr int kBucketShift = 48;
constexpr std::size_t kNumBuckets = std::size_t{1} << 15;

inline std::uint64_t AbsKey(double v) {
  return std::bit_cast<std::uint64_t>(std::fabs(v));
}

}  // namespace

std::vector<double> AbsQuantileSketch(const std::vector<double>& values,
                                      std::size_t bins) {
  MGARDP_CHECK_GT(bins, 0u);
  std::vector<double> sketch(bins, 0.0);
  const std::size_t n = values.size();
  if (n == 0) {
    return sketch;
  }
  // Each bin reads positions lo and lo + 1 of the sorted |values|;
  // selecting just those ranks yields the same values as sorting
  // everything.
  std::vector<std::size_t> ranks;
  ranks.reserve(2 * bins);
  for (std::size_t b = 0; b < bins; ++b) {
    const double q = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
    const double pos = q * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    ranks.push_back(lo);
    ranks.push_back(std::min(lo + 1, n - 1));
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());

  // Non-negative doubles order like their bit patterns read as unsigned
  // integers, so a histogram of the patterns' top bits tells which bucket
  // holds each wanted rank. Only those buckets' keys are gathered, each
  // bucket into its own segment of `keys`, and selected within.
  std::vector<std::size_t> bucket(kNumBuckets, 0);
  for (const double v : values) {
    ++bucket[AbsKey(v) >> kBucketShift];
  }
  struct Segment {
    std::size_t begin;      // offset in `keys`
    std::size_t size;
    std::size_t num_ranks;  // wanted ranks inside, a run of `ranks`
  };
  std::vector<Segment> segments;
  std::vector<std::size_t> positions(ranks.size());  // rank -> keys index
  constexpr std::size_t kSkip = static_cast<std::size_t>(-1);
  std::size_t below = 0;  // |values| in the buckets before this one
  std::size_t gathered = 0;
  std::size_t r = 0;
  for (std::size_t& slot : bucket) {
    const std::size_t count = slot;
    slot = kSkip;
    if (r < ranks.size() && ranks[r] < below + count) {
      Segment seg{gathered, count, 0};
      for (; r < ranks.size() && ranks[r] < below + count; ++r) {
        positions[r] = ranks[r] - below + gathered;
        ++seg.num_ranks;
      }
      segments.push_back(seg);
      slot = gathered;
      gathered += count;
    }
    below += count;
  }
  // The gather is branchless: skipped buckets all write to the spare slot
  // keys[gathered] and never advance. That slot exists only when some
  // value is skipped, so `keys` never outgrows a copy of `values`.
  for (std::size_t& slot : bucket) {
    if (slot == kSkip) {
      slot = gathered;
    }
  }
  std::vector<std::uint64_t> keys(std::min(gathered + 1, n));
  for (const double v : values) {
    const std::uint64_t key = AbsKey(v);
    std::size_t& slot = bucket[key >> kBucketShift];
    keys[slot] = key;
    slot += slot != gathered;
  }
  const std::size_t* seg_positions = positions.data();
  for (const Segment& seg : segments) {
    SelectRanks(keys.data(), seg.begin, seg.begin + seg.size, seg_positions,
                seg.num_ranks);
    seg_positions += seg.num_ranks;
  }

  const auto at_rank = [&](std::size_t rank) {
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(ranks.begin(), ranks.end(), rank) - ranks.begin());
    return std::bit_cast<double>(keys[positions[i]]);
  };
  for (std::size_t b = 0; b < bins; ++b) {
    const double q = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
    const double pos = q * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    sketch[b] = at_rank(lo) * (1.0 - frac) + at_rank(hi) * frac;
  }
  return sketch;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  MGARDP_CHECK_EQ(a.size(), b.size());
  if (a.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va == 0.0 || vb == 0.0) {
    return 0.0;
  }
  return cov / std::sqrt(va * vb);
}

}  // namespace mgardp
