#include "image/quantized_store.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>

namespace fuzzydb {

namespace {

// Relative margin shaved off d~ before subtracting the residuals, so the
// float recombination's roundoff (~1e-16 relative) can never push the
// computed bound past the exactly-computed squared distance. See the
// header's derivation: when the clamped bound is positive, d~ > r_x + r_t,
// so a 1e-9 relative shave dominates every accumulated rounding term.
constexpr double kBoundSafety = 1e-9;

// Rows per block-0 kernel call (and per LowerBounds2 ScreenedBounds call),
// and the int32 tail block sums and gathered tail codes one tail kernel
// call keeps (16 KB of stack each: still 16 rows per call at kMaxBlocks
// blocks).
constexpr size_t kBatchRows = 256;
constexpr size_t kTailSums = 4096;
constexpr size_t kTailCodes = 16384;

// The largest block-0 sum: kBlockDim squared differences of codes in
// [-kInt8CodeMax, kInt8CodeMax].
constexpr int32_t kMaxPrefixSum =
    static_cast<int32_t>(simd::kBlockDim) * (2 * simd::kInt8CodeMax) *
    (2 * simd::kInt8CodeMax);

int8_t QuantizeValue(double value, double scale) {
  if (scale <= 0.0) return 0;
  const double scaled = value / scale;
  // Clamp before rounding: stored rows never clamp (the scale is sized from
  // their maxima), but query targets may lie outside the store's range, and
  // lround on a huge quotient would be UB.
  if (scaled >= static_cast<double>(simd::kInt8CodeMax)) {
    return static_cast<int8_t>(simd::kInt8CodeMax);
  }
  if (scaled <= -static_cast<double>(simd::kInt8CodeMax)) {
    return static_cast<int8_t>(-simd::kInt8CodeMax);
  }
  return static_cast<int8_t>(std::lround(scaled));
}

}  // namespace

// Accumulates the residual in ascending-dimension order (deterministic).
double QuantizedStore::EncodeRowAgainst(const double* row, size_t dim,
                                        std::span<const double> scales,
                                        int8_t* codes) {
  double residual_sq = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double s = scales[j / kBlockDim];
    const int8_t q = QuantizeValue(row[j], s);
    codes[j] = q;
    const double err = row[j] - static_cast<double>(q) * s;
    residual_sq += err * err;
  }
  return std::sqrt(residual_sq);
}

void QuantizedStore::Allocate(size_t size, size_t dim) {
  assert(dim <= kMaxBlocks * kBlockDim);
  size_ = size;
  dim_ = dim;
  blocks_ = NumBlocks(dim);
  padded_ = blocks_ * kBlockDim;
  kernel_level_ = simd::Active();
  kernel_ = simd::ResolveBlockSsdRows(kernel_level_);
  prefix_ = AlignedArray<int8_t>(size * kBlockDim);
  tail_ = AlignedArray<int8_t>(size * tail_dim());
}

QuantizedStore QuantizedStore::FromParts(size_t size, size_t dim,
                                         std::vector<double> scales,
                                         std::vector<double> residuals) {
  QuantizedStore store;
  if (size == 0 || dim == 0) return store;
  store.Allocate(size, dim);
  assert(scales.size() == store.blocks_ && residuals.size() == size);
  store.scales_ = std::move(scales);
  store.scales_sq_.resize(store.blocks_);
  for (size_t b = 0; b < store.blocks_; ++b) {
    store.scales_sq_[b] = store.scales_[b] * store.scales_[b];
  }
  store.residuals_ = std::move(residuals);
  store.max_residual_ =
      *std::max_element(store.residuals_.begin(), store.residuals_.end());
  return store;
}

void QuantizedStore::StoreRowCodes(size_t first,
                                   std::span<const int8_t> codes) {
  assert(codes.size() % padded_ == 0 &&
         first + codes.size() / padded_ <= size_);
  const size_t tail = tail_dim();
  for (size_t r = 0; r * padded_ < codes.size(); ++r) {
    const int8_t* row = codes.data() + r * padded_;
    std::memcpy(prefix_.data() + (first + r) * kBlockDim, row, kBlockDim);
    std::memcpy(tail_.data() + (first + r) * tail, row + kBlockDim, tail);
  }
}

void QuantizedStore::CopyRowCodes(size_t i, std::span<int8_t> out) const {
  assert(i < size_ && out.size() == padded_);
  std::memcpy(out.data(), prefix_.data() + i * kBlockDim, kBlockDim);
  std::memcpy(out.data() + kBlockDim, tail_.data() + i * tail_dim(),
              tail_dim());
}

QuantizedStore QuantizedStore::Build(const double* rows, size_t size,
                                     size_t dim, size_t stride) {
  QuantizedStore store;
  if (size == 0 || dim == 0) return store;
  assert(stride >= dim);
  store.Allocate(size, dim);

  // Per-block scales from the data's own maxima: stored codes never clamp.
  store.scales_.assign(store.blocks_, 0.0);
  for (size_t i = 0; i < size; ++i) {
    const double* row = rows + i * stride;
    for (size_t j = 0; j < dim; ++j) {
      store.scales_[j / kBlockDim] =
          std::max(store.scales_[j / kBlockDim], std::fabs(row[j]));
    }
  }
  store.scales_sq_.resize(store.blocks_);
  for (size_t b = 0; b < store.blocks_; ++b) {
    store.scales_[b] /= static_cast<double>(simd::kInt8CodeMax);
    store.scales_sq_[b] = store.scales_[b] * store.scales_[b];
  }

  // Each row is encoded once into a padded scratch row, then split.
  AlignedArray<int8_t> codes(store.padded_);
  store.residuals_.resize(size);
  for (size_t i = 0; i < size; ++i) {
    std::fill_n(codes.data(), store.padded_, int8_t{0});
    store.residuals_[i] = EncodeRowAgainst(rows + i * stride, dim,
                                           store.scales_, codes.data());
    store.StoreRowCodes(i, codes.span());
  }
  store.max_residual_ =
      *std::max_element(store.residuals_.begin(), store.residuals_.end());
  return store;
}

QuantizedStore::EncodedQuery QuantizedStore::EncodeQuery(
    std::span<const double> target) const {
  assert(target.size() == dim_);
  EncodedQuery query;
  query.codes = AlignedArray<int8_t>(padded_);
  query.residual =
      EncodeRowAgainst(target.data(), dim_, scales_, query.codes.data());
  return query;
}

void QuantizedStore::LowerBounds2(const EncodedQuery& query, size_t begin,
                                  std::span<double> out) const {
  assert(begin + out.size() <= size_);
  std::array<uint32_t, kBatchRows> pass;
  for (size_t done = 0; done < out.size();) {
    const size_t rows = std::min(kBatchRows, out.size() - done);
    ScreenedBounds(query, begin + done, rows, kNoScreen, pass.data(),
                   &out[done]);
    done += rows;
  }
}

double QuantizedStore::LowerBound2(const EncodedQuery& query, size_t i) const {
  uint32_t pass;
  double bound;
  ScreenedBounds(query, i, 1, kNoScreen, &pass, &bound);
  return bound;
}

int32_t QuantizedStore::PrefixSkipThreshold(const EncodedQuery& query,
                                            double cutoff) const {
  if (blocks_ < 2) return kNoScreen;
  // ScreenedBounds' recombination cut after block 0, with r_max in place
  // of the row's residual.
  const auto truncated = [&](int32_t s0) {
    const double sum = scales_sq_[0] * static_cast<double>(s0);
    const double bound = std::sqrt(sum) * (1.0 - kBoundSafety) -
                         max_residual_ - query.residual;
    const double clamped = bound <= 0.0 ? 0.0 : bound;
    return clamped * clamped;
  };
  if (!(truncated(kMaxPrefixSum) >= cutoff)) return kNoScreen;
  // truncated() is nondecreasing in s0: bisect for the least s0 reaching
  // the cutoff, keeping truncated(hi) >= cutoff.
  int32_t lo = 0;
  int32_t hi = kMaxPrefixSum;
  while (lo < hi) {
    const int32_t mid = lo + (hi - lo) / 2;
    if (truncated(mid) >= cutoff) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

// Three passes over the call's rows: block-0 sums over the prefix plane
// with compaction of the rows below the threshold; their tail sums, read in
// place when every row passed and gathered otherwise; then the rest of the
// one recombination. Each row's d~^2 sums its blocks in ascending order
// (0.0 + s_0^2 S0 is s_0^2 S0 exactly), then sqrt, shave, clamp —
// deterministic in (store, query, row), independent of kernel level,
// batch, screen and shard split. The tail runs block-outer (accumulating in
// `bounds`) so the compiler can vectorize across rows, which leaves every
// row's own operation order unchanged.
size_t QuantizedStore::ScreenedBounds(const EncodedQuery& query, size_t begin,
                                      size_t rows, int32_t threshold,
                                      uint32_t* pass, double* bounds) const {
  assert(begin + rows <= size_);
  std::array<int32_t, kBatchRows> head;
  const double scale0_sq = scales_sq_[0];
  size_t passed = 0;
  for (size_t done = 0; done < rows; done += kBatchRows) {
    const size_t count = std::min(kBatchRows, rows - done);
    kernel_(prefix_.data() + (begin + done) * kBlockDim, query.codes.data(),
            kBlockDim, count, head.data());
    const size_t first = passed;
    if (threshold == kNoScreen) {  // every row passes: no compaction
      for (size_t r = 0; r < count; ++r) {
        pass[passed + r] = static_cast<uint32_t>(done + r);
        bounds[passed + r] = scale0_sq * static_cast<double>(head[r]);
      }
      passed += count;
      continue;
    }
    for (size_t r = 0; r < count; ++r) {
      pass[passed] = static_cast<uint32_t>(done + r);
      bounds[passed] = scale0_sq * static_cast<double>(head[r]);
      passed += head[r] < threshold ? 1 : 0;
    }
    if (passed - first < count) {
      for (size_t j = first; j < passed; ++j) {
        const int8_t* t = tail_.data() + (begin + pass[j]) * tail_dim();
        __builtin_prefetch(t);
        __builtin_prefetch(t + tail_dim() - 1);
        __builtin_prefetch(residuals_.data() + begin + pass[j]);
      }
    }
  }

  const size_t tail = tail_dim();
  const size_t tail_blocks = blocks_ - 1;
  if (tail_blocks > 0) {
    const size_t per_call =
        std::min(kTailSums / tail_blocks, kTailCodes / tail);
    std::array<int32_t, kTailSums> sums;
    std::array<int8_t, kTailCodes> gathered;
    const int8_t* tail_query = query.codes.data() + kBlockDim;
    for (size_t done = 0; done < passed;) {
      const size_t count = std::min(per_call, passed - done);
      const int8_t* codes = tail_.data() + (begin + done) * tail;
      if (passed < rows) {
        for (size_t j = 0; j < count; ++j) {
          const int8_t* src = tail_.data() + (begin + pass[done + j]) * tail;
          int8_t* dst = gathered.data() + j * tail;
          for (size_t u = 0; u < tail; u += kBlockDim) {
            std::memcpy(dst + u, src + u, kBlockDim);
          }
        }
        codes = gathered.data();
      }
      kernel_(codes, tail_query, tail, count, sums.data());
      for (size_t b = 0; b < tail_blocks; ++b) {
        const double scale_sq = scales_sq_[b + 1];
        for (size_t j = 0; j < count; ++j) {
          bounds[done + j] +=
              scale_sq * static_cast<double>(sums[j * tail_blocks + b]);
        }
      }
      done += count;
    }
  }
  // The rest of the recombination. When every row passed, the residuals
  // are contiguous and the loop vectorizes.
  const auto finish = [&](auto residual_of) {
    for (size_t r = 0; r < passed; ++r) {
      const double bound = std::sqrt(bounds[r]) * (1.0 - kBoundSafety) -
                           residual_of(r) - query.residual;
      // The clamp as a select, so the loop vectorizes.
      const double clamped = bound <= 0.0 ? 0.0 : bound;
      bounds[r] = clamped * clamped;
    }
  };
  const double* residuals = residuals_.data() + begin;
  if (passed == rows) {
    finish([residuals](size_t r) { return residuals[r]; });
  } else {
    finish([residuals, pass](size_t r) { return residuals[pass[r]]; });
  }
  return passed;
}

}  // namespace fuzzydb
