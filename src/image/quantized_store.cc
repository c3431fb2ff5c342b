#include "image/quantized_store.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace fuzzydb {

namespace {

// Relative margin shaved off d~ before subtracting the residuals, so the
// float recombination's roundoff (~1e-16 relative) can never push the
// computed bound past the exactly-computed squared distance. See the
// header's derivation: when the clamped bound is positive, d~ > r_x + r_t,
// so a 1e-9 relative shave dominates every accumulated rounding term.
constexpr double kBoundSafety = 1e-9;

// Rows per LowerBounds2 kernel call, and the int32 block sums it keeps for
// them (16 KB of stack: still 64 rows per call at kMaxBlocks blocks).
constexpr size_t kBatchRows = 256;
constexpr size_t kBatchSums = 4096;

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

QuantizedStore QuantizedStore::FromParts(size_t size, size_t dim,
                                         std::vector<double> scales,
                                         std::vector<double> residuals,
                                         AlignedArray<int8_t> codes) {
  QuantizedStore store;
  if (size == 0 || dim == 0) return store;
  assert(dim <= kMaxBlocks * kBlockDim);
  store.size_ = size;
  store.dim_ = dim;
  store.blocks_ = NumBlocks(dim);
  store.padded_ = store.blocks_ * kBlockDim;
  assert(scales.size() == store.blocks_ && residuals.size() == size &&
         codes.size() == size * store.padded_);
  store.kernel_level_ = simd::Active();
  store.kernel_ = simd::ResolveBlockSsdRows(store.kernel_level_);
  store.scales_ = std::move(scales);
  store.scales_sq_.resize(store.blocks_);
  for (size_t b = 0; b < store.blocks_; ++b) {
    store.scales_sq_[b] = store.scales_[b] * store.scales_[b];
  }
  store.residuals_ = std::move(residuals);
  store.codes_ = std::move(codes);
  return store;
}

QuantizedStore QuantizedStore::Build(const double* rows, size_t size,
                                     size_t dim, size_t stride) {
  QuantizedStore store;
  if (size == 0 || dim == 0) return store;
  assert(dim <= kMaxBlocks * kBlockDim && stride >= dim);
  store.size_ = size;
  store.dim_ = dim;
  store.blocks_ = (dim + kBlockDim - 1) / kBlockDim;
  store.padded_ = store.blocks_ * kBlockDim;
  store.kernel_level_ = simd::Active();
  store.kernel_ = simd::ResolveBlockSsdRows(store.kernel_level_);

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

  store.codes_ = AlignedArray<int8_t>(size * store.padded_);
  store.residuals_.resize(size);
  for (size_t i = 0; i < size; ++i) {
    store.residuals_[i] =
        EncodeRowAgainst(rows + i * stride, dim, store.scales_,
                  store.codes_.data() + i * store.padded_);
  }
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
  std::array<int32_t, kBatchSums> sums;
  const size_t rows_per_call = std::min(kBatchRows, kBatchSums / blocks_);
  for (size_t done = 0; done < out.size();) {
    const size_t rows = std::min(rows_per_call, out.size() - done);
    kernel_(codes_.data() + (begin + done) * padded_, query.codes.data(),
            padded_, rows, sums.data());
    BoundsFromSums(query, begin + done, rows, sums.data(), &out[done]);
    done += rows;
  }
}

double QuantizedStore::LowerBound2(const EncodedQuery& query, size_t i) const {
  std::array<int32_t, kMaxBlocks> sums;
  kernel_(codes_.data() + i * padded_, query.codes.data(), padded_, 1,
          sums.data());
  double bound;
  BoundsFromSums(query, i, 1, sums.data(), &bound);
  return bound;
}

// The one recombination: each row's d~^2 sums its blocks in ascending
// order, then sqrt, shave, clamp — deterministic in (store, query, row),
// independent of kernel level, batch and shard split. The loops run
// block-outer (accumulating in `out`) so the compiler can vectorize across
// rows, which leaves every row's own operation order unchanged.
void QuantizedStore::BoundsFromSums(const EncodedQuery& query, size_t first,
                                    size_t rows, const int32_t* sums,
                                    double* out) const {
  std::fill_n(out, rows, 0.0);
  for (size_t b = 0; b < blocks_; ++b) {
    const double scale_sq = scales_sq_[b];
    for (size_t r = 0; r < rows; ++r) {
      out[r] += scale_sq * static_cast<double>(sums[r * blocks_ + b]);
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    const double bound = std::sqrt(out[r]) * (1.0 - kBoundSafety) -
                         residuals_[first + r] - query.residual;
    // The clamp as a select, so the loop vectorizes.
    const double clamped = bound <= 0.0 ? 0.0 : bound;
    out[r] = clamped * clamped;
  }
}

}  // namespace fuzzydb
