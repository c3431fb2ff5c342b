// The int8 scalar-quantized companion tier of EmbeddingStore (DESIGN §3g) —
// the cascade's level −1.
//
// The paper's filter theorem (§4, no-false-dismissals) only asks that the
// cheap distance be an admissible lower bound on the exact one; nothing
// says the bound must be a float eigen-prefix. This tier trades precision
// for memory bandwidth instead of trading dimensions: every embedding row
// is stored a second time as int8 codes (1 byte/dim instead of 8) with one
// stored correction term, and the level −1 scan reads the first block of
// codes of every row and the rest only of the rows it cannot dismiss.
//
// Quantization scheme. Dimensions are grouped into blocks of
// simd::kBlockDim; each block b gets one scale factor
//     s_b = max over all rows, dims j in block b of |x_j| / kInt8CodeMax,
// chosen from the data so stored values never clamp. Codes are
//     q_j = round(x_j / s_b) in [-kInt8CodeMax, kInt8CodeMax],
// and the dequantized row is x~_j = q_j * s_b. Per-block scales matter
// because the eigen spectrum decays: one global scale sized for the leading
// dimensions would round every trailing dimension to zero.
//
// Error bound (the admissibility proof). Write x~ and t~ for the
// dequantized row and target, and
//     r_x = |x - x~|_2   (stored per row, computed exactly at Build time)
//     r_t = |t - t~|_2   (computed exactly at query encode time).
// The reverse triangle inequality, applied twice in L2, gives
//     |x - t| >= |x~ - t~| - |x - x~| - |t - t~| = d~ - r_x - r_t,
// where d~^2 = sum_b s_b^2 * SSD_b and SSD_b is the int32 sum of squared
// code differences in block b — the quantity the simd kernels compute
// exactly. So  max(0, d~ - r_x - r_t)^2  is a provable lower bound on the
// exact squared distance for every pair, by construction: no sampling, no
// tuning, no dependence on the data distribution. (A deliberately clamped
// target only grows r_t, which only weakens the bound — never breaks it.)
// LowerBounds2() additionally shaves a 1e-9 relative safety margin off d~ so
// floating-point roundoff in the float recombination can never push the
// computed bound past the exactly-computed distance; the margin is ~10^5
// times roundoff and ~10^-9 of the bound itself, i.e. free.
//
// The kernels' int32 accumulations are exact integer arithmetic, so the
// scalar, AVX2, and AVX-512 VNNI paths are bit-identical and the dispatch
// choice (common/simd_dispatch.h) can never change answers.
//
// The level −1 scan is batched: one kernel call covers many consecutive
// rows (the query copied once, eight block sums reduced together), then
// each row is recombined in the one fixed order — ascending blocks, sqrt,
// safety shave, clamp. ScreenedBounds(), LowerBounds2() and LowerBound2()
// run the same recombination, and it is compiled with FMA contraction off
// (src/image/CMakeLists.txt) so native-arch builds produce the same bits
// as portable ones.
//
// Code layout: a prefix plane and a tail. The eigen spectrum decays, so
// block 0 carries most of every distance, and a top-k scan needs the full
// bound only for the rows it cannot dismiss (the paper's filter asks for
// no more than that). The codes are therefore split by block rather than
// stored row-major:
//     prefix plane  block 0 of every row, kBlockDim bytes per row, contiguous;
//     tail          blocks 1.. of every row, padded - kBlockDim bytes per
//                   row, row-major;
//     residuals     one double per row.
// The bytes are the same as a row-major layout's; the column-file format
// stays row-major, and its reader scatters rows into the planes.
//
// The prefix screen (ScreenedBounds, PrefixSkipThreshold). A screened scan
// reads only the prefix plane for every row and computes each row's block-0
// sum S0. The truncated recombination T(S0) — 0.0 + s_0^2 * S0, then the
// same sqrt, shave, subtractions, clamp and square, with the store's
// largest residual r_max in place of r_x — is a lower bound on the row's
// bound, in floating point, not just in exact arithmetic:
//   * the full sum adds s_b^2 * S_b >= 0 terms after the same first term,
//     and round-to-nearest addition of a non-negative term never shrinks a
//     sum;
//   * sqrt, the shave, the subtractions (r_x <= r_max), the clamp and the
//     square are each monotone under correctly rounded arithmetic.
// T is nondecreasing in S0, so PrefixSkipThreshold(query, cutoff) — the
// least S0 with T(S0) >= cutoff — screens exactly: every row with
// S0 >= threshold has LowerBound2 >= cutoff. The scan reads the tail and
// the residual only of the rows below the threshold. A single-block store
// (dim <= kBlockDim) has no tail to skip and never screens.

#ifndef FUZZYDB_IMAGE_QUANTIZED_STORE_H_
#define FUZZYDB_IMAGE_QUANTIZED_STORE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/simd_dispatch.h"

namespace fuzzydb {

/// The int8 companion buffer: codes, per-block scales, per-row residual
/// norms, and the dispatched kernel. Value-semantic; an empty store (default
/// constructed) means "tier not built" and is skipped by the cascade.
class QuantizedStore {
 public:
  /// Dimensions per scale block (= the kernel block size).
  static constexpr size_t kBlockDim = simd::kBlockDim;
  /// Hard cap on blocks per row, sizing the kernel's stack scratch.
  static constexpr size_t kMaxBlocks = simd::kMaxBlocks;

  QuantizedStore() = default;

  /// Quantizes `size` rows of `dim` doubles laid out with `stride` doubles
  /// between row starts (the EmbeddingStore layout). dim must be at most
  /// kMaxBlocks * kBlockDim.
  static QuantizedStore Build(const double* rows, size_t size, size_t dim,
                              size_t stride);

  /// Number of scale blocks for a given dim.
  static size_t NumBlocks(size_t dim) {
    return (dim + kBlockDim - 1) / kBlockDim;
  }
  /// Codes per row (dim rounded up to a whole block).
  static size_t PaddedDim(size_t dim) { return NumBlocks(dim) * kBlockDim; }

  /// Encodes one row of `dim` doubles against per-block `scales` into
  /// `codes` (PaddedDim entries; pad must already be zero) and returns the
  /// exact residual norm |x - x~|_2. This is the one encoding routine —
  /// Build(), EncodeQuery(), and the streaming column-file writer all call
  /// it, which is what makes a persisted tier byte-identical to a rebuilt
  /// one.
  static double EncodeRowAgainst(const double* row, size_t dim,
                                 std::span<const double> scales, int8_t* codes);

  /// Assembles a store from externally produced parts (the column-file
  /// reader): per-block scales (already divided by kInt8CodeMax) and
  /// per-row exact residual norms, with every code zero; the reader then
  /// fills the codes with StoreRowCodes. The kernel is re-resolved on this
  /// host — safe, because every kernel level computes the same exact
  /// integer sums. Sizes must agree (scales = NumBlocks(dim), residuals =
  /// size).
  static QuantizedStore FromParts(size_t size, size_t dim,
                                  std::vector<double> scales,
                                  std::vector<double> residuals);

  /// Copies the row-major padded codes of rows [first, first + rows) —
  /// codes.size() = rows * padded_dim() — into the store's split layout.
  /// Lets a reader stream the codes in bounded chunks; not thread-safe
  /// against concurrent scans.
  void StoreRowCodes(size_t first, std::span<const int8_t> codes);

  /// Per-block scales (NumBlocks entries) — persistence accessor.
  std::span<const double> scales() const { return scales_; }
  /// Per-row residual norms — persistence accessor.
  std::span<const double> residuals() const { return residuals_; }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  /// dim rounded up to a whole number of blocks; the row stride in bytes.
  size_t padded_dim() const { return padded_; }
  size_t blocks() const { return blocks_; }
  /// Bytes the tier stores per row: the padded codes plus the residual
  /// norm. An unscreened scan reads all of them.
  size_t row_bytes() const { return padded_ + sizeof(double); }
  /// Bytes a screened scan reads for `rows` rows of which `full` passed the
  /// screen: every row's prefix-plane codes, plus the tail codes and the
  /// residual of each passing row.
  size_t ScanBytes(size_t rows, size_t full) const {
    return rows * kBlockDim + full * (row_bytes() - kBlockDim);
  }
  double scale(size_t block) const { return scales_[block]; }
  /// Kernel level resolved at Build time (simd::Active() then).
  simd::Level kernel_level() const { return kernel_level_; }

  /// Row i's padded codes, reassembled from the split layout into
  /// `out` (padded_dim() entries).
  void CopyRowCodes(size_t i, std::span<int8_t> out) const;
  /// |x_i - x~_i|_2 — row i's exact quantization residual norm.
  double row_residual(size_t i) const { return residuals_[i]; }

  /// A query target quantized against the store's scales, with its exact
  /// residual norm. Encode once per query; read-only afterwards, so one
  /// encoding is safely shared across shards.
  struct EncodedQuery {
    AlignedArray<int8_t> codes;  // padded_dim() entries
    double residual = 0.0;       // |t - t~|_2, exact
  };
  EncodedQuery EncodeQuery(std::span<const double> target) const;

  /// The level −1 scan over rows [begin, begin + out.size()): out[r] is the
  /// admissible lower bound on the exact *squared* distance between row
  /// begin + r and the encoded target,
  ///     max(0, d~ * (1 - 1e-9) - r_x - r_t)^2.
  /// Batched kernel calls over many rows; each row's value depends only on
  /// (store, query, row), never on the batch it was computed in.
  void LowerBounds2(const EncodedQuery& query, size_t begin,
                    std::span<double> out) const;

  /// LowerBounds2's one-row case: row i's bound.
  double LowerBound2(const EncodedQuery& query, size_t i) const;

  /// A threshold that screens no row: every block-0 sum is below it.
  static constexpr int32_t kNoScreen = std::numeric_limits<int32_t>::max();

  /// The least block-0 sum S0 at which the truncated recombination (see
  /// the file comment) reaches `cutoff`: every row with S0 >= the result
  /// has LowerBound2 >= cutoff. kNoScreen when no S0 reaches it (a NaN or
  /// infinite cutoff among them) or when the store has a single block, so
  /// that a screen would read no fewer bytes.
  int32_t PrefixSkipThreshold(const EncodedQuery& query, double cutoff) const;

  /// The screened level −1 scan over rows [begin, begin + rows): reads
  /// every row's block-0 codes and, for the rows whose block-0 sum is below
  /// `threshold`, their tail codes and residuals. Writes those rows'
  /// offsets from `begin`, ascending, to pass[] and their bounds —
  /// LowerBound2's bits — to bounds[], and returns how many there are.
  /// pass and bounds need room for `rows` entries.
  size_t ScreenedBounds(const EncodedQuery& query, size_t begin, size_t rows,
                        int32_t threshold, uint32_t* pass,
                        double* bounds) const;

 private:
  // Codes per row in the tail: padded_ - kBlockDim.
  size_t tail_dim() const { return padded_ - kBlockDim; }

  // Sizes the planes and resolves the kernel for `size` rows of `dim`.
  void Allocate(size_t size, size_t dim);

  size_t size_ = 0;
  size_t dim_ = 0;
  size_t padded_ = 0;
  size_t blocks_ = 0;
  simd::Level kernel_level_ = simd::Level::kScalar;
  simd::BlockSsdRowsFn kernel_ = nullptr;
  std::vector<double> scales_;     // per block
  std::vector<double> scales_sq_;  // s_b^2, the recombination coefficients
  std::vector<double> residuals_;  // per row
  double max_residual_ = 0.0;      // r_max, the screen's residual
  AlignedArray<int8_t> prefix_;    // size_ * kBlockDim: block 0 of each row
  AlignedArray<int8_t> tail_;      // size_ * tail_dim(), row-major
};

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_QUANTIZED_STORE_H_
