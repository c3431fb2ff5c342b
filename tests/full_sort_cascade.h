// Test oracle: the cascade walk with every candidate bound fully sorted
// before the first visit — the ordering CascadeShard used before windowed
// selection. Windowed selection must change no CascadeStats field, because
// the walk visits the same candidates in the same order; this recomputes
// the fields that walk determines so the store tests can assert it. A walk
// that outruns its first window also rescans the shard, which only the
// scan counters show (ExpectStreamingStats).

#ifndef FUZZYDB_TESTS_FULL_SORT_CASCADE_H_
#define FUZZYDB_TESTS_FULL_SORT_CASCADE_H_

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/incremental_order.h"
#include "common/random.h"
#include "common/squared_distance.h"
#include "common/thread_pool.h"
#include "image/knn_kernel.h"
#include "image/quantized_store.h"

namespace fuzzydb {
namespace testing_oracle {

// One shard over rows [range.begin, range.end); `row(i)` returns global row
// i's doubles. `qs` non-null runs the int8 level -1, as the kernel does.
template <typename RowFn>
void FullSortShard(const RowFn& row, std::span<const double> t, size_t k,
                   const CascadeOptions& options, const QuantizedStore* qs,
                   ShardRange range, CascadeStats* stats) {
  const size_t n = range.size();
  const size_t dim = t.size();
  if (n == 0) return;
  k = std::min(k, n);
  const size_t s0 = std::clamp<size_t>(options.prefix_dim, 1, dim);
  const size_t step = std::max<size_t>(options.step, 1);
  QuantizedStore::EncodedQuery qquery;
  if (qs != nullptr) qquery = qs->EncodeQuery(t);

  std::vector<double> bound(n);
  for (size_t i = 0; i < n; ++i) {
    if (qs != nullptr) {
      bound[i] = qs->LowerBound2(qquery, range.begin + i);
    } else {
      SquaredDistanceAccumulator acc;
      acc.Accumulate(row(range.begin + i), t.data(), 0, s0);
      bound[i] = acc.Total();
    }
  }
  if (qs != nullptr) {
    stats->quantized_bound_computations += n;
    stats->bytes_scanned_quantized += n * qs->row_bytes();
  } else {
    stats->bound_computations += n;
    stats->bytes_scanned_prefix += n * s0 * sizeof(double);
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&bound](size_t a, size_t b) {
    if (bound[a] != bound[b]) return bound[a] < bound[b];
    return a < b;
  });

  std::vector<std::pair<double, size_t>> best;
  auto worst = [&best] { return *std::max_element(best.begin(), best.end()); };
  for (size_t local : order) {
    if (best.size() == k && bound[local] > worst().first) break;
    const size_t idx = range.begin + local;
    const double* x = row(idx);
    SquaredDistanceAccumulator acc;
    acc.Accumulate(x, t.data(), 0, s0);
    bool pruned = false;
    if (qs != nullptr) {
      ++stats->bound_computations;
      stats->bytes_scanned_prefix += s0 * sizeof(double);
      pruned = s0 < dim && best.size() == k && acc.Total() > worst().first;
    }
    size_t j = s0;
    while (j < dim && !pruned) {
      const size_t stop = std::min(dim, j + step);
      acc.Accumulate(x, t.data(), j, stop);
      j = stop;
      pruned = j < dim && best.size() == k && acc.Total() > worst().first;
    }
    ++stats->candidates_refined;
    stats->dims_accumulated += j - s0;
    stats->bytes_scanned_refine += (j - s0) * sizeof(double);
    if (j == dim) ++stats->full_distance_computations;
    if (pruned) continue;
    const std::pair<double, size_t> cand(acc.Total(), idx);
    if (best.size() < k) {
      best.push_back(cand);
    } else if (cand < worst()) {
      *std::max_element(best.begin(), best.end()) = cand;
    }
  }
}

// The oracle's stats for a CascadeKnn split into `shards` row ranges.
template <typename RowFn>
CascadeStats FullSortStats(const RowFn& row, size_t n,
                           std::span<const double> t, size_t k,
                           const CascadeOptions& options,
                           const QuantizedStore* qs, size_t shards) {
  CascadeStats stats;
  for (const ShardRange& range : MakeShards(n, shards)) {
    FullSortShard(row, t, k, options, qs, range, &stats);
  }
  return stats;
}

// Every field the walk alone determines. The disk and buffer-pool fields
// also depend on the pool's state, so the oracle does not recompute them.
inline void ExpectWalkFieldsEqual(const CascadeStats& got,
                                  const CascadeStats& want) {
  EXPECT_EQ(got.quantized_bound_computations,
            want.quantized_bound_computations);
  EXPECT_EQ(got.bound_computations, want.bound_computations);
  EXPECT_EQ(got.candidates_refined, want.candidates_refined);
  EXPECT_EQ(got.full_distance_computations, want.full_distance_computations);
  EXPECT_EQ(got.dims_accumulated, want.dims_accumulated);
  // The int8 scan reads a row's tail codes and residual only when its
  // block-0 screen passes the row, and how many pass (quantized_full_bounds)
  // follows the window's cutoffs, not the walk: the exact byte formula,
  // QuantizedStore::ScanBytes, with the oracle's unscreened bytes per row.
  if (want.quantized_bound_computations == 0) {
    EXPECT_EQ(got.bytes_scanned_quantized, 0u);
  } else {
    const size_t row_bytes =
        want.bytes_scanned_quantized / want.quantized_bound_computations;
    EXPECT_EQ(got.bytes_scanned_quantized,
              got.quantized_bound_computations * QuantizedStore::kBlockDim +
                  got.quantized_full_bounds *
                      (row_bytes - QuantizedStore::kBlockDim));
  }
  EXPECT_EQ(got.bytes_scanned_prefix, want.bytes_scanned_prefix);
  EXPECT_EQ(got.bytes_scanned_refine, want.bytes_scanned_refine);
}

// The most rows the streaming selection rescans in one shard of n rows
// whose walk visits `visited` candidates. The walk reads one entry past its
// last visit to halt, so it needs windows covering min(n, visited + 1)
// entries; the first covers at least W (the first window) and the i-th
// refill at least 2^i W, and each refill rescans the shard.
inline size_t MaxRescanRows(size_t n, size_t visited) {
  const size_t need = std::min(n, visited + 1);
  size_t width = IncrementalOrder<std::pair<double, size_t>>::kFirstWindow;
  size_t covered = width;
  size_t rescanned = 0;
  while (covered < need) {
    width *= 2;
    covered += width;
    rescanned += n;
  }
  return rescanned;
}

// Checks a streaming CascadeKnn's stats against the fully sorted walk:
// every walk field equal, except that the scan counters (int8 or float,
// by mode) also count the rows_rescanned by refills, which stay within
// MaxRescanRows. Returns rows_rescanned.
template <typename RowFn>
size_t ExpectStreamingStats(const CascadeStats& got, const RowFn& row,
                            size_t n, std::span<const double> t, size_t k,
                            const CascadeOptions& options,
                            const QuantizedStore* qs, size_t shards) {
  CascadeStats want;
  size_t max_rescanned = 0;
  for (const ShardRange& range : MakeShards(n, shards)) {
    CascadeStats shard;
    FullSortShard(row, t, k, options, qs, range, &shard);
    max_rescanned += MaxRescanRows(range.size(), shard.candidates_refined);
    want.Absorb(shard);
  }
  EXPECT_LE(got.rows_rescanned, max_rescanned);
  if (qs != nullptr) {
    want.quantized_bound_computations += got.rows_rescanned;
    want.bytes_scanned_quantized += got.rows_rescanned * qs->row_bytes();
  } else {
    const size_t s0 = std::clamp<size_t>(options.prefix_dim, 1, t.size());
    want.bound_computations += got.rows_rescanned;
    want.bytes_scanned_prefix += got.rows_rescanned * s0 * sizeof(double);
  }
  ExpectWalkFieldsEqual(got, want);
  EXPECT_GE(got.bounds_ordered, got.candidates_refined);
  EXPECT_LE(got.bounds_ordered, n);
  return got.rows_rescanned;
}

// Row sets that stress the streaming selection: row i of `kind`, dim
// doubles. "random": a decaying spectrum; "identical": one row n times
// (every bound equal); "plateau": copies of 37 prototypes, so runs of
// equal bounds straddle every window cutoff; "prefix": "identical" with
// every dimension past the default 8-dim prefix zero, so for a target that
// is zero there too the float prefix bound equals the exact distance and
// a refill must keep bounds equal to the k-th distance.
inline std::vector<std::vector<double>> SelectionRows(const std::string& kind,
                                                      size_t n, size_t dim,
                                                      uint64_t seed) {
  Rng rng(seed);
  auto decaying = [&rng, dim] {
    std::vector<double> row(dim);
    double scale = 1.0;
    for (size_t j = 0; j < dim; ++j, scale *= 0.85) {
      row[j] = scale * rng.NextGaussian();
    }
    return row;
  };
  std::vector<std::vector<double>> prototypes;
  if (kind == "identical" || kind == "prefix") {
    prototypes.push_back(decaying());
  }
  if (kind == "prefix") {
    std::fill(prototypes[0].begin() + std::min<size_t>(dim, 8),
              prototypes[0].end(), 0.0);
  }
  if (kind == "plateau") {
    for (int p = 0; p < 37; ++p) prototypes.push_back(decaying());
  }
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(prototypes.empty()
                       ? decaying()
                       : prototypes[rng.NextBounded(prototypes.size())]);
  }
  return rows;
}

}  // namespace testing_oracle
}  // namespace fuzzydb

#endif  // FUZZYDB_TESTS_FULL_SORT_CASCADE_H_
