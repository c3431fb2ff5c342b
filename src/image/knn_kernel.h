// The shared kNN / cascade kernels, templated over row access (DESIGN §3k).
//
// EmbeddingStore (RAM-resident rows) and storage::PagedEmbeddingStore
// (disk-resident rows behind a buffer pool) must return *bit-identical*
// answers: the paged store is a memory-hierarchy change, never a semantic
// one. The only robust way to guarantee that is for both stores to execute
// literally the same arithmetic in literally the same order — so the exact
// top-k selection and the multi-level cascade live here as templates over a
// RowAccessor, and each store supplies only the row-fetching policy:
//
//   struct RowAccessor {
//     // Pointer to row i's doubles (valid until the next Acquire on this
//     // accessor), or nullptr when the row cannot be read (I/O failure) —
//     // the kernel then abandons the shard and the caller surfaces the
//     // accessor's Status. A RAM-resident store never fails.
//     const double* Acquire(size_t i);
//   };
//
// Everything numeric — the split-invariant SquaredDistanceAccumulator, the
// (d^2, index) lexicographic selection, the strict-> early-termination rule,
// the quantized level −1 ordering — is shared, so a divergence between the
// two stores can only come from the bytes of the rows themselves, which the
// column-file format preserves exactly (doubles are written verbatim).
//
// The cascade's level scan and candidate selection are one streaming pass
// per shard: screened batched int8 bounds (QuantizedStore::ScreenedBounds,
// one small on-stack block at a time) or float prefixes feed a
// CandidateWindow that keeps only the next W to 2W (bound, index) pairs in
// walk order, so per-shard scratch is O(W), independent of the shard's
// size.
//
// One accessor instance is used per shard, by one thread; accessors
// themselves need no synchronization (the buffer pool underneath the paged
// accessor is thread-safe).

#ifndef FUZZYDB_IMAGE_KNN_KERNEL_H_
#define FUZZYDB_IMAGE_KNN_KERNEL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/contract.h"
#include "common/incremental_order.h"
#include "common/squared_distance.h"
#include "common/thread_pool.h"
#include "image/quantized_store.h"

namespace fuzzydb {

/// Counters from a cascaded search (shared by both store backends).
struct CascadeStats {
  /// Rows scanned by the int8 level −1 (0 when the tier is off or absent).
  size_t quantized_bound_computations = 0;
  /// Of those, the rows whose all-block int8 bound was computed: the rows
  /// the block-0 prefix screen could not dismiss (DESIGN §3g). Every row
  /// until a shard's window first cuts, and every row of a single-block
  /// (dim <= 16) store.
  size_t quantized_full_bounds = 0;
  /// Float prefix-bound evaluations: one per stored object when the
  /// quantized tier is off, one per surviving candidate when it is on.
  /// With the tier off, refinement re-reads each visited candidate's s0-dim
  /// prefix rather than keeping the scan's sums (O(window) scratch, not
  /// O(n)); that re-read is not counted here nor in bytes_scanned_prefix.
  size_t bound_computations = 0;
  /// Candidates refined past the level-0 prefix bound.
  size_t candidates_refined = 0;
  /// Refinements carried to the full embedding dimension — the analogue of
  /// FilteredSearchStats::full_distance_computations.
  size_t full_distance_computations = 0;
  /// Total embedding dimensions accumulated past level 0, across all
  /// candidates (the cascade's actual refinement work).
  size_t dims_accumulated = 0;
  /// Bytes actually read from the store's buffers, per level: the int8
  /// level −1 scan (QuantizedStore::ScanBytes: block-0 codes of every row,
  /// tail codes and residual of each row the screen passed), the float
  /// prefix bounds, and the
  /// incremental refinements. The bandwidth story of the quantized tier is
  /// measured here, not asserted.
  size_t bytes_scanned_quantized = 0;
  size_t bytes_scanned_prefix = 0;
  size_t bytes_scanned_refine = 0;
  /// Bytes the buffer pool read from disk during this search (0 for the
  /// RAM-resident store). With the quantized tier on, the level −1 scan is
  /// RAM-resident by design, so warm queries charge disk bytes only for
  /// survivor pages pulled into the pool for exact re-rank.
  size_t bytes_read_disk = 0;
  /// Buffer-pool traffic during this search (all 0 for the RAM store).
  size_t buffer_pool_hits = 0;
  size_t buffer_pool_misses = 0;
  size_t buffer_pool_evictions = 0;
  /// Candidate bounds the walk's streaming selection put in final order
  /// (DESIGN §3k): at most n, and CandidateWindow::kFirstOrdered per shard
  /// when the walk halts within them, as at small k.
  size_t bounds_ordered = 0;
  /// Rows a walk that outran its window re-read to refill it (DESIGN §3k),
  /// already included in quantized_bound_computations (int8 mode) or
  /// bound_computations (float mode) and the matching byte counters. 0
  /// whenever the walk halts within its first window, as at small k.
  size_t rows_rescanned = 0;
  /// Where the time went, summed over shards (so a sharded search's sum can
  /// exceed its latency): the level scan with its streaming selection, the
  /// sort of each window's survivors, and the candidate walk's refinement.
  /// Wall-clock readings, not walk-determined: no test compares them.
  double scan_ms = 0.0;
  double select_ms = 0.0;
  double refine_ms = 0.0;

  /// Adds another shard's (or level's) counters into this one.
  void Absorb(const CascadeStats& other) {
    quantized_bound_computations += other.quantized_bound_computations;
    quantized_full_bounds += other.quantized_full_bounds;
    bound_computations += other.bound_computations;
    candidates_refined += other.candidates_refined;
    full_distance_computations += other.full_distance_computations;
    dims_accumulated += other.dims_accumulated;
    bytes_scanned_quantized += other.bytes_scanned_quantized;
    bytes_scanned_prefix += other.bytes_scanned_prefix;
    bytes_scanned_refine += other.bytes_scanned_refine;
    bytes_read_disk += other.bytes_read_disk;
    buffer_pool_hits += other.buffer_pool_hits;
    buffer_pool_misses += other.buffer_pool_misses;
    buffer_pool_evictions += other.buffer_pool_evictions;
    bounds_ordered += other.bounds_ordered;
    rows_rescanned += other.rows_rescanned;
    scan_ms += other.scan_ms;
    select_ms += other.select_ms;
    refine_ms += other.refine_ms;
  }
};

/// Tuning knobs for CascadeKnn().
struct CascadeOptions {
  /// Level-0 bound length s: the prefix scanned for every object (clamped
  /// to the embedding dimension). Deeper prefixes cost more per object but
  /// admit fewer candidates into refinement.
  size_t prefix_dim = 8;
  /// Dimensions added per refinement level before re-checking the current
  /// k-th best (the cascade's level granularity).
  size_t step = 16;
  /// Run the int8 level −1 when the store has its quantized companion
  /// (DESIGN §3g): the full-object scan reads 1-byte codes instead of the
  /// 8-byte float prefix, and the float prefix bound is computed only for
  /// candidates the quantized bound cannot dismiss. Never changes answers
  /// (the bound is admissible by construction), only costs; ignored when
  /// the companion was not built.
  bool use_quantized = true;
};

namespace knn_internal {

// Sorts pairs lexicographically and keeps the k smallest — the shared merge
// step of the sharded top-k paths. Selection runs on squared distances: the
// final sqrt can round two distinct d^2 to the same double, so comparing
// (d^2, index) keeps every path's tie-break identical.
inline void KeepKSmallest(std::vector<std::pair<double, size_t>>* pairs,
                          size_t k) {
  k = std::min(k, pairs->size());
  std::partial_sort(pairs->begin(), pairs->begin() + static_cast<long>(k),
                    pairs->end());
  pairs->resize(k);
}

inline std::vector<std::pair<size_t, double>> ToOutput(
    std::vector<std::pair<double, size_t>> best) {
  std::sort(best.begin(), best.end());
  std::vector<std::pair<size_t, double>> out;
  out.reserve(best.size());
  for (const auto& [d2, idx] : best) {
    out.emplace_back(idx, std::sqrt(d2));
  }
  return out;
}

// Runs fn(shard_index) for every shard, on the pool when given.
inline void RunShards(ThreadPool* pool, size_t shards,
                      const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(shards, fn);
  } else {
    for (size_t s = 0; s < shards; ++s) fn(s);
  }
}

inline size_t ResolveShards(size_t shards, ThreadPool* pool, size_t n) {
  if (shards == 0) shards = pool != nullptr ? pool->executors() : 1;
  return std::max<size_t>(1, std::min(shards, std::max<size_t>(n, 1)));
}

// The exact top-k kernel restricted to rows [range.begin, range.end):
// appends up to k local-best (d^2, index) pairs to `best` (unsorted).
// Returns false iff the accessor failed mid-shard (partial `best` must be
// discarded by the caller).
template <typename RowAccessor>
bool ExactKnnShard(RowAccessor& rows, const double* FUZZYDB_RESTRICT target,
                   size_t dim, size_t k, ShardRange range,
                   std::vector<std::pair<double, size_t>>* best) {
  best->reserve(range.size());
  for (size_t i = range.begin; i < range.end; ++i) {
    const double* FUZZYDB_RESTRICT row = rows.Acquire(i);
    if (row == nullptr) return false;
    best->emplace_back(SquaredDistance(row, target, dim), i);
  }
  KeepKSmallest(best, std::min(k, range.size()));
  return true;
}

// Rows whose level bounds the int8 scan computes per ScreenedBounds call:
// one on-stack block, large enough that the few rows a screen passes share
// one tail kernel call.
inline constexpr size_t kBoundBlockRows = 2048;

// Bounded streaming selection of the walk's candidates (DESIGN §3k). The
// level scan offers every (bound, local index) pair in ascending index
// order; this keeps the pairs strictly above `floor` with bound at most
// `ceiling`, in a buffer of 2 * width. When the buffer fills, nth_element
// cuts it to the `width` smallest and lowers an exclusive cutoff, so a
// later pair at or above the cutoff is skipped with one compare: offers
// come in ascending index order, so (bound, index) >= (cutoff bound, its
// index) reduces to bound >= cutoff bound. The buffer therefore always
// holds exactly the admitted pairs below the cutoff — a prefix of the full
// (bound, index) sort past `floor` — so walking it in order, and then the
// next window's, visits the full sort's prefix entry for entry.
class CandidateWindow {
 public:
  using Candidate = std::pair<double, size_t>;

  /// Survivors the first OrderMore() sorts: a top-k walk at small k visits
  /// a few dozen candidates per shard, so sorting the whole window (up to
  /// 2W pairs) up front would mostly order pairs it never reads.
  static constexpr size_t kFirstOrdered = 128;

  /// Starts a scan. `floor` null admits pairs from the first; an infinite
  /// `ceiling` admits every bound.
  void Start(size_t width, const Candidate* floor, double ceiling) {
    width_ = width;
    has_floor_ = floor != nullptr;
    if (has_floor_) floor_ = *floor;
    // Until the first cut, skipping bound >= cutoff_ means skipping bound
    // > ceiling; NaN compares false and skips nothing.
    cutoff_ = std::isinf(ceiling)
                  ? std::numeric_limits<double>::quiet_NaN()
                  : std::nextafter(ceiling,
                                   std::numeric_limits<double>::infinity());
    cut_ = false;
    ordered_ = 0;
    chunk_ = kFirstOrdered;
    items_.clear();
    items_.reserve(2 * width);
  }

  void Offer(double bound, size_t index) {
    if (bound >= cutoff_) return;
    if (has_floor_ && !(floor_ < Candidate(bound, index))) return;
    items_.emplace_back(bound, index);
    if (items_.size() == 2 * width_) Cut();
  }

  /// Puts the next survivors in final order — kFirstOrdered of them, then
  /// twice as many per call, each an nth_element over the unordered rest
  /// plus a sort of the chunk — and returns how many; 0 once all are.
  size_t OrderMore() {
    const size_t end = std::min(items_.size(), ordered_ + chunk_);
    const auto first = items_.begin() + Offset(ordered_);
    const auto last = items_.begin() + Offset(end);
    if (last != items_.end()) std::nth_element(first, last, items_.end());
    std::sort(first, last);
    const size_t added = end - ordered_;
    ordered_ = end;
    chunk_ *= 2;
    return added;
  }

  /// The exclusive bound cutoff: Offer skips every bound at or above it.
  /// NaN (skip nothing) until the first cut of a scan with no ceiling; it
  /// only falls within a scan.
  double cutoff() const { return cutoff_; }

  /// True when nothing was cut: the survivors are every admitted pair, so
  /// no later window is needed.
  bool complete() const { return !cut_; }
  size_t ordered() const { return ordered_; }
  const Candidate& operator[](size_t pos) const { return items_[pos]; }

 private:
  static std::ptrdiff_t Offset(size_t pos) {
    return static_cast<std::ptrdiff_t>(pos);
  }

  void Cut() {
    const auto mid = items_.begin() + Offset(width_);
    std::nth_element(items_.begin(), mid, items_.end());
    cutoff_ = mid->first;
    cut_ = true;
    items_.resize(width_);
  }

  size_t width_ = 0;
  bool has_floor_ = false;
  Candidate floor_;
  double cutoff_ = 0.0;
  bool cut_ = false;
  size_t ordered_ = 0;
  size_t chunk_ = kFirstOrdered;
  std::vector<Candidate> items_;
};

// The cascade restricted to rows [range.begin, range.end): appends up to
// k local best (d^2, index) pairs to `best` (unsorted) and adds this
// shard's counters to `stats`. `qquery` non-null runs the int8 level −1
// (over `qs`, indexed by *global* row number) in place of the all-rows
// float prefix scan. Returns false iff the accessor failed mid-shard.
//
// The level scan and candidate selection are one streaming pass with O(W)
// scratch, W = IncrementalOrder's first window: a CandidateWindow keeps the
// best W to 2W (bound, index) pairs and the walk visits them in order. In
// the rare case it uses them all without halting, the shard is rescanned
// for the pairs after the last one visited, with W doubled and, once k
// candidates are held, only bounds the walk could still visit (at most the
// current k-th d^2). Rescanned rows are real reads and count in the scan
// counters and in rows_rescanned.
template <typename RowAccessor>
bool CascadeShard(RowAccessor& rows, const double* FUZZYDB_RESTRICT t,
                  size_t dim, size_t k, const CascadeOptions& options,
                  const QuantizedStore* qs,
                  const QuantizedStore::EncodedQuery* qquery, ShardRange range,
                  std::vector<std::pair<double, size_t>>* best,
                  CascadeStats* stats) {
  const size_t n = range.size();
  if (n == 0) return true;
  k = std::min(k, n);
  const size_t s0 = std::clamp<size_t>(options.prefix_dim, 1, dim);
  const size_t step = std::max<size_t>(options.step, 1);

  // The cheap full-collection bound that orders the candidate walk: either
  // the int8 level −1 (quantized codes, ~1 byte/dim) or the float s0-dim
  // prefix (8 bytes/dim over s0 of dim dims). Both are admissible lower
  // bounds on d^2, so either ordering admits early termination with no
  // false dismissals.
  CandidateWindow window;
  auto scan = [&]() -> bool {
    if (qquery != nullptr) {
      // The block-0 prefix screen (DESIGN §3g) skips rows whose bound is
      // provably at or above the window's cutoff, which Offer would skip
      // anyway; the threshold follows the cutoff as it falls (a stale one
      // only screens less).
      uint32_t pass[kBoundBlockRows];
      double bounds[kBoundBlockRows];
      double cutoff = window.cutoff();
      int32_t threshold = qs->PrefixSkipThreshold(*qquery, cutoff);
      size_t full = 0;
      for (size_t i = 0; i < n; i += kBoundBlockRows) {
        const size_t m = std::min(kBoundBlockRows, n - i);
        const size_t passed = qs->ScreenedBounds(*qquery, range.begin + i, m,
                                                 threshold, pass, bounds);
        for (size_t j = 0; j < passed; ++j) {
          window.Offer(bounds[j], i + pass[j]);
        }
        full += passed;
        if (window.cutoff() != cutoff) {  // NaN != NaN: recompute, cheaply
          cutoff = window.cutoff();
          threshold = qs->PrefixSkipThreshold(*qquery, cutoff);
        }
      }
      stats->quantized_bound_computations += n;
      stats->quantized_full_bounds += full;
      stats->bytes_scanned_quantized += qs->ScanBytes(n, full);
    } else {
      for (size_t i = 0; i < n; ++i) {
        const double* FUZZYDB_RESTRICT row = rows.Acquire(range.begin + i);
        if (row == nullptr) return false;
        SquaredDistanceAccumulator prefix;
        prefix.Accumulate(row, t, 0, s0);
        window.Offer(prefix.Total(), i);
      }
      stats->bound_computations += n;
      stats->bytes_scanned_prefix += n * s0 * sizeof(double);
    }
    return true;
  };

  // Current k best as (d^2, global index); "worst" is the lexicographic
  // maximum, matching ExactKnn's tie-break (distance ascending, then index).
  best->reserve(k);
  size_t worst_pos = 0;
  auto recompute_worst = [best, &worst_pos]() {
    worst_pos = 0;
    for (size_t p = 1; p < best->size(); ++p) {
      if ((*best)[p] > (*best)[worst_pos]) worst_pos = p;
    }
  };

  // Charges the time since the previous lap to one phase counter.
  using Clock = std::chrono::steady_clock;
  Clock::time_point mark = Clock::now();
  auto lap = [&mark](double* phase_ms) {
    const Clock::time_point now = Clock::now();
    *phase_ms += std::chrono::duration<double, std::milli>(now - mark).count();
    mark = now;
  };

  // Visit candidates in ascending (bound, index) order, one window at a
  // time; (bound, index) is a strict total order, so the visits are
  // exactly the full sort's.
  size_t width = IncrementalOrder<CandidateWindow::Candidate>::kFirstWindow;
  window.Start(width, nullptr, std::numeric_limits<double>::infinity());
  if (!scan()) return false;
  lap(&stats->scan_ms);
  for (size_t pos = 0;; ++pos) {
    if (pos == window.ordered()) {
      lap(&stats->refine_ms);
      if (const size_t added = window.OrderMore(); added > 0) {
        stats->bounds_ordered += added;
      } else {
        if (window.complete()) break;
        // The walk used the whole window without halting: refill with the
        // pairs after the last one visited, in a window twice as wide.
        // Once k are held, a bound above the k-th d^2 can never be
        // visited (that d^2 only falls), so it need not be kept.
        const CandidateWindow::Candidate last = window[pos - 1];
        const double ceiling = best->size() == k
                                   ? (*best)[worst_pos].first
                                   : std::numeric_limits<double>::infinity();
        width *= 2;
        window.Start(width, &last, ceiling);
        if (!scan()) return false;
        stats->rows_rescanned += n;
        lap(&stats->scan_ms);
        stats->bounds_ordered += window.OrderMore();
        pos = 0;
        if (window.ordered() == 0) break;
      }
      lap(&stats->select_ms);
    }
    const auto [b, local_idx] = window[pos];
    // Strict >: a candidate whose bound ties the worst d^2 could still win
    // its tie on index, so only a strictly larger bound ends the scan.
    if (best->size() == k && b > (*best)[worst_pos].first) break;

    // Refine dimension-incrementally from the prefix, early-exiting as soon
    // as the partial sum (a valid lower bound at every length) provably
    // exceeds the current k-th best.
    const size_t idx = range.begin + local_idx;
    const double* FUZZYDB_RESTRICT row = rows.Acquire(idx);
    if (row == nullptr) return false;
    // Level 0, the s0-dim float prefix. In float mode this re-reads the
    // prefix the scan already summed (keeping it would cost 64 B per row);
    // the accumulator is split-invariant, so the bits are the scan's.
    SquaredDistanceAccumulator acc;
    acc.Accumulate(row, t, 0, s0);
    bool pruned = false;
    if (qquery != nullptr) {
      // In int8 mode level 0 runs lazily: the float prefix is read only
      // for candidates the int8 bound could not dismiss. Its own bound can
      // prune a candidate the walk ordering (keyed on the quantized bound)
      // let through — a skip of this candidate, never a halt of the walk.
      ++stats->bound_computations;
      stats->bytes_scanned_prefix += s0 * sizeof(double);
      pruned = s0 < dim && best->size() == k &&
               acc.Total() > (*best)[worst_pos].first;
    }
    size_t j = s0;
    while (j < dim && !pruned) {
      const size_t stop = std::min(dim, j + step);
      const double before = acc.Total();
      acc.Accumulate(row, t, j, stop);
      j = stop;
      // The cascade is dismissal-free only while every level lower-bounds
      // the next ([HSE+95]): accumulating non-negative squared terms can
      // never shrink the partial sum, exactly, in floating point.
      FUZZYDB_INVARIANT(acc.Total() >= before,
                        "cascade partial sum shrank from " +
                            std::to_string(before) + " to " +
                            std::to_string(acc.Total()) + " at dim " +
                            std::to_string(j) + " for row " +
                            std::to_string(idx));
      if (j < dim && best->size() == k &&
          acc.Total() > (*best)[worst_pos].first) {
        pruned = true;
      }
    }
    // A fully refined candidate's exact d^2 must dominate the bound that
    // ordered it — the quantized level −1 bound or the float level-0 prefix
    // — or that bound could have falsely dismissed it.
    FUZZYDB_INVARIANT(pruned || acc.Total() >= b,
                      std::string("cascade level ") +
                          (qquery != nullptr ? "-1 (int8)" : "0 (prefix)") +
                          " bound " + std::to_string(b) +
                          " exceeds exact d^2 " + std::to_string(acc.Total()) +
                          " for row " + std::to_string(idx));
    ++stats->candidates_refined;
    stats->dims_accumulated += j - s0;
    stats->bytes_scanned_refine += (j - s0) * sizeof(double);
    if (j == dim) ++stats->full_distance_computations;
    if (pruned) continue;

    const double d2 = acc.Total();
    if (best->size() < k) {
      best->emplace_back(d2, idx);
      if (best->size() == k) recompute_worst();
    } else if (std::pair(d2, idx) < (*best)[worst_pos]) {
      (*best)[worst_pos] = {d2, idx};
      recompute_worst();
    }
  }
  lap(&stats->refine_ms);
  return true;
}

}  // namespace knn_internal
}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_KNN_KERNEL_H_
