// IncrementalOrder<T, Less>: selection, not sorting (DESIGN §3k).
//
// A top-k walk over a ranked list — the cascade's candidate walk, a graded
// source's sorted access — reads only a short prefix of the order, so fully
// sorting all n entries up front pays O(n log n) for order nobody looks at.
// This holds the entries and a sorted-prefix watermark. A read past the
// watermark orders the next window:
//
//   1. nth_element moves the window's entries to the front of the unsorted
//      tail (the smallest ones under `Less`);
//   2. only that window is sorted;
//   3. the next window is twice as wide, so a walk that reads m entries
//      pays O(log(m / kFirstWindow)) linear passes over the tail.
//
// With a strict total order every exposed prefix equals the full sort's
// prefix element for element — so a walk driven by it visits exactly the
// same entries in exactly the same order, and every answer and counter
// downstream stays bit-identical. Callers must supply one: `(bound, index)`
// pairs, or GradeDescending over unique ids.
//
// Not thread-safe: reads past the watermark reorder the tail in place.

#ifndef FUZZYDB_COMMON_INCREMENTAL_ORDER_H_
#define FUZZYDB_COMMON_INCREMENTAL_ORDER_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace fuzzydb {

template <typename T, typename Less = std::less<T>>
class IncrementalOrder {
 public:
  /// Entries ordered by the first read past an empty prefix. Wide enough
  /// that a top-k walk at small k finishes inside one window (one linear
  /// pass), narrow enough that sorting it costs little next to that pass.
  static constexpr size_t kFirstWindow = 1024;

  explicit IncrementalOrder(std::vector<T> items, Less less = Less())
      : items_(std::move(items)), less_(std::move(less)) {}

  size_t size() const { return items_.size(); }

  /// Entries in final sorted position so far: the watermark.
  size_t ordered() const { return ordered_; }

  /// The i-th entry of the full sort (i < size()); orders further first
  /// when i is past the watermark.
  const T& At(size_t i) {
    if (i >= ordered_) OrderPrefix(i + 1);
    return items_[i];
  }

  /// Puts the first min(count, size()) entries in final sorted position.
  void OrderPrefix(size_t count) {
    count = std::min(count, items_.size());
    if (count <= ordered_) return;
    const size_t end =
        std::min(items_.size(), ordered_ + std::max(window_, count - ordered_));
    auto first = items_.begin() + static_cast<std::ptrdiff_t>(ordered_);
    auto mid = items_.begin() + static_cast<std::ptrdiff_t>(end);
    if (mid != items_.end()) std::nth_element(first, mid, items_.end(), less_);
    std::sort(first, mid, less_);
    ordered_ = end;
    window_ *= 2;
  }

 private:
  std::vector<T> items_;
  Less less_;
  size_t ordered_ = 0;
  size_t window_ = kFirstWindow;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_INCREMENTAL_ORDER_H_
