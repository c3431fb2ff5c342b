// IncrementalOrder must expose exactly the full sort's prefix, entry for
// entry, however the reads are spaced — across window boundaries, on tie
// storms broken only by index, and when the list is shorter than one
// window or every entry is asked for.

#include "common/incremental_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/random.h"

namespace fuzzydb {
namespace {

using Keyed = std::pair<double, size_t>;  // (bound, index): a strict order
constexpr size_t kW = IncrementalOrder<Keyed>::kFirstWindow;

std::vector<Keyed> WithIndices(const std::vector<double>& bounds) {
  std::vector<Keyed> out(bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) out[i] = {bounds[i], i};
  return out;
}

// Reads every entry one at a time and compares with std::sort.
void ExpectSortedWalk(const std::vector<Keyed>& items) {
  std::vector<Keyed> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  IncrementalOrder<Keyed> order(items);
  ASSERT_EQ(order.size(), items.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(order.At(i), sorted[i]) << "position " << i;
    ASSERT_GT(order.ordered(), i);
  }
  EXPECT_EQ(order.ordered(), items.size());
}

// A shuffled list whose bounds repeat in plateaus of `run` equal values.
std::vector<Keyed> Plateaus(size_t n, size_t run, uint64_t seed) {
  std::vector<double> bounds(n);
  for (size_t i = 0; i < n; ++i) bounds[i] = static_cast<double>(i / run);
  Rng rng(seed);
  rng.Shuffle(&bounds);
  return WithIndices(bounds);
}

TEST(IncrementalOrderTest, RandomBoundsMatchFullSort) {
  Rng rng(7);
  std::vector<double> bounds(5 * kW + 17);
  for (double& b : bounds) b = rng.NextDouble();
  ExpectSortedWalk(WithIndices(bounds));
}

TEST(IncrementalOrderTest, AllEqualBoundsOrderByIndex) {
  ExpectSortedWalk(WithIndices(std::vector<double>(3 * kW + 5, 0.25)));
}

TEST(IncrementalOrderTest, PlateausStraddlingWindowBoundaries) {
  // Window ends fall at kW, 3kW, 7kW. Plateau lengths that do not divide
  // them put equal bounds on both sides of every boundary.
  for (size_t run : {size_t{3}, size_t{kW / 2 + 1}, size_t{2 * kW + 1}}) {
    ExpectSortedWalk(Plateaus(8 * kW, run, 11 + run));
  }
  // One plateau of 20 straddling the first boundary, its indices stored in
  // descending order so only the index tie-break can order it.
  std::vector<double> bounds(4 * kW, 1.0);
  for (size_t i = 0; i < kW + 10; ++i) bounds[i] = i < kW - 10 ? 0.0 : 0.5;
  std::reverse(bounds.begin(), bounds.end());
  ExpectSortedWalk(WithIndices(bounds));
}

TEST(IncrementalOrderTest, ShorterThanOneWindow) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{kW - 1}}) {
    ExpectSortedWalk(Plateaus(n, 2, n));
  }
}

TEST(IncrementalOrderTest, OrderPrefixPastTheEndOrdersEverything) {
  const std::vector<Keyed> items = Plateaus(3 * kW + 1, 5, 3);
  std::vector<Keyed> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  IncrementalOrder<Keyed> order(items);
  order.OrderPrefix(10 * items.size());  // k >= n
  ASSERT_EQ(order.ordered(), items.size());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(order.At(i), sorted[i]);
}

TEST(IncrementalOrderTest, WindowsDoubleAndStopShortOfTheTail) {
  IncrementalOrder<Keyed> order(Plateaus(100 * kW, 1, 5));
  EXPECT_EQ(order.ordered(), 0u);
  EXPECT_EQ(order.At(0).first, 0.0);
  EXPECT_EQ(order.ordered(), kW);
  order.At(kW - 1);  // inside the window: no more ordering
  EXPECT_EQ(order.ordered(), kW);
  order.At(kW);
  EXPECT_EQ(order.ordered(), 3 * kW);
  order.At(3 * kW);
  EXPECT_EQ(order.ordered(), 7 * kW);
  // A read far past the window orders exactly through it.
  order.At(20 * kW);
  EXPECT_EQ(order.ordered(), 20 * kW + 1);
  EXPECT_EQ(order.At(20 * kW).first, static_cast<double>(20 * kW));
}

TEST(IncrementalOrderTest, CustomOrderDescending) {
  Rng rng(13);
  std::vector<double> values(2 * kW + 3);
  for (double& v : values) v = static_cast<double>(rng.NextBounded(50));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  IncrementalOrder<double, std::greater<double>> order(values);
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(order.At(i), sorted[i]);
}

}  // namespace
}  // namespace fuzzydb
