// ScanGradedSource orders its list lazily; it must still answer every
// access exactly as an eagerly sorted VectorSource over the same grades
// does — across window boundaries, on grade plateaus, and with sorted,
// filter and random access interleaved.

#include "middleware/scan_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/random.h"
#include "middleware/vector_source.h"

namespace fuzzydb {
namespace {

constexpr size_t kW = IncrementalOrder<GradedObject>::kFirstWindow;

class TestScanSource final : public ScanGradedSource {
 public:
  TestScanSource(std::vector<double> grades, ObjectId first_id)
      : ScanGradedSource("scan", std::move(grades), first_id) {}
  TestScanSource(std::vector<double> grades, const std::vector<ObjectId>& ids)
      : ScanGradedSource("scan", std::move(grades), ids) {}
};

// Grades on a coarse grid, so long plateaus of equal grades straddle the
// window boundaries and only the id tie-break orders them. Includes both
// ends of [0, 1].
std::vector<double> PlateauGrades(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> grades(n);
  for (double& g : grades) g = static_cast<double>(rng.NextBounded(41)) / 40;
  grades[0] = 1.0;
  grades[n / 2] = 0.0;
  return grades;
}

VectorSource Reference(const std::vector<double>& grades,
                       const std::vector<ObjectId>& ids) {
  std::vector<GradedObject> items(grades.size());
  for (size_t i = 0; i < grades.size(); ++i) items[i] = {ids[i], grades[i]};
  Result<VectorSource> src = VectorSource::Create(std::move(items));
  EXPECT_TRUE(src.ok());
  return std::move(src).value();
}

std::vector<ObjectId> Contiguous(size_t n, ObjectId first) {
  std::vector<ObjectId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = first + i;
  return ids;
}

// Drives both sources through the same random interleaving of sorted runs,
// restarts, filter access and random access, comparing every answer.
void ExpectSameAnswers(GradedSource* lazy, VectorSource* eager,
                       const std::vector<double>& grades,
                       const std::vector<ObjectId>& ids, uint64_t seed) {
  ASSERT_EQ(lazy->Size(), eager->Size());
  const double plateau = grades[grades.size() / 3];
  const std::vector<double> thresholds = {plateau, 0.0, 1.5, 1.0, 0.5, 0.975};
  Rng rng(seed);
  for (int step = 0; step < 60; ++step) {
    switch (rng.NextBounded(4)) {
      case 0: {  // a sorted run, sometimes far past the current window
        const size_t run = rng.NextBounded(2 * kW + 1);
        for (size_t i = 0; i <= run; ++i) {
          std::optional<GradedObject> a = lazy->NextSorted();
          std::optional<GradedObject> b = eager->NextSorted();
          ASSERT_EQ(a, b) << "step " << step << " item " << i;
          if (!b.has_value()) break;
        }
        break;
      }
      case 1:
        lazy->RestartSorted();
        eager->RestartSorted();
        break;
      case 2: {
        const double t = thresholds[rng.NextBounded(thresholds.size())];
        ASSERT_EQ(lazy->AtLeast(t), eager->AtLeast(t)) << "threshold " << t;
        break;
      }
      default:
        for (int p = 0; p < 50; ++p) {
          const ObjectId id = ids[rng.NextBounded(ids.size())];
          ASSERT_EQ(lazy->RandomAccess(id), eager->RandomAccess(id));
        }
    }
  }
  // Drain to the end: the whole stream, then exhaustion, on both.
  while (std::optional<GradedObject> b = eager->NextSorted()) {
    ASSERT_EQ(lazy->NextSorted(), b);
  }
  EXPECT_FALSE(lazy->NextSorted().has_value());
}

TEST(ScanGradedSourceTest, ContiguousIdsMatchAnEagerSource) {
  const size_t n = 3 * kW + 77;
  const std::vector<double> grades = PlateauGrades(n, 1);
  const std::vector<ObjectId> ids = Contiguous(n, 5);
  for (uint64_t seed : {1, 2, 3}) {
    TestScanSource lazy(grades, 5);
    VectorSource eager = Reference(grades, ids);
    ExpectSameAnswers(&lazy, &eager, grades, ids, seed);
  }
}

TEST(ScanGradedSourceTest, ExplicitIdsMatchAnEagerSource) {
  const size_t n = 2 * kW + 13;
  const std::vector<double> grades = PlateauGrades(n, 2);
  std::vector<ObjectId> ids = Contiguous(n, 0);
  for (ObjectId& id : ids) id = 1000 + 3 * id;
  Rng rng(9);
  rng.Shuffle(&ids);  // ids out of row order: ties must break on id
  TestScanSource lazy(grades, ids);
  VectorSource eager = Reference(grades, ids);
  ExpectSameAnswers(&lazy, &eager, grades, ids, 4);
}

TEST(ScanGradedSourceTest, UnknownIdsGradeZero) {
  TestScanSource dense({0.5, 0.25}, 10);
  EXPECT_EQ(dense.RandomAccess(10), 0.5);
  EXPECT_EQ(dense.RandomAccess(11), 0.25);
  EXPECT_EQ(dense.RandomAccess(9), 0.0);  // below first_id
  EXPECT_EQ(dense.RandomAccess(12), 0.0);
  EXPECT_EQ(dense.RandomAccess(0), 0.0);
  TestScanSource mapped({0.5, 0.25}, std::vector<ObjectId>{7, 3});
  EXPECT_EQ(mapped.RandomAccess(3), 0.25);
  EXPECT_EQ(mapped.RandomAccess(4), 0.0);
  TestScanSource empty({}, 1);
  EXPECT_EQ(empty.Size(), 0u);
  EXPECT_FALSE(empty.NextSorted().has_value());
  EXPECT_TRUE(empty.AtLeast(0.0).empty());
  EXPECT_EQ(empty.RandomAccess(1), 0.0);
}

TEST(ScanGradedSourceTest, OrdersOnlyWhatIsRead) {
  const size_t n = 100 * kW;
  std::vector<double> grades(n);
  for (size_t i = 0; i < n; ++i) grades[i] = 1.0 - static_cast<double>(i) / n;
  TestScanSource lazy(grades, 0);
  EXPECT_EQ(lazy.ordered(), 0u);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(lazy.NextSorted().has_value());
  EXPECT_EQ(lazy.ordered(), kW);
  for (ObjectId id = 0; id < n; id += 997) lazy.RandomAccess(id);
  EXPECT_EQ(lazy.ordered(), kW);  // random access never orders
  // 2kW qualifying objects: filter access orders one window past them.
  const double t = grades[2 * kW - 1];
  EXPECT_EQ(lazy.AtLeast(t).size(), 2 * kW);
  EXPECT_EQ(lazy.ordered(), 3 * kW);
  EXPECT_EQ(lazy.AtLeast(0.0).size(), n);
  EXPECT_EQ(lazy.ordered(), n);
}

TEST(ScanGradedSourceTest, ConcurrentFilterAccessOnOneSource) {
  // The same source may back two atoms of one query, whose filter
  // retrievals run on different threads; extending the window is shared.
  const size_t n = 8 * kW;
  const std::vector<double> grades = PlateauGrades(n, 3);
  const std::vector<ObjectId> ids = Contiguous(n, 1);
  TestScanSource lazy(grades, 1);
  VectorSource eager = Reference(grades, ids);
  const std::vector<double> thresholds = {0.9, 0.5, 0.2, 0.0};
  std::vector<std::vector<GradedObject>> got(thresholds.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < thresholds.size(); ++i) {
    threads.emplace_back(
        [&, i] { got[i] = lazy.AtLeast(thresholds[i]); });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < thresholds.size(); ++i) {
    EXPECT_EQ(got[i], eager.AtLeast(thresholds[i]));
  }
}

}  // namespace
}  // namespace fuzzydb
