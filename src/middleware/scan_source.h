// ScanGradedSource: the shared body of every batch-graded source — one
// grade per object from one scan of the collection, served in grade order
// on demand (DESIGN §3k).
//
// The subsystem adapters (QbicColorSource, QbicTextureSource,
// QbicShapeSource, storage::PagedColorSource) differ only in how they
// compute the grades. Everything after that is here:
//
//   - sorted access walks an IncrementalOrder under GradeDescending, which
//     selects the next window of the list only when the cursor reaches it.
//     A top-k run reads a short prefix, so most of the list is never put
//     in order; the prefix it does read is the full sort's, entry for
//     entry, so access counts and answers equal an eagerly sorted list's;
//   - filter access (AtLeast) extends the same window until the last
//     ordered grade falls below the threshold or the list is exhausted;
//   - random access reads a dense grade array at id - first_id, and never
//     touches the window. Only explicit, non-contiguous ids pay a hash map.
//
// The window is shared by sorted and filter access, so extending it is
// serialized by a mutex; random access needs none.

#ifndef FUZZYDB_MIDDLEWARE_SCAN_SOURCE_H_
#define FUZZYDB_MIDDLEWARE_SCAN_SOURCE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/incremental_order.h"
#include "common/sync.h"
#include "middleware/source.h"

namespace fuzzydb {

/// A graded source over grades computed up front and ordered lazily.
class ScanGradedSource : public GradedSource {
 public:
  size_t Size() const override { return grades_.size(); }
  std::optional<GradedObject> NextSorted() override;
  void RestartSorted() override;
  double RandomAccess(ObjectId id) override;
  std::vector<GradedObject> AtLeast(double threshold) override;
  std::string name() const override { return label_; }

  /// Entries put in grade order so far (diagnostic; not an access mode).
  size_t ordered() const;

 protected:
  /// Contiguous ids: grades[i] is the grade of object first_id + i.
  ScanGradedSource(std::string label, std::vector<double> grades,
                   ObjectId first_id);
  /// Explicit ids: grades[i] is the grade of ids[i] (same length). A
  /// repeated id answers random access with its first grade.
  ScanGradedSource(std::string label, std::vector<double> grades,
                   const std::vector<ObjectId>& ids);

 private:
  struct ByGradeDescending {
    bool operator()(const GradedObject& a, const GradedObject& b) const {
      return GradeDescending(a, b);
    }
  };
  // Behind unique_ptr because Mutex is immovable and the adapters'
  // Create() returns by value.
  struct Order {
    explicit Order(std::vector<GradedObject> items) : list(std::move(items)) {}
    Mutex mu;
    IncrementalOrder<GradedObject, ByGradeDescending> list GUARDED_BY(mu);
    size_t cursor GUARDED_BY(mu) = 0;
  };

  std::string label_;
  std::vector<double> grades_;
  ObjectId first_id_ = 0;
  /// Explicit-ids mode only; empty when ids are contiguous.
  std::unordered_map<ObjectId, double> by_id_;
  std::unique_ptr<Order> order_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_SCAN_SOURCE_H_
