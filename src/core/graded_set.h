// Graded ("fuzzy") sets: the answer model for multimedia queries (paper §3).
//
// A graded set is a set of (object, grade) pairs with grades in [0,1]; it
// generalizes both a relational result set (grades 0/1) and the sorted list a
// multimedia subsystem returns.

#ifndef FUZZYDB_CORE_GRADED_SET_H_
#define FUZZYDB_CORE_GRADED_SET_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace fuzzydb {

/// Global object identifier. The middleware assumes a one-to-one id
/// correspondence across subsystems (the Garlic issue in paper §4.2); the
/// catalog module owns that mapping.
using ObjectId = uint64_t;

/// One element of a graded set.
struct GradedObject {
  ObjectId id = 0;
  /// Degree of match in [0, 1]; 1 is a perfect match.
  double grade = 0.0;

  bool operator==(const GradedObject& other) const = default;
};

/// Orders by grade descending, then id ascending (deterministic tie-break).
/// This is the canonical "sorted access" order.
inline bool GradeDescending(const GradedObject& a, const GradedObject& b) {
  if (a.grade != b.grade) return a.grade > b.grade;
  return a.id < b.id;
}

/// A graded set over objects. Internally kept unsorted until asked; lookups
/// by id are O(1).
class GradedSet {
 public:
  GradedSet() = default;

  /// Builds from a list of pairs; duplicate ids are rejected.
  static Result<GradedSet> FromPairs(std::vector<GradedObject> pairs);

  /// Inserts or overwrites the grade of `id`. Grade must be in [0, 1].
  Status Insert(ObjectId id, double grade);

  /// Grade of `id`, or nullopt if absent. (By fuzzy-set convention an absent
  /// object has grade 0; callers choose how to treat absence.)
  std::optional<double> GradeOf(ObjectId id) const;

  bool Contains(ObjectId id) const { return index_.count(id) > 0; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// All members in unspecified order.
  std::span<const GradedObject> items() const { return items_; }

  /// Members sorted by grade descending (ties by id ascending).
  std::vector<GradedObject> Sorted() const;

  /// The top-k members in sorted order (fewer if size() < k).
  std::vector<GradedObject> TopK(size_t k) const;

  /// Members with grade >= threshold, sorted.
  std::vector<GradedObject> AtLeast(double threshold) const;

  /// The support: ids with nonzero grade.
  std::vector<ObjectId> Support() const;

 private:
  std::vector<GradedObject> items_;
  std::unordered_map<ObjectId, size_t> index_;  // id -> position in items_
};

/// Checks that `result` is a valid top-k answer for the grades in `truth`:
/// it has min(k, |truth|) entries, each entry's grade matches `truth`, and no
/// omitted object has a strictly higher grade than any included one (ties may
/// be broken arbitrarily, per paper §4.1).
bool IsValidTopK(std::span<const GradedObject> result, const GradedSet& truth,
                 size_t k, double tol = 1e-12);

}  // namespace fuzzydb

#endif  // FUZZYDB_CORE_GRADED_SET_H_
