#include "core/graded_set.h"

#include <algorithm>
#include <cmath>

namespace fuzzydb {

Result<GradedSet> GradedSet::FromPairs(std::vector<GradedObject> pairs) {
  GradedSet out;
  out.items_.reserve(pairs.size());
  for (const GradedObject& p : pairs) {
    if (out.Contains(p.id)) {
      return Status::AlreadyExists("duplicate object id in graded set");
    }
    FUZZYDB_RETURN_NOT_OK(out.Insert(p.id, p.grade));
  }
  return out;
}

Status GradedSet::Insert(ObjectId id, double grade) {
  if (!(grade >= 0.0 && grade <= 1.0)) {
    return Status::InvalidArgument("grade must be in [0,1]");
  }
  auto it = index_.find(id);
  if (it != index_.end()) {
    items_[it->second].grade = grade;
    return Status::OK();
  }
  index_.emplace(id, items_.size());
  items_.push_back({id, grade});
  return Status::OK();
}

std::optional<double> GradedSet::GradeOf(ObjectId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return items_[it->second].grade;
}

std::vector<GradedObject> GradedSet::Sorted() const {
  std::vector<GradedObject> out = items_;
  std::sort(out.begin(), out.end(), GradeDescending);
  return out;
}

std::vector<GradedObject> GradedSet::TopK(size_t k) const {
  std::vector<GradedObject> out = items_;
  k = std::min(k, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<long>(k), out.end(),
                    GradeDescending);
  out.resize(k);
  return out;
}

std::vector<GradedObject> GradedSet::AtLeast(double threshold) const {
  std::vector<GradedObject> out;
  for (const GradedObject& g : items_) {
    if (g.grade >= threshold) out.push_back(g);
  }
  std::sort(out.begin(), out.end(), GradeDescending);
  return out;
}

std::vector<ObjectId> GradedSet::Support() const {
  std::vector<ObjectId> out;
  for (const GradedObject& g : items_) {
    if (g.grade > 0.0) out.push_back(g.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool IsValidTopK(std::span<const GradedObject> result, const GradedSet& truth,
                 size_t k, double tol) {
  const size_t expect = std::min(k, truth.size());
  if (result.size() != expect) return false;
  double min_included = 1.0;
  std::unordered_map<ObjectId, bool> included;
  for (const GradedObject& r : result) {
    if (included.count(r.id)) return false;  // duplicate
    included[r.id] = true;
    std::optional<double> g = truth.GradeOf(r.id);
    if (!g.has_value()) return false;
    if (std::fabs(*g - r.grade) > tol) return false;
    min_included = std::min(min_included, *g);
  }
  for (const GradedObject& t : truth.items()) {
    if (!included.count(t.id) && t.grade > min_included + tol) return false;
  }
  return true;
}

}  // namespace fuzzydb
