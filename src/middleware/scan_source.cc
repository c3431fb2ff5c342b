#include "middleware/scan_source.h"

namespace fuzzydb {

namespace {

std::vector<GradedObject> Entries(const std::vector<double>& grades,
                                  const auto& id_of) {
  std::vector<GradedObject> items(grades.size());
  for (size_t i = 0; i < grades.size(); ++i) items[i] = {id_of(i), grades[i]};
  return items;
}

}  // namespace

ScanGradedSource::ScanGradedSource(std::string label,
                                   std::vector<double> grades,
                                   ObjectId first_id)
    : label_(std::move(label)), first_id_(first_id) {
  order_ = std::make_unique<Order>(Entries(
      grades, [first_id](size_t i) { return first_id + ObjectId{i}; }));
  grades_ = std::move(grades);
}

ScanGradedSource::ScanGradedSource(std::string label,
                                   std::vector<double> grades,
                                   const std::vector<ObjectId>& ids)
    : label_(std::move(label)) {
  by_id_.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) by_id_.emplace(ids[i], grades[i]);
  order_ = std::make_unique<Order>(
      Entries(grades, [&ids](size_t i) { return ids[i]; }));
  grades_ = std::move(grades);
}

std::optional<GradedObject> ScanGradedSource::NextSorted() {
  MutexLock lock(order_->mu);
  if (order_->cursor >= order_->list.size()) return std::nullopt;
  return order_->list.At(order_->cursor++);
}

void ScanGradedSource::RestartSorted() {
  MutexLock lock(order_->mu);
  order_->cursor = 0;
}

double ScanGradedSource::RandomAccess(ObjectId id) {
  if (!by_id_.empty()) {
    auto it = by_id_.find(id);
    return it == by_id_.end() ? 0.0 : it->second;
  }
  // Unsigned wrap sends ids below first_id_ past the end too.
  const ObjectId row = id - first_id_;
  return row < grades_.size() ? grades_[row] : 0.0;
}

std::vector<GradedObject> ScanGradedSource::AtLeast(double threshold) {
  MutexLock lock(order_->mu);
  // The list is grade-descending, so the qualifying objects are exactly a
  // prefix; ordering stops one window past its end.
  std::vector<GradedObject> out;
  for (size_t i = 0; i < order_->list.size(); ++i) {
    const GradedObject& g = order_->list.At(i);
    if (!(g.grade >= threshold)) break;
    out.push_back(g);
  }
  return out;
}

size_t ScanGradedSource::ordered() const {
  MutexLock lock(order_->mu);
  return order_->list.ordered();
}

}  // namespace fuzzydb
