// A color-similarity GradedSource over the paged embedding store — the
// middleware's view of an out-of-core collection (DESIGN §3k).
//
// What pages and what does not: construction streams every embedding row
// (stride * 8 bytes, ~64x a grade) through the buffer pool once, in one
// sequential pass on the calling thread, and keeps one 8-byte grade per
// object. From
// then on the shared ScanGradedSource serves the grades from RAM: random
// access is a flat array lookup, and sorted and filter access order the
// list only as far as they read it, one selected window at a time. So
// middleware runs (TA/NRA/CA) over a paged collection cost what they cost
// over a RAM collection; the disk was paid once, at source-build time, and
// an A0 or TA run that stops after a few thousand sorted accesses never
// pays to sort the other rows.
//
// Grade arithmetic is shared with QbicColorSource (GradeFromDistance over
// BatchDistances output), so a paged source over the same rows produces
// identical grades and identical middleware answers — asserted by the
// equivalence tests, not assumed.

#ifndef FUZZYDB_STORAGE_PAGED_SOURCE_H_
#define FUZZYDB_STORAGE_PAGED_SOURCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "middleware/scan_source.h"
#include "storage/paged_store.h"

namespace fuzzydb {
namespace storage {

/// Color-similarity source backed by a PagedEmbeddingStore:
/// grade(x) = 1 - d(x, target)/d_max, d the eigen-space (= quadratic-form)
/// distance.
class PagedColorSource final : public ScanGradedSource {
 public:
  /// Grades every row of `store` against `target_embedding` (a full-dim
  /// embedding from QuadraticFormDistance::Embed) in one sequential paged
  /// pass. `ids` maps row -> ObjectId; empty means identity (row i is
  /// object i), which keeps random access a flat array lookup instead of a
  /// hash map — the only choice that scales to out-of-core N.
  static Result<PagedColorSource> Create(const PagedEmbeddingStore* store,
                                         std::span<const double>
                                             target_embedding,
                                         double max_distance,
                                         std::string label = "Color(paged)",
                                         std::vector<ObjectId> ids = {});

 private:
  using ScanGradedSource::ScanGradedSource;
};

}  // namespace storage
}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_PAGED_SOURCE_H_
