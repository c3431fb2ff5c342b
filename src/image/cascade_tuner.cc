#include "image/cascade_tuner.h"

#include <algorithm>
#include <cmath>

namespace fuzzydb {

double CascadeTuner::Cost(const CascadeStats& stats, size_t prefix_dim,
                          size_t dim, double candidate_overhead,
                          size_t queries) {
  if (queries == 0) return 0.0;
  // Level −1 reads block 0 of every row it scans and the other dims only
  // of the rows its prefix screen passed (always all of them when dim <=
  // kBlockDim, where the negative tail term makes the charge n * dim).
  const double kBlock = static_cast<double>(QuantizedStore::kBlockDim);
  const double level_m1 =
      (static_cast<double>(stats.quantized_bound_computations) * kBlock +
       static_cast<double>(stats.quantized_full_bounds) *
           (static_cast<double>(dim) - kBlock)) *
      kQuantizedDimCost;
  const double level0 = static_cast<double>(stats.bound_computations) *
                        static_cast<double>(prefix_dim);
  const double refine = static_cast<double>(stats.dims_accumulated) +
                        candidate_overhead *
                            static_cast<double>(stats.candidates_refined);
  return (level_m1 + level0 + refine) / static_cast<double>(queries);
}

std::vector<size_t> CascadeTuner::SpectrumPrefixes(
    std::span<const double> eigenvalues,
    std::span<const double> energy_fractions) {
  std::vector<size_t> out;
  if (eigenvalues.empty()) return out;
  double total = 0.0;
  for (double v : eigenvalues) total += std::max(v, 0.0);
  for (double fraction : energy_fractions) {
    size_t depth = eigenvalues.size();
    if (total > 0.0) {
      double cum = 0.0;
      for (size_t j = 0; j < eigenvalues.size(); ++j) {
        cum += std::max(eigenvalues[j], 0.0);
        if (cum >= fraction * total) {
          depth = j + 1;
          break;
        }
      }
    } else {
      depth = 1;  // degenerate spectrum: every prefix is equally blind
    }
    out.push_back(std::clamp<size_t>(depth, 1, eigenvalues.size()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TunedCascade CascadeTuner::Tune(
    const EmbeddingStore& store, std::span<const double> eigenvalues,
    const std::vector<std::vector<double>>& calibration,
    const CascadeTunerOptions& options) {
  TunedCascade result;
  result.options = CascadeOptions{};

  std::vector<size_t> prefixes = options.prefix_grid;
  if (prefixes.empty()) {
    const double kFractions[] = {0.25, 0.50, 0.75, 0.90};
    prefixes = SpectrumPrefixes(eigenvalues, kFractions);
  }
  if (prefixes.empty()) prefixes.push_back(CascadeOptions{}.prefix_dim);
  std::vector<size_t> steps = options.step_grid;
  if (steps.empty()) steps.push_back(CascadeOptions{}.step);

  const size_t executors =
      options.pool != nullptr ? options.pool->executors() : 1;
  std::vector<size_t> shard_counts = options.shard_grid;
  if (shard_counts.empty()) {
    shard_counts.push_back(1);
    if (executors > 1) {
      shard_counts.push_back(2);
      if (executors > 2) shard_counts.push_back(executors);
    }
  }
  for (size_t& s : shard_counts) s = std::max<size_t>(s, 1);
  std::sort(shard_counts.begin(), shard_counts.end());
  shard_counts.erase(std::unique(shard_counts.begin(), shard_counts.end()),
                     shard_counts.end());

  const size_t k = std::max<size_t>(options.k, 1);
  // The quantized level −1 joins the sweep only when the store carries the
  // int8 companion; whether it pays for itself is measured, not assumed.
  std::vector<bool> quantized_axis = {false};
  if (store.has_quantized()) quantized_axis.push_back(true);

  bool first = true;
  for (size_t prefix : prefixes) {
    prefix = std::clamp<size_t>(prefix, 1, std::max<size_t>(store.dim(), 1));
    for (size_t step : steps) {
      for (size_t shards : shard_counts) {
        for (bool use_quantized : quantized_axis) {
          CascadeCandidate candidate;
          candidate.options = {prefix, std::max<size_t>(step, 1),
                               use_quantized};
          candidate.shards = shards;
          for (const std::vector<double>& target : calibration) {
            store.CascadeKnn(target, k, candidate.options, &candidate.stats,
                             options.pool, shards);
          }
          // Sharding splits the measured work (which already includes the
          // shard-local pruning penalty baked into the stats) across the
          // executors it can actually use, and pays per-shard bookkeeping.
          const double work =
              Cost(candidate.stats, prefix, store.dim(),
                   options.candidate_overhead, calibration.size());
          const double effective =
              static_cast<double>(std::min(shards, executors));
          candidate.cost = work / effective +
                           options.shard_overhead *
                               static_cast<double>(shards - 1);
          // Strict <: ties keep the earlier (smaller prefix, smaller step,
          // fewer shards, unquantized) configuration, making the sweep
          // order part of the contract — a 1-executor host
          // deterministically tunes to 1 shard.
          if (first || candidate.cost < result.cost) {
            result.options = candidate.options;
            result.shards = candidate.shards;
            result.cost = candidate.cost;
            first = false;
          }
          result.sweep.push_back(std::move(candidate));
        }
      }
    }
  }
  return result;
}

}  // namespace fuzzydb
