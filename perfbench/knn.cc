// knn_paged: query-by-example top-10 CascadeKnn with the int8 tier on,
// over a paged column file, one client in a closed loop, the kernel
// sharded over a ThreadPool of nproc executors. Each target is a stored
// row plus noise; a few targets are cycled so refinement probes hit pages
// the pool keeps warm, while the int8 scan stays RAM-resident.

#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "common/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fuzzydb::CascadeStats;
using fuzzydb::Result;
using fuzzydb::Status;
using Neighbors = std::vector<std::pair<size_t, double>>;

constexpr size_t kK = 10;

struct KnnPass {
  std::vector<double> latency_ms;
  double throughput_qps = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  CascadeStats stats;  ///< Summed over the pass.
};

// Runs the closed loop for `seconds`, checking every answer against its
// ExactKnn reference.
KnnPass RunPass(const fuzzydb::storage::PagedEmbeddingStore& store,
                const std::vector<std::vector<double>>& targets,
                const std::vector<Neighbors>& refs,
                const std::vector<size_t>& order, size_t* next,
                fuzzydb::ThreadPool* pool, double seconds, Tracer* tracer) {
  fuzzydb::CascadeOptions options;
  options.use_quantized = true;
  KnnPass pass;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    const size_t t = order[(*next)++ % order.size()];
    CascadeStats stats;
    const Clock::time_point t0 = Clock::now();
    Result<Neighbors> got =
        store.CascadeKnn(targets[t], kK, options, &stats, pool);
    const Clock::time_point t1 = Clock::now();
    ++pass.attempted;
    if (tracer != nullptr) tracer->Record("image.cascade_knn", -1, *next, t0, t1);
    if (!got.ok()) {
      ++pass.failed;
      continue;
    }
    if (*got != refs[t]) ++pass.mismatched;
    pass.latency_ms.push_back(Ms(t1 - t0));
    pass.stats.Absorb(stats);
  }
  pass.throughput_qps =
      static_cast<double>(pass.attempted) /
      std::chrono::duration<double>(Clock::now() - start).count();
  return pass;
}

}  // namespace

Result<RunResult> RunKnnPaged(const Config& cfg) {
  const std::string path = cfg.data_dir + "/knn_paged.fzdb";
  Result<Dataset> built = BuildDataset(path, cfg.knn_rows, cfg.knn_pool_bytes,
                                       cfg.seed, cfg.setup_repeats);
  if (!built.ok()) return built.status();
  const Dataset& data = *built;
  const fuzzydb::storage::PagedEmbeddingStore& store = *data.store;
  const size_t executors = cfg.executors > 0
                               ? cfg.executors
                               : fuzzydb::ThreadPool::HardwareConcurrency();
  fuzzydb::ThreadPool pool(executors);

  // Targets: stored rows plus a little noise; references by ExactKnn, all
  // outside the timed loop and outside setup_s.
  fuzzydb::Rng rng(cfg.seed ^ 0x4b4eULL);
  std::vector<std::vector<double>> targets;
  std::vector<Neighbors> refs;
  for (size_t t = 0; t < cfg.knn_targets; ++t) {
    std::vector<double> v = SpectrumVector(cfg.seed, rng.NextBounded(cfg.knn_rows));
    for (size_t j = 0; j < kDim; ++j) v[j] += 0.02 * Spectrum()[j] * rng.NextGaussian();
    Result<Neighbors> exact = store.ExactKnn(v, kK, &pool);
    if (!exact.ok()) return exact.status();
    targets.push_back(std::move(v));
    refs.push_back(std::move(*exact));
  }
  if (cfg.corrupt_reference && !refs.empty() && !refs[0].empty()) {
    refs[0][0].second = std::nextafter(refs[0][0].second, 1e300);
  }
  std::vector<size_t> order(cfg.knn_targets * 16);
  for (size_t& o : order) o = rng.NextBounded(cfg.knn_targets);

  // Warm-up: one untimed query per target lets the pool fill; its answers
  // are checked too.
  uint64_t warm_mismatched = 0;
  for (size_t t = 0; t < targets.size(); ++t) {
    Result<Neighbors> got = store.CascadeKnn(
        targets[t], kK, fuzzydb::CascadeOptions{}, nullptr, &pool);
    if (!got.ok()) return got.status();
    if (*got != refs[t]) ++warm_mismatched;
  }

  std::printf("knn_paged: %zu rows x %zu dims, %zu MB pool, %zu targets, "
              "%zu executors; setup %.4f s\n",
              store.size(), store.dim(), cfg.knn_pool_bytes >> 20,
              targets.size(), executors, data.setup_s);
  const double pass_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  size_t next = 0;
  const KnnPass plain =
      RunPass(store, targets, refs, order, &next, &pool, pass_s, nullptr);
  Tracer tracer;
  KnnPass traced;
  if (cfg.trace) {
    traced = RunPass(store, targets, refs, order, &next, &pool, pass_s, &tracer);
  }

  RunResult out;
  const uint64_t mismatched =
      warm_mismatched + plain.mismatched + traced.mismatched;
  out.attempted = targets.size() + plain.attempted + traced.attempted;
  out.failed = plain.failed + traced.failed + mismatched;
  out.correct = mismatched == 0;
  const size_t n = plain.latency_ms.size();
  std::printf(
      "untraced: %zu calls, p50 %.3f ms, p90 %.3f ms (%zu samples beyond "
      "p90; highest percentile with >= 10 beyond: p%g), %.3f queries/s\n",
      n, Percentile(plain.latency_ms, 50), Percentile(plain.latency_ms, 90),
      SamplesBeyond(n, 90), HighestSupportedPercentile(n),
      plain.throughput_qps);
  std::printf("errors: %llu failed + %llu mismatched of %llu attempted\n",
              static_cast<unsigned long long>(plain.failed + traced.failed),
              static_cast<unsigned long long>(mismatched),
              static_cast<unsigned long long>(out.attempted));

  out.Add("latency_p50_ms", Percentile(plain.latency_ms, 50), "ms");
  out.Add("latency_p90_ms", Percentile(plain.latency_ms, 90), "ms");
  out.Add("throughput_qps", plain.throughput_qps, "1/s");
  out.Add("success_rate",
          1.0 - Ratio(static_cast<double>(out.failed),
                      static_cast<double>(out.attempted)),
          "ratio");
  out.Add("setup_s", data.setup_s, "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");

  if (cfg.trace) {
    const CascadeStats& s = traced.stats;
    const double q = static_cast<double>(traced.latency_ms.size());
    const double hits = static_cast<double>(s.buffer_pool_hits);
    const double misses = static_cast<double>(s.buffer_pool_misses);
    out.Add("storage.pool_hit_rate", Ratio(hits, hits + misses), "ratio");
    out.Add("storage.disk_bytes_per_query",
            Ratio(static_cast<double>(s.bytes_read_disk), q), "B");
    out.Add("storage.evictions_per_query",
            Ratio(static_cast<double>(s.buffer_pool_evictions), q), "count");
    out.Add("storage.ingest_rows_per_s",
            Ratio(static_cast<double>(store.size()), data.append_s),
            "1/s");
    out.Add("storage.finish_s", data.finish_s, "s");
    out.Add("storage.open_ms", data.open_s * 1000.0, "ms");
    out.Add("image.quantized_bytes_per_query",
            Ratio(static_cast<double>(s.bytes_scanned_quantized), q), "B");
    out.Add("image.refine_bytes_per_query",
            Ratio(static_cast<double>(s.bytes_scanned_refine), q), "B");
    out.Add("image.candidates_refined_per_query",
            Ratio(static_cast<double>(s.candidates_refined), q), "count");
    const double p50_ns =
        Percentile(DurationsOf(tracer.spans(), "image.cascade_knn"), 50) * 1e6;
    const double ns_per_row = Ratio(p50_ns, static_cast<double>(store.size()));
    out.Add("image.ns_per_row", ns_per_row, "ns");
    std::printf("image.ns_per_row = %.4f ns = %.0f ns (p50 CascadeKnn call) / "
                "%zu rows\n",
                ns_per_row, p50_ns, store.size());
    const double base = Percentile(plain.latency_ms, 50);
    const double with = Percentile(traced.latency_ms, 50);
    out.Add("trace.overhead_frac", Ratio(with, base) - 1.0, "ratio");
    std::printf("trace.overhead_frac = %.4f (traced p50 %.3f ms vs untraced "
                "%.3f ms)\n",
                Ratio(with, base) - 1.0, with, base);
    const std::string trace_path = cfg.data_dir + "/trace_knn_paged.jsonl";
    const std::vector<Span> spans = tracer.spans();
    if (!tracer.WriteJsonl(trace_path, spans.empty() ? Clock::now()
                                                     : spans.front().start)) {
      return Status::Internal("cannot write " + trace_path);
    }
  }
  data.store->Close();
  std::remove(path.c_str());
  return out;
}

}  // namespace perfbench
