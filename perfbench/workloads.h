// The three perfbench workloads and what they share: the run
// configuration, the synthetic column-file dataset, and the host stamp.
// See README.md for why each workload exists and which layer it loads.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"
#include "storage/paged_store.h"

namespace perfbench {

/// Everything one run needs. The defaults are the benchmark's definition;
/// the self-tests shrink the sizes.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time; the serve workloads split it between an open-loop and
  /// a closed-loop phase, and a traced run splits it again between an
  /// untraced and a traced pass.
  double seconds = 30.0;
  bool trace = false;
  /// Where column files and the span dump go (inside the checkout).
  std::string data_dir = ".";
  /// Executors of the query pool (the submitting or calling thread is one
  /// of them); 0 = hardware concurrency.
  size_t executors = 0;

  // serve_paged: rows x 64 dims behind a pool 8x smaller than the file.
  size_t paged_rows = 100'000;
  size_t paged_pool_bytes = 100'000 * 512 / 8;
  /// Fixed open-loop rates (queries/s). serve_paged's is about 30% of its
  /// closed-loop throughput on the 4-core reference host (README.md says
  /// why not half). Never derived from the build under test.
  double paged_rate_qps = 6.5;

  // serve_ram: IndependentUniform lists of this many objects, m = 3, in
  // several datasets per run so one draw's plan depths do not decide it.
  size_t ram_rows = 10'000;
  size_t ram_datasets = 16;
  double ram_rate_qps = 20.0;
  /// Per-query source sets prepared per dataset during set-up, recycled.
  size_t ram_contexts_per_dataset = 3;

  // knn_paged: rows x 64 dims behind a 64 MB pool.
  size_t knn_rows = 1'000'000;
  size_t knn_pool_bytes = 64ull << 20;
  /// Distinct query-by-example targets, cycled through the closed loop.
  size_t knn_targets = 8;

  /// Set-ups per run; setup_s is their median.
  size_t setup_repeats = 3;
  /// Self-test hook: perturb one reference answer so the gate must fail.
  bool corrupt_reference = false;
};

/// Every workload the benchmark can run. BENCHMARK.json lists the gated
/// ones; README.md says why serve_ram is not among them.
const std::vector<std::string>& WorkloadNames();

/// A reported metric's name and unit, as BENCHMARK.json lists it.
struct MetricDef {
  std::string name;
  std::string unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// `raw` restricted to the end-to-end metrics (trace off) or the per-layer
/// metrics (trace on), in list order; a metric the workload does not
/// exercise reads 0. Any metric `raw` carries outside both lists, or with
/// another unit, is a programming error reported as Internal.
fuzzydb::Result<RunResult> SelectMetrics(const RunResult& raw, bool trace);

/// Runs `config.workload`; InvalidArgument for an unknown name, any setup
/// failure as its Status. Prints human-readable lines to stdout.
fuzzydb::Result<RunResult> RunWorkload(const Config& config);

/// "nproc=4 simd=avx512vnni build=Release" — printed with every run.
std::string HostStamp();

// -------------------------------------------------- shared with workloads --

constexpr size_t kDim = 64;

/// Per-dimension scales decaying like an eigenbasis spectrum (as E23's
/// generator), so the cascade's prefix bounds have the structure they
/// were built for.
const std::vector<double>& Spectrum();

/// A seeded decaying-spectrum row or target.
std::vector<double> SpectrumVector(uint64_t seed, uint64_t index);

/// A column file of synthetic rows, opened behind a buffer pool, with its
/// set-up timings: medians over the repeated builds.
struct Dataset {
  std::unique_ptr<fuzzydb::storage::PagedEmbeddingStore> store;
  double append_s = 0.0;  ///< AppendRow loop, row generation included.
  double finish_s = 0.0;
  double open_s = 0.0;
  double setup_s = 0.0;   ///< Median of append + finish + open.
};

/// Streams `rows` rows of SpectrumVector(seed, i) through ColumnFileWriter
/// into `path`, finishes it, and opens it behind `pool_bytes`; repeated
/// `repeats` times (each rewrite replaces the file), keeping the last.
fuzzydb::Result<Dataset> BuildDataset(const std::string& path, size_t rows,
                                      size_t pool_bytes, uint64_t seed,
                                      size_t repeats);

/// Serve workloads (serve.cc) and the kNN workload (knn.cc).
fuzzydb::Result<RunResult> RunServePaged(const Config& config);
fuzzydb::Result<RunResult> RunServeRam(const Config& config);
fuzzydb::Result<RunResult> RunKnnPaged(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
