#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "common/simd_dispatch.h"
#include "storage/column_file.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using fuzzydb::Result;
using fuzzydb::Status;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_paged", "serve_ram",
                                                 "knn_paged"};
  return names;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
      {"throughput_qps", "1/s"}, {"success_rate", "ratio"},
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"sql.parse_us.p50", "us"},
        {"server.submit_self_ms.p50", "ms"},
        {"server.submit_self_ms.p90", "ms"},
        {"server.queue_wait_ms.p50", "ms"},
        {"server.queue_wait_ms.p90", "ms"},
        {"server.exec_ms.p50", "ms"},
        {"server.exec_ms.p90", "ms"},
        {"server.cache_hit_rate", "ratio"},
        {"server.reject_rate", "ratio"},
        {"server.generator_lag_ms.p90", "ms"},
        {"storage.source_build_ms.p50", "ms"},
        {"storage.source_builds_per_query", "count"},
        {"storage.pool_hit_rate", "ratio"},
        {"storage.disk_bytes_per_query", "B"},
        {"storage.evictions_per_query", "count"},
        {"storage.ingest_rows_per_s", "1/s"},
        {"storage.finish_s", "s"},
        {"storage.open_ms", "ms"},
        {"middleware.sorted_per_query.p50", "count"},
        {"middleware.random_per_query.p50", "count"},
    };
    for (const char* alg : {"ta", "nra", "naive", "fagin", "shortcut", "ca"}) {
      d.push_back({std::string("middleware.plan_share.") + alg, "ratio"});
      d.push_back({std::string("middleware.ns_per_access.") + alg, "ns"});
    }
    for (MetricDef m : std::vector<MetricDef>{
             {"middleware.theorem41_ratio", "ratio"},
             {"image.quantized_bytes_per_query", "B"},
             {"image.refine_bytes_per_query", "B"},
             {"image.candidates_refined_per_query", "count"},
             {"image.ns_per_row", "ns"},
             {"trace.overhead_frac", "ratio"}}) {
      d.push_back(std::move(m));
    }
    return d;
  }();
  return defs;
}

Result<RunResult> SelectMetrics(const RunResult& raw, bool trace) {
  for (const Metric& m : raw.metrics) {
    bool known = false;
    for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
      for (const MetricDef& d : *defs) {
        if (d.name == m.name && d.unit == m.unit) known = true;
      }
    }
    if (!known) {
      return Status::Internal("metric " + m.name + " [" + m.unit +
                              "] is not declared");
    }
  }
  RunResult out = raw;
  out.metrics.clear();
  for (const MetricDef& d : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const Metric* m = raw.Find(d.name);
    out.Add(d.name, m != nullptr ? m->value : 0.0, d.unit);
  }
  return out;
}

Result<RunResult> RunWorkload(const Config& config) {
  std::printf("host: %s\n", HostStamp().c_str());
  if (config.workload == "serve_paged") return RunServePaged(config);
  if (config.workload == "serve_ram") return RunServeRam(config);
  if (config.workload == "knn_paged") return RunKnnPaged(config);
  return Status::InvalidArgument("unknown workload '" + config.workload + "'");
}

std::string HostStamp() {
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " simd=" +
         std::string(fuzzydb::simd::Name(fuzzydb::simd::Active())) +
         " build=" + PERFBENCH_BUILD_TYPE;
}

const std::vector<double>& Spectrum() {
  static const std::vector<double> spectrum = [] {
    std::vector<double> s(kDim);
    for (size_t j = 0; j < kDim; ++j) {
      s[j] = std::exp(-0.09 * static_cast<double>(j));
    }
    return s;
  }();
  return spectrum;
}

std::vector<double> SpectrumVector(uint64_t seed, uint64_t index) {
  fuzzydb::Rng rng(seed * 0x9e3779b97f4a7c15ULL + index);
  const std::vector<double>& s = Spectrum();
  std::vector<double> v(kDim);
  for (size_t j = 0; j < kDim; ++j) v[j] = (2.0 * rng.NextDouble() - 1.0) * s[j];
  return v;
}

namespace {

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

}  // namespace

Result<Dataset> BuildDataset(const std::string& path, size_t rows,
                             size_t pool_bytes, uint64_t seed,
                             size_t repeats) {
  using fuzzydb::storage::ColumnFileOptions;
  using fuzzydb::storage::ColumnFileWriter;
  using fuzzydb::storage::PagedEmbeddingStore;
  using fuzzydb::storage::PagedStoreOptions;

  Dataset data;
  std::vector<double> totals, appends, finishes, opens;
  for (size_t r = 0; r < std::max<size_t>(repeats, 1); ++r) {
    if (data.store != nullptr) data.store->Close();
    data.store.reset();
    std::remove(path.c_str());

    ColumnFileOptions options;
    options.store_version = seed;
    options.metadata = Spectrum();
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<ColumnFileWriter>> writer =
        ColumnFileWriter::Create(path, kDim, options);
    if (!writer.ok()) return writer.status();
    for (size_t i = 0; i < rows; ++i) {
      FUZZYDB_RETURN_NOT_OK((*writer)->AppendRow(SpectrumVector(seed, i)));
    }
    const Clock::time_point t1 = Clock::now();
    FUZZYDB_RETURN_NOT_OK((*writer)->Finish());
    const Clock::time_point t2 = Clock::now();
    PagedStoreOptions store_options;
    store_options.pool_bytes = pool_bytes;
    Result<std::unique_ptr<PagedEmbeddingStore>> store =
        PagedEmbeddingStore::Open(path, store_options);
    if (!store.ok()) return store.status();
    data.store = std::move(store).value();
    const Clock::time_point t3 = Clock::now();

    appends.push_back(Seconds(t0, t1));
    finishes.push_back(Seconds(t1, t2));
    opens.push_back(Seconds(t2, t3));
    totals.push_back(Seconds(t0, t3));
  }
  data.setup_s = Median(totals);
  data.append_s = Median(appends);
  data.finish_s = Median(finishes);
  data.open_s = Median(opens);
  return data;
}

}  // namespace perfbench
