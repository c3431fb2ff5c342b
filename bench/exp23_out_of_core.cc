// E23 — the out-of-core storage engine at scale (DESIGN §3k): a 10M-row
// column file (2.56 GB of float rows) served through a 256 MB buffer pool,
// an order of magnitude more data than RAM budget. Three claims, measured:
//
//   1. Tier asymmetry: with the RAM-resident int8 level −1 on, a cascade
//      query's disk traffic is survivor pages only — warm repeats read
//      *zero* disk bytes. With the tier off, every query streams the whole
//      float file through the pool. Same answers either way.
//   2. Bounded residency: peak RSS stays far below the file size — the
//      process never holds the float matrix (checked with getrusage, and
//      the run aborts if residency reaches the file size).
//   3. Pool behavior: the clock pool's hit rate against a Zipfian page
//      workload climbs with capacity along the classic concave curve —
//      measured on a real file, not simulated.
//
// Ingestion streams synthetic decaying-spectrum rows straight to the
// writer (constant memory; image generation at 10M rows would dominate the
// run on one core without exercising storage any harder).
//
// FUZZYDB_SMOKE=1 shrinks to a seconds-long pass (small N, tiny pool) that
// still pages; results land in BENCH_storage.json either way.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/simd_dispatch.h"
#include "storage/buffer_pool.h"
#include "storage/column_file.h"
#include "storage/paged_store.h"

namespace fuzzydb {
namespace {

using storage::BufferPool;
using storage::BufferPoolOptions;
using storage::BufferPoolStats;
using storage::ColumnFile;
using storage::ColumnFileOptions;
using storage::ColumnFileWriter;
using storage::PagedEmbeddingStore;
using storage::PagedStoreOptions;

constexpr uint64_t kSeed = 20260807;
constexpr size_t kDim = 32;  // stride 32 doubles = 256 B/row
constexpr size_t kK = 10;

struct Config {
  size_t n = 10'000'000;                      // 2.56 GB of rows
  size_t pool_bytes = 256ull * 1024 * 1024;   // 1/10 of the file
  size_t page_bytes = 64 * 1024;
  int int8_queries = 8;
  int float_queries = 2;  // each one streams the whole file
  size_t zipf_rows = 200'000;
  size_t zipf_probes = 50'000;
  bool smoke = false;
};

Config MakeConfig() {
  Config c;
  if (std::getenv("FUZZYDB_SMOKE") != nullptr) {
    c.smoke = true;
    c.n = 150'000;                 // 38 MB file...
    c.pool_bytes = 4 * 1024 * 1024;  // ...through a 4 MB pool: still pages
    c.int8_queries = 3;
    c.float_queries = 1;
    c.zipf_rows = 40'000;
    c.zipf_probes = 8'000;
  }
  return c;
}

// The synthetic spectrum: per-dimension scales decaying like an eigenbasis
// embedding's, so the cascade's prefix bounds have the structure they were
// built for.
std::vector<double> Spectrum() {
  std::vector<double> s(kDim);
  for (size_t j = 0; j < kDim; ++j) s[j] = std::exp(-0.18 * static_cast<double>(j));
  return s;
}

// Streams n decaying-spectrum rows into a column file. Constant memory:
// one row + one page + the writer's running quantization maxima.
double StreamRows(const std::string& path, size_t n, size_t page_bytes,
                  uint64_t seed) {
  ColumnFileOptions options;
  options.page_bytes = page_bytes;
  options.store_version = 23;
  options.metadata = Spectrum();
  auto writer =
      CheckedValue(ColumnFileWriter::Create(path, kDim, options), "E23 writer");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const std::vector<double> spectrum = Spectrum();
  std::vector<double> row(kDim);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kDim; ++j) row[j] = unit(rng) * spectrum[j];
    CheckOk(writer->AppendRow(row), "E23 append");
  }
  CheckOk(writer->Finish(), "E23 finish");
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0)
             .count() /
         1000.0;
}

std::vector<std::vector<double>> MakeTargets(int count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const std::vector<double> spectrum = Spectrum();
  std::vector<std::vector<double>> targets(count, std::vector<double>(kDim));
  for (auto& t : targets) {
    for (size_t j = 0; j < kDim; ++j) t[j] = unit(rng) * spectrum[j];
  }
  return targets;
}

// Column files go to the system temp directory (TMPDIR when set).
std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

double PeakRssBytes() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KB on Linux
}

struct QueryPoint {
  double cold_ms = 0;
  double warm_ms = 0;
  CascadeStats cold;
  CascadeStats warm;
};

double Ms(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count() /
         1000.0;
}

// Runs each target cold (first touch) then warm (immediate repeat), with
// per-query pool-delta stats from the store itself.
std::vector<QueryPoint> RunQueries(const PagedEmbeddingStore& store,
                                   const std::vector<std::vector<double>>& ts,
                                   bool use_quantized) {
  CascadeOptions options;
  options.use_quantized = use_quantized;
  std::vector<QueryPoint> points;
  points.reserve(ts.size());
  for (const std::vector<double>& target : ts) {
    QueryPoint p;
    auto a = std::chrono::steady_clock::now();
    auto cold = store.CascadeKnn(target, kK, options, &p.cold);
    auto b = std::chrono::steady_clock::now();
    auto warm = store.CascadeKnn(target, kK, options, &p.warm);
    auto c = std::chrono::steady_clock::now();
    CheckOk(cold.status(), "E23 cold cascade");
    CheckOk(warm.status(), "E23 warm cascade");
    if (*cold != *warm) {
      std::cerr << "E23: cold and warm answers diverged\n";
      std::abort();
    }
    p.cold_ms = Ms(a, b);
    p.warm_ms = Ms(b, c);
    points.push_back(p);
  }
  return points;
}

struct Aggregate {
  double cold_ms = 0, warm_ms = 0;
  // The warm query's phase split, from the kernel's own clocks.
  double warm_scan_ms = 0, warm_select_ms = 0, warm_refine_ms = 0;
  double cold_disk_bytes = 0, warm_disk_bytes = 0;
  double cold_hits = 0, cold_misses = 0, warm_hits = 0, warm_misses = 0;
  double warm_evictions = 0;
  // Rows the int8 scan read and, of them, those its block-0 prefix screen
  // passed to the full bound (DESIGN §3g); both 0 with the tier off.
  double warm_int8_rows = 0, warm_full_bounds = 0;
};

// The share of int8-scanned rows the prefix screen dismissed on block 0.
double ScreenedFraction(const Aggregate& a) {
  return a.warm_int8_rows == 0
             ? 0.0
             : 1.0 - a.warm_full_bounds / a.warm_int8_rows;
}

Aggregate Summarize(const std::vector<QueryPoint>& points) {
  Aggregate agg;
  const double q = static_cast<double>(points.size());
  for (const QueryPoint& p : points) {
    agg.cold_ms += p.cold_ms / q;
    agg.warm_ms += p.warm_ms / q;
    agg.warm_scan_ms += p.warm.scan_ms / q;
    agg.warm_select_ms += p.warm.select_ms / q;
    agg.warm_refine_ms += p.warm.refine_ms / q;
    agg.cold_disk_bytes += static_cast<double>(p.cold.bytes_read_disk) / q;
    agg.warm_disk_bytes += static_cast<double>(p.warm.bytes_read_disk) / q;
    agg.cold_hits += static_cast<double>(p.cold.buffer_pool_hits) / q;
    agg.cold_misses += static_cast<double>(p.cold.buffer_pool_misses) / q;
    agg.warm_hits += static_cast<double>(p.warm.buffer_pool_hits) / q;
    agg.warm_misses += static_cast<double>(p.warm.buffer_pool_misses) / q;
    agg.warm_evictions += static_cast<double>(p.warm.buffer_pool_evictions) / q;
    agg.warm_int8_rows +=
        static_cast<double>(p.warm.quantized_bound_computations) / q;
    agg.warm_full_bounds +=
        static_cast<double>(p.warm.quantized_full_bounds) / q;
  }
  return agg;
}

double HitRate(double hits, double misses) {
  const double total = hits + misses;
  return total == 0 ? 1.0 : hits / total;
}

struct ZipfPoint {
  size_t pool_bytes;
  double hit_rate;
  double evictions;
};

// Zipfian page probes against a real file through pools of growing
// capacity: the clock sweep's hit rate must climb concavely toward 1.
std::vector<ZipfPoint> ZipfCurve(const std::string& path, const Config& cfg) {
  auto file = CheckedValue(ColumnFile::Open(path), "E23 zipf open");
  const uint64_t pages = file->num_pages();
  // Zipf(s=1.1) over pages, deterministic probe sequence shared by every
  // pool size so the curves are comparable point for point.
  std::vector<double> weights(pages);
  for (uint64_t p = 0; p < pages; ++p) {
    weights[p] = 1.0 / std::pow(static_cast<double>(p + 1), 1.1);
  }
  std::mt19937_64 rng(kSeed ^ 0x51f);
  std::discrete_distribution<uint64_t> zipf(weights.begin(), weights.end());
  std::vector<uint64_t> probes(cfg.zipf_probes);
  for (uint64_t& p : probes) p = zipf(rng);

  std::vector<ZipfPoint> curve;
  for (size_t mb : {1, 2, 4, 8, 16, 32, 64}) {
    BufferPoolOptions options;
    options.page_bytes = file->page_bytes();
    options.capacity_pages =
        std::max<size_t>(1, mb * 1024 * 1024 / file->page_bytes());
    BufferPool pool(options, [&file](uint64_t page, std::span<char> dest) {
      return file->ReadPage(page, dest);
    });
    for (uint64_t p : probes) {
      auto h = pool.Fetch(p);
      CheckOk(h.status(), "E23 zipf fetch");
    }
    const BufferPoolStats s = pool.stats();
    curve.push_back({mb * 1024 * 1024,
                     HitRate(static_cast<double>(s.hits),
                             static_cast<double>(s.misses)),
                     static_cast<double>(s.evictions)});
    if (curve.size() > 1 &&
        curve.back().hit_rate + 1e-9 < curve[curve.size() - 2].hit_rate) {
      std::cerr << "E23: hit rate fell as the pool grew — eviction bug\n";
      std::abort();
    }
  }
  file->Close();
  return curve;
}

void PrintTables() {
  const Config cfg = MakeConfig();
  Banner("E23: out-of-core storage — " + std::to_string(cfg.n) +
         " rows x dim " + std::to_string(kDim) + " through a " +
         std::to_string(cfg.pool_bytes / (1024 * 1024)) + " MB pool" +
         (cfg.smoke ? " [smoke]" : ""));

  const std::string path = TempPath("fuzzydb_e23.fzdb");
  const std::string zipf_path = TempPath("fuzzydb_e23_zipf.fzdb");
  const double ingest_s = StreamRows(path, cfg.n, cfg.page_bytes, kSeed);
  const double file_bytes =
      static_cast<double>(cfg.n) * kDim * sizeof(double);
  std::cout << "ingest: " << TablePrinter::Num(ingest_s, 2) << " s streamed ("
            << TablePrinter::Num(file_bytes / 1e9, 2)
            << " GB of rows written + one re-read pass for the int8 tier), "
               "constant memory.\n";

  PagedStoreOptions store_options;
  store_options.pool_bytes = cfg.pool_bytes;
  auto store = CheckedValue(PagedEmbeddingStore::Open(path, store_options),
                            "E23 open");

  const std::vector<std::vector<double>> int8_targets =
      MakeTargets(cfg.int8_queries, kSeed ^ 1);
  const std::vector<std::vector<double>> float_targets =
      MakeTargets(cfg.float_queries, kSeed ^ 2);

  const std::vector<QueryPoint> int8_points =
      RunQueries(*store, int8_targets, /*use_quantized=*/true);
  // Peak residency through the int8 queries, before the float-only run
  // fills the pool: the RAM-resident tier plus whatever the queries
  // themselves allocate (per-shard selection scratch is O(window)).
  const double int8_rss = PeakRssBytes();
  const std::vector<QueryPoint> float_points =
      RunQueries(*store, float_targets, /*use_quantized=*/false);
  const Aggregate int8 = Summarize(int8_points);
  const Aggregate flt = Summarize(float_points);

  // The headline contract: the int8 level is RAM-resident, so a warm query
  // — survivors retained by the pool — reads nothing from disk at all.
  for (const QueryPoint& p : int8_points) {
    if (p.warm.bytes_read_disk != 0) {
      std::cerr << "E23: warm int8 cascade read "
                << p.warm.bytes_read_disk << " disk bytes (expected 0)\n";
      std::abort();
    }
  }

  TablePrinter table({"mode", "cold ms/q", "warm ms/q", "warm scan ms",
                      "warm select ms", "warm refine ms", "int8 screened",
                      "cold disk MB/q", "warm disk B/q",
                      "warm pool hit-rate"});
  auto add_row = [&table](const std::string& mode, const Aggregate& a) {
    table.AddRow({mode, TablePrinter::Num(a.cold_ms, 2),
                  TablePrinter::Num(a.warm_ms, 2),
                  TablePrinter::Num(a.warm_scan_ms, 2),
                  TablePrinter::Num(a.warm_select_ms, 3),
                  TablePrinter::Num(a.warm_refine_ms, 2),
                  TablePrinter::Num(ScreenedFraction(a), 4),
                  TablePrinter::Num(a.cold_disk_bytes / 1e6, 3),
                  TablePrinter::Num(a.warm_disk_bytes, 0),
                  TablePrinter::Num(HitRate(a.warm_hits, a.warm_misses), 4)});
  };
  add_row("cascade, int8 level -1 on", int8);
  add_row("cascade, float levels only", flt);
  table.Print();
  std::cout << "Expectation: the int8 run's disk traffic is survivor pages "
               "only (warm = 0 bytes, asserted above); the float-only run "
               "streams every row page through the pool on every query — "
               "the tier placement, measured.\n";

  const double rss = PeakRssBytes();
  std::cout << "peak RSS through the int8 queries "
            << TablePrinter::Num(int8_rss / 1e9, 3) << " GB (int8 tier "
            << TablePrinter::Num(
                   static_cast<double>(cfg.n) *
                       static_cast<double>(store->quantized().row_bytes()) /
                       1e9,
                   3)
            << " GB); overall peak RSS " << TablePrinter::Num(rss / 1e9, 3)
            << " GB vs "
            << TablePrinter::Num(file_bytes / 1e9, 3)
            << " GB of rows on disk.\n";
  if (!cfg.smoke && rss >= file_bytes) {
    std::cerr << "E23: peak RSS reached the file size — residency leak\n";
    std::abort();
  }

  Banner("E23b: clock-pool hit rate vs capacity (Zipf page probes)");
  StreamRows(zipf_path, cfg.zipf_rows, cfg.page_bytes, kSeed ^ 3);
  const std::vector<ZipfPoint> curve = ZipfCurve(zipf_path, cfg);
  TablePrinter ztable({"pool MB", "hit rate", "evictions"});
  for (const ZipfPoint& p : curve) {
    ztable.AddRow({std::to_string(p.pool_bytes / (1024 * 1024)),
                   TablePrinter::Num(p.hit_rate, 4),
                   TablePrinter::Num(p.evictions, 0)});
  }
  ztable.Print();
  std::cout << "Expectation: monotone concave climb (asserted monotone); a "
              "pool holding the Zipf head serves most probes from RAM.\n";

  const size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  JsonReport json;
  json.Set("bench", std::string("exp23_out_of_core"));
  json.Set("config.rows", cfg.n);
  json.Set("config.dim", kDim);
  json.Set("config.k", kK);
  json.Set("config.file_bytes", file_bytes);
  json.Set("config.pool_bytes", cfg.pool_bytes);
  json.Set("config.page_bytes", cfg.page_bytes);
  json.Set("config.smoke", cfg.smoke);
  json.Set("ingest.seconds", ingest_s);
  json.Set("ingest.rows_per_sec", static_cast<double>(cfg.n) / ingest_s);
  auto stamp = [&json](const std::string& prefix, const Aggregate& a) {
    json.Set(prefix + ".cold_ms_per_query", a.cold_ms);
    json.Set(prefix + ".warm_ms_per_query", a.warm_ms);
    json.Set(prefix + ".cold_disk_bytes_per_query", a.cold_disk_bytes);
    json.Set(prefix + ".warm_disk_bytes_per_query", a.warm_disk_bytes);
    json.Set(prefix + ".cold_pool_hit_rate",
             HitRate(a.cold_hits, a.cold_misses));
    json.Set(prefix + ".warm_pool_hit_rate",
             HitRate(a.warm_hits, a.warm_misses));
    json.Set(prefix + ".warm_pool_evictions_per_query", a.warm_evictions);
    json.Set(prefix + ".warm_scan_ms_per_query", a.warm_scan_ms);
    json.Set(prefix + ".warm_select_ms_per_query", a.warm_select_ms);
    json.Set(prefix + ".warm_refine_ms_per_query", a.warm_refine_ms);
    json.Set(prefix + ".warm_screened_fraction", ScreenedFraction(a));
  };
  stamp("int8_cascade", int8);
  stamp("float_cascade", flt);
  // Per-level bytes for the int8 run (RAM-view bytes touched per tier, plus
  // the disk bytes those touches actually cost through the pool).
  const double q = static_cast<double>(int8_points.size());
  double bq = 0, bp = 0, br = 0;
  for (const QueryPoint& p : int8_points) {
    bq += static_cast<double>(p.cold.bytes_scanned_quantized) / q;
    bp += static_cast<double>(p.cold.bytes_scanned_prefix) / q;
    br += static_cast<double>(p.cold.bytes_scanned_refine) / q;
  }
  json.Set("int8_cascade.bytes_quantized_per_query", bq);
  json.Set("int8_cascade.bytes_prefix_per_query", bp);
  json.Set("int8_cascade.bytes_refine_per_query", br);
  json.Set("rss.peak_bytes", rss);
  json.Set("rss.peak_after_int8_queries_bytes", int8_rss);
  json.Set("rss.peak_over_file", rss / file_bytes);
  for (const ZipfPoint& p : curve) {
    const std::string prefix =
        "zipf.pool_mb_" + std::to_string(p.pool_bytes / (1024 * 1024));
    json.Set(prefix + ".hit_rate", p.hit_rate);
    json.Set(prefix + ".evictions", p.evictions);
  }
  json.SetHostParallelism(hw);
  json.SetKernelDispatch(std::string(simd::Name(simd::Active())));
  json.WriteFileGuarded("BENCH_storage.json");

  store->Close();
  std::remove(path.c_str());
  std::remove(zipf_path.c_str());
}

// --- google-benchmark section: a small resident fixture so the timed loops
// measure steady-state paged queries, not ingestion. ---------------------

struct BmFixture {
  std::string path;
  std::unique_ptr<PagedEmbeddingStore> store;
  std::vector<std::vector<double>> targets;
};

BmFixture& SharedFixture() {
  static BmFixture* fx = [] {
    auto* f = new BmFixture();
    f->path = TempPath("fuzzydb_e23_bm.fzdb");
    StreamRows(f->path, 50'000, 64 * 1024, kSeed ^ 9);
    PagedStoreOptions options;
    options.pool_bytes = 4 * 1024 * 1024;  // smaller than the 12.8 MB file
    f->store = CheckedValue(PagedEmbeddingStore::Open(f->path, options),
                            "E23 bm open");
    f->targets = MakeTargets(16, kSeed ^ 10);
    return f;
  }();
  return *fx;
}

void BM_PagedCascadeKnnInt8(benchmark::State& state) {
  BmFixture& fx = SharedFixture();
  CascadeOptions options;
  options.use_quantized = true;
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->CascadeKnn(
        fx.targets[q++ % fx.targets.size()], kK, options));
  }
}
BENCHMARK(BM_PagedCascadeKnnInt8)->Unit(benchmark::kMicrosecond);

void BM_PagedExactKnn(benchmark::State& state) {
  BmFixture& fx = SharedFixture();
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.store->ExactKnn(fx.targets[q++ % fx.targets.size()], kK));
  }
}
BENCHMARK(BM_PagedExactKnn)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
