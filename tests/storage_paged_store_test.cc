// Paged-store equivalence tests (DESIGN §3k): the acceptance criterion of
// the storage engine is that at every page size × pool size × shard count,
// the disk-backed store answers bit-identically to the RAM store built by
// ImageStore::Generate from the same seed. AuditPagingEquivalence does the
// exhaustive comparison; this file sweeps it over the configuration matrix
// and covers the store-level lifecycle (version stamp, metadata, Close,
// LoadToMemory, eviction pressure).
//
// Set FUZZYDB_STORAGE_STRESS=1 to widen the sweep (more pool sizes, more
// targets) — the ASan verify leg runs with it on.

#include "storage/paged_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "analysis/storage_audit.h"
#include "image/image_store.h"
#include "storage/column_file.h"
#include "storage/ingest.h"
#include "tests/full_sort_cascade.h"

namespace fuzzydb {
namespace storage {
namespace {

ImageStoreOptions SmallCollection() {
  ImageStoreOptions options;
  options.num_images = 400;
  options.palette_size = 16;
  options.seed = 20230807;
  options.tune_cascade = false;  // tuning changes costs, never answers
  return options;
}

bool StressMode() {
  const char* env = std::getenv("FUZZYDB_STORAGE_STRESS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "paged_" + name + ".fzdb";
}

// One ingest per page size, reused across pool configurations.
struct Fixture {
  ImageStore ram;
  IngestedCollection ingested;
  std::string path;
};

Fixture MakeFixture(const std::string& name, size_t page_bytes) {
  const ImageStoreOptions options = SmallCollection();
  Result<ImageStore> ram = ImageStore::Generate(options);
  EXPECT_TRUE(ram.ok()) << ram.status().ToString();
  ColumnFileOptions file_options;
  file_options.page_bytes = page_bytes;
  file_options.store_version = 42;
  const std::string path = TestPath(name);
  Result<IngestedCollection> ingested =
      IngestGeneratedCollection(options, path, file_options);
  EXPECT_TRUE(ingested.ok()) << ingested.status().ToString();
  return Fixture{std::move(ram).value(), std::move(ingested).value(), path};
}

StorageAuditOptions AuditOptions(const ImageStore& ram) {
  StorageAuditOptions options;
  const size_t probes = StressMode() ? 6 : 3;
  for (size_t t = 0; t < probes; ++t) {
    const size_t i = (t * 131) % ram.size();
    options.targets.push_back(
        ram.color_distance().Embed(ram.image(i).histogram));
  }
  options.k = 10;
  options.shard_counts = {2, 3};
  return options;
}

TEST(PagedStoreTest, BitIdenticalAcrossPageAndPoolSizes) {
  const std::vector<size_t> page_sizes = {4096, 64 * 1024};
  for (size_t page_bytes : page_sizes) {
    Fixture fx = MakeFixture("sweep_" + std::to_string(page_bytes), page_bytes);
    const StorageAuditOptions audit = AuditOptions(fx.ram);

    // Pool caps: tiny (4 pages — smaller than the file, so the scan
    // evicts) and default (everything fits). Stress adds an in-between.
    std::vector<size_t> pool_bytes = {4 * page_bytes, 256ull * 1024 * 1024};
    if (StressMode()) pool_bytes.insert(pool_bytes.begin() + 1, 8 * page_bytes);

    for (size_t pool_cap : pool_bytes) {
      SCOPED_TRACE("page_bytes=" + std::to_string(page_bytes) +
                   " pool_bytes=" + std::to_string(pool_cap));
      PagedStoreOptions store_options;
      store_options.pool_bytes = pool_cap;
      Result<std::unique_ptr<PagedEmbeddingStore>> paged =
          PagedEmbeddingStore::Open(fx.path, store_options);
      ASSERT_TRUE(paged.ok()) << paged.status().ToString();

      AuditReport report =
          AuditPagingEquivalence(**paged, fx.ram.embeddings(), audit);
      EXPECT_TRUE(report.ok()) << report.ToString();

      if (pool_cap == 4 * page_bytes && page_bytes == 4096) {
        // The tiny pool genuinely paged: the file is 13 pages, the pool 4.
        BufferPoolStats s = (*paged)->pool_stats();
        EXPECT_GT(s.evictions, 0u);
        EXPECT_GT(s.bytes_read_disk, 0u);
      }
    }
    std::remove(fx.path.c_str());
  }
}

TEST(PagedStoreTest, VersionAndMetadataSurviveTheRoundTrip) {
  Fixture fx = MakeFixture("meta", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ((*paged)->version(), 42u);
  // The eigenbasis spectrum rides in the file's metadata block.
  EXPECT_EQ((*paged)->metadata(), fx.ram.color_distance().eigenvalues());
  EXPECT_EQ((*paged)->size(), fx.ram.size());
  EXPECT_EQ((*paged)->dim(), fx.ram.embeddings().dim());
  EXPECT_TRUE((*paged)->has_quantized());
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, SingleRowDistanceMatchesRam) {
  Fixture fx = MakeFixture("probe", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(5).histogram);
  std::vector<double> expected(fx.ram.size());
  fx.ram.embeddings().BatchDistances(target, expected);
  for (size_t i : {size_t{0}, size_t{5}, size_t{131}, fx.ram.size() - 1}) {
    Result<double> d = (*paged)->Distance(target, i);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(*d, expected[i]) << "row " << i;
  }
  EXPECT_EQ((*paged)->Distance(target, fx.ram.size()).status().code(),
            StatusCode::kOutOfRange);
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, LoadToMemoryReconstitutesTheRamStore) {
  Fixture fx = MakeFixture("load", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  Result<EmbeddingStore> loaded = (*paged)->LoadToMemory();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The materialized store is itself a valid RAM reference: auditing the
  // paged store against it closes the loop disk → RAM → disk.
  AuditReport report =
      AuditPagingEquivalence(**paged, *loaded, AuditOptions(fx.ram));
  EXPECT_TRUE(report.ok()) << report.ToString();
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, WarmCascadeReadsZeroDiskBytesAtLevelMinusOne) {
  Fixture fx = MakeFixture("warm", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);  // default pool: whole file fits
  ASSERT_TRUE(paged.ok());
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(9).histogram);
  CascadeOptions cascade;
  cascade.use_quantized = true;
  // Cold query faults in whatever survivor pages it needs.
  CascadeStats cold;
  ASSERT_TRUE((*paged)->CascadeKnn(target, 10, cascade, &cold).ok());
  // Warm repeat of the same query: the int8 level is RAM-resident and the
  // survivor pages are retained, so zero bytes come off disk.
  CascadeStats warm;
  ASSERT_TRUE((*paged)->CascadeKnn(target, 10, cascade, &warm).ok());
  EXPECT_EQ(warm.bytes_read_disk, 0u);
  EXPECT_EQ(warm.buffer_pool_misses, 0u);
  EXPECT_GT(warm.buffer_pool_hits, 0u);
  EXPECT_GT(cold.bytes_read_disk, 0u);
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, QueriesAfterCloseFailCleanly) {
  Fixture fx = MakeFixture("close", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  const std::vector<double> target(
      (*paged)->dim(), 0.25);
  (*paged)->Close();
  std::vector<double> out((*paged)->size());
  EXPECT_EQ((*paged)->BatchDistances(target, out).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*paged)->ExactKnn(target, 5).status().code(),
            StatusCode::kFailedPrecondition);
  (*paged)->Close();  // idempotent
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, QuantizedTierCanBeDisabledAtOpen) {
  Fixture fx = MakeFixture("noquant", 4096);
  PagedStoreOptions options;
  options.load_quantized = false;
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path, options);
  ASSERT_TRUE(paged.ok());
  EXPECT_FALSE((*paged)->has_quantized());
  // Cascade still answers (it degrades to the float levels) and still
  // matches exact.
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(3).histogram);
  auto exact = (*paged)->ExactKnn(target, 10);
  auto cascade = (*paged)->CascadeKnn(target, 10);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(cascade.ok());
  EXPECT_EQ(*exact, *cascade);
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, WindowedSelectionKeepsFullSortStats) {
  // 10^5 rows with a decaying spectrum behind a pool ~6x smaller than the
  // file. A top-10 walk orders a short prefix of each shard's candidates,
  // and every walk counter equals the fully sorted walk's.
  constexpr size_t kN = 100000;
  constexpr size_t kDim = 32;
  constexpr size_t kK = 10;
  const std::string path = TestPath("selection");
  {
    Result<std::unique_ptr<ColumnFileWriter>> writer =
        ColumnFileWriter::Create(path, kDim);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    Rng rng(2027);
    std::vector<double> row(kDim);
    for (size_t i = 0; i < kN; ++i) {
      double scale = 1.0;
      for (size_t j = 0; j < kDim; ++j, scale *= 0.85) {
        row[j] = scale * rng.NextGaussian();
      }
      ASSERT_TRUE((*writer)->AppendRow(row).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  PagedStoreOptions store_options;
  store_options.pool_bytes = 4ull * 1024 * 1024;
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(path, store_options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  Result<EmbeddingStore> ram = (*paged)->LoadToMemory();
  ASSERT_TRUE(ram.ok());
  const auto row = [&ram](size_t i) { return ram->Row(i).data(); };

  Rng rng(7);
  for (int q = 0; q < 2; ++q) {
    std::span<const double> near = ram->Row(rng.NextBounded(kN));
    std::vector<double> target(near.begin(), near.end());
    for (double& x : target) x += 0.05 * rng.NextGaussian();
    for (bool quantized : {true, false}) {
      for (size_t shards : {size_t{1}, size_t{4}}) {
        CascadeOptions options;
        options.use_quantized = quantized;
        CascadeStats stats;
        Result<std::vector<std::pair<size_t, double>>> got =
            (*paged)->CascadeKnn(target, kK, options, &stats, nullptr, shards);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, ram->ExactKnn(target, kK));
        testing_oracle::ExpectWalkFieldsEqual(
            stats, testing_oracle::FullSortStats(
                       row, kN, target, kK, options,
                       quantized ? &ram->quantized() : nullptr, shards));
        EXPECT_GE(stats.bounds_ordered, stats.candidates_refined);
        EXPECT_LE(stats.bounds_ordered * 10, kN) << "shards " << shards;
      }
    }
  }
  (*paged)->Close();
  std::remove(path.c_str());
}

TEST(PagedStoreTest, StreamingWindowRefillsAndKeepsFullSortWalk) {
  // The RAM store's selection-shape sweep, behind a pool smaller than the
  // file: refilled windows re-read paged rows in float mode.
  constexpr size_t kDim = 24;
  // Whether one shard's walk must outrun its first window (it holds at
  // most 2W - 1 pairs), must not, or may.
  enum Refill { kMust, kNever, kMay };
  struct Case {
    const char* kind;
    size_t n;
    size_t k;
    Refill refill;
  };
  const Case cases[] = {
      {"random", 6000, 2500, kMust},    {"identical", 3000, 1500, kMust},
      {"prefix", 3000, 10, kMust},
      {"plateau", 4000, 10, kMay},      {"plateau", 6000, 2500, kMust},
      {"random", 300, 300, kNever},     {"random", 3000, 3000, kMust},
  };
  Rng rng(93);
  for (const Case& c : cases) {
    const std::string path = TestPath(std::string("stream_") + c.kind);
    const std::vector<std::vector<double>> rows =
        testing_oracle::SelectionRows(c.kind, c.n, kDim, 2029);
    {
      Result<std::unique_ptr<ColumnFileWriter>> writer =
          ColumnFileWriter::Create(path, kDim);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      for (const std::vector<double>& row : rows) {
        ASSERT_TRUE((*writer)->AppendRow(row).ok());
      }
      ASSERT_TRUE((*writer)->Finish().ok());
    }
    PagedStoreOptions store_options;
    store_options.pool_bytes = 256ull * 1024;
    Result<std::unique_ptr<PagedEmbeddingStore>> paged =
        PagedEmbeddingStore::Open(path, store_options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    Result<EmbeddingStore> ram = (*paged)->LoadToMemory();
    ASSERT_TRUE(ram.ok());
    const auto row = [&ram](size_t i) { return ram->Row(i).data(); };
    std::vector<double> target = rows[rng.NextBounded(c.n)];
    for (double& x : target) {
      if (x != 0.0) x += 0.05 * rng.NextGaussian();  // zeros stay zero
    }
    const std::vector<std::pair<size_t, double>> exact =
        ram->ExactKnn(target, c.k);
    for (bool quantized : {true, false}) {
      for (size_t shards : {size_t{1}, size_t{3}}) {
        SCOPED_TRACE(std::string(c.kind) + " n=" + std::to_string(c.n) +
                     " k=" + std::to_string(c.k) + " quantized=" +
                     std::to_string(quantized) +
                     " shards=" + std::to_string(shards));
        CascadeOptions options;
        options.use_quantized = quantized;
        CascadeStats stats;
        Result<std::vector<std::pair<size_t, double>>> got =
            (*paged)->CascadeKnn(target, c.k, options, &stats, nullptr,
                                 shards);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(*got, exact);
        const size_t rescanned = testing_oracle::ExpectStreamingStats(
            stats, row, c.n, target, c.k, options,
            quantized ? &ram->quantized() : nullptr, shards);
        if (c.refill == kMust && shards == 1) {
          EXPECT_GT(rescanned, 0u);
        }
        if (c.refill == kNever) {
          EXPECT_EQ(rescanned, 0u);
        }
      }
    }
    (*paged)->Close();
    std::remove(path.c_str());
  }
}


TEST(PagedStoreTest, PrefixScreenKeepsFullSortWalk) {
  // The RAM store's screened sweep behind a pool smaller than the file:
  // n well past 2W, k = 10 and k > 2W, shards 1 and 3.
  constexpr size_t kN = 20000;
  constexpr size_t kDim = 64;
  const std::string path = TestPath("screen");
  const std::vector<std::vector<double>> rows =
      testing_oracle::SelectionRows("random", kN, kDim, 2031);
  {
    Result<std::unique_ptr<ColumnFileWriter>> writer =
        ColumnFileWriter::Create(path, kDim);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::vector<double>& row : rows) {
      ASSERT_TRUE((*writer)->AppendRow(row).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  PagedStoreOptions store_options;
  store_options.pool_bytes = 1ull << 20;
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(path, store_options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  Result<EmbeddingStore> ram = (*paged)->LoadToMemory();
  ASSERT_TRUE(ram.ok());
  const auto row = [&ram](size_t i) { return ram->Row(i).data(); };
  Rng rng(97);
  for (size_t k : {size_t{10}, size_t{2500}}) {
    std::vector<double> target = rows[rng.NextBounded(kN)];
    for (double& x : target) x += 0.05 * rng.NextGaussian();
    const std::vector<std::pair<size_t, double>> exact =
        ram->ExactKnn(target, k);
    for (size_t shards : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " shards=" + std::to_string(shards));
      CascadeOptions options;
      CascadeStats stats;
      Result<std::vector<std::pair<size_t, double>>> got =
          (*paged)->CascadeKnn(target, k, options, &stats, nullptr, shards);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(*got, exact);
      testing_oracle::ExpectStreamingStats(stats, row, kN, target, k, options,
                                           &ram->quantized(), shards);
      EXPECT_LE(stats.candidates_refined, stats.quantized_full_bounds);
      EXPECT_LT(stats.quantized_full_bounds,
                stats.quantized_bound_computations);
    }
  }
  (*paged)->Close();
  std::remove(path.c_str());
}

TEST(PagedStoreTest, AuditCatchesADivergingScreen) {
  // A RAM store whose int8 tier differs from the file's only in one far
  // row's residual: the row's values move within their quantization cells
  // (same codes, same scales), which raises the largest residual and so
  // weakens the RAM store's block-0 screen. The two walks stay equal —
  // the row is never a candidate — so only the screen's counters can tell
  // the stores apart, and the audit must.
  constexpr size_t kN = 20000;
  constexpr size_t kDim = 32;
  const std::string path = TestPath("screen_audit");
  const std::vector<std::vector<double>> rows =
      testing_oracle::SelectionRows("random", kN, kDim, 2033);
  {
    Result<std::unique_ptr<ColumnFileWriter>> writer =
        ColumnFileWriter::Create(path, kDim);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::vector<double>& row : rows) {
      ASSERT_TRUE((*writer)->AppendRow(row).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const QuantizedStore& qs = (*paged)->quantized();

  std::vector<double> target = rows[0];
  Rng rng(99);
  for (double& x : target) x += 0.05 * rng.NextGaussian();
  // The farthest row that holds no block's largest magnitude, so moving
  // its values toward their codes' cell edges keeps every scale.
  std::vector<double> block_max(QuantizedStore::NumBlocks(kDim), 0.0);
  for (const std::vector<double>& row : rows) {
    for (size_t j = 0; j < kDim; ++j) {
      double& m = block_max[j / QuantizedStore::kBlockDim];
      m = std::max(m, std::fabs(row[j]));
    }
  }
  size_t far = 0;
  double far_d2 = -1.0;
  for (size_t i = 0; i < kN; ++i) {
    bool holds_max = false;
    double d2 = 0.0;
    for (size_t j = 0; j < kDim; ++j) {
      holds_max |= std::fabs(rows[i][j]) ==
                   block_max[j / QuantizedStore::kBlockDim];
      d2 += (rows[i][j] - target[j]) * (rows[i][j] - target[j]);
    }
    if (!holds_max && d2 > far_d2) {
      far = i;
      far_d2 = d2;
    }
  }
  std::vector<int8_t> codes(qs.padded_dim());
  qs.CopyRowCodes(far, codes);
  EmbeddingStore ram(kN, kDim);
  for (size_t i = 0; i < kN; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), ram.MutableRow(i).begin());
  }
  for (size_t j = 0; j < kDim; ++j) {
    const double s = qs.scale(j / QuantizedStore::kBlockDim);
    const double q = codes[j];
    const double edge = q > 0 ? q - 0.49 : q < 0 ? q + 0.49 : 0.49;
    ram.MutableRow(far)[j] = edge * s;
  }
  ram.BuildQuantized();
  std::vector<int8_t> ram_codes(qs.padded_dim());
  ram.quantized().CopyRowCodes(far, ram_codes);
  ASSERT_EQ(ram_codes, codes);
  const auto largest = [](std::span<const double> v) {
    return *std::max_element(v.begin(), v.end());
  };
  ASSERT_GT(largest(ram.quantized().residuals()), largest(qs.residuals()));

  CascadeStats ram_stats;
  CascadeStats paged_stats;
  Result<std::vector<std::pair<size_t, double>>> paged_knn =
      (*paged)->CascadeKnn(target, 10, {}, &paged_stats);
  ASSERT_TRUE(paged_knn.ok()) << paged_knn.status().ToString();
  ASSERT_EQ(ram.CascadeKnn(target, 10, {}, &ram_stats), *paged_knn);
  EXPECT_EQ(ram_stats.candidates_refined, paged_stats.candidates_refined);
  EXPECT_EQ(ram_stats.dims_accumulated, paged_stats.dims_accumulated);
  EXPECT_NE(ram_stats.quantized_full_bounds,
            paged_stats.quantized_full_bounds);

  StorageAuditOptions audit;
  audit.targets = {target};
  const AuditReport report = AuditPagingEquivalence(**paged, ram, audit);
  bool caught = false;
  for (const AuditFinding& finding : report.findings()) {
    caught |= finding.contract == "cascade-work";
  }
  EXPECT_TRUE(caught) << report.ToString();
  (*paged)->Close();
  std::remove(path.c_str());
}
}  // namespace
}  // namespace storage
}  // namespace fuzzydb
