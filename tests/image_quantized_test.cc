// The quantized tier's two load-bearing claims, tested directly:
//
//  1. Admissibility by construction — QuantizedStore::LowerBound2 never
//     exceeds the exact squared embedding distance, for every (query, row)
//     pair, at zero tolerance. Not statistically: the bound carries its own
//     safety margin, so a single overshoot is a bug.
//  2. Answer preservation — CascadeKnn with the int8 level -1 engaged is
//     bit-identical to ExactKnn (same indices, same order, same distance
//     bits) at every shard count, under tie storms, and on adversarially
//     scaled data.

#include "image/quantized_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "common/squared_distance.h"
#include "image/embedding_store.h"
#include "image/quadratic_distance.h"

namespace fuzzydb {
namespace {

std::vector<Histogram> RandomDatabase(Rng* rng, size_t n, size_t bins) {
  std::vector<Histogram> db;
  db.reserve(n);
  for (size_t i = 0; i < n; ++i) db.push_back(RandomHistogram(rng, bins));
  return db;
}

double ExactSquared(const EmbeddingStore& store, size_t i,
                    std::span<const double> target) {
  SquaredDistanceAccumulator acc;
  acc.Accumulate(store.Row(i).data(), target.data(), 0, store.dim());
  return acc.Total();
}

std::vector<size_t> ShardCounts() {
  return {1, 2, 7, std::max<size_t>(1, std::thread::hardware_concurrency())};
}

void ExpectIdentical(const std::vector<std::pair<size_t, double>>& got,
                     const std::vector<std::pair<size_t, double>>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << label << " rank " << i;
    EXPECT_EQ(got[i].second, want[i].second) << label << " rank " << i;
  }
}

TEST(QuantizedStoreTest, LowerBoundIsAdmissibleForEveryPairAcrossBinCounts) {
  Rng rng(6007);
  for (size_t bins : {8u, 27u, 64u}) {
    Palette palette = Palette::Uniform(bins, &rng);
    QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
    EmbeddingStore store = *EmbeddingStore::Build(
        qfd, RandomDatabase(&rng, 120, bins));
    ASSERT_TRUE(store.has_quantized());
    const QuantizedStore& qs = store.quantized();
    EXPECT_EQ(qs.size(), store.size());
    EXPECT_EQ(qs.dim(), store.dim());
    for (int q = 0; q < 6; ++q) {
      // Mix of in-distribution targets and perturbed stored rows.
      std::vector<double> target;
      if (q % 2 == 0) {
        target = qfd.Embed(RandomHistogram(&rng, bins));
      } else {
        std::span<const double> row = store.Row(q % store.size());
        target.assign(row.begin(), row.end());
        for (double& v : target) v += 0.05 * (rng.NextDouble() - 0.5);
      }
      const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
      for (size_t i = 0; i < store.size(); ++i) {
        const double bound = qs.LowerBound2(enc, i);
        const double exact = ExactSquared(store, i, target);
        ASSERT_LE(bound, exact)
            << "bins=" << bins << " q=" << q << " row=" << i;
        ASSERT_GE(bound, 0.0);
      }
    }
  }
}

TEST(QuantizedStoreTest, StoredCodesNeverClampAndResidualsAreExact) {
  Rng rng(6011);
  Palette palette = Palette::Uniform(27, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  EmbeddingStore store =
      *EmbeddingStore::Build(qfd, RandomDatabase(&rng, 40, 27));
  const QuantizedStore& qs = store.quantized();
  std::vector<int8_t> codes(qs.padded_dim());
  for (size_t i = 0; i < qs.size(); ++i) {
    qs.CopyRowCodes(i, codes);
    double residual_sq = 0.0;
    for (size_t j = 0; j < qs.dim(); ++j) {
      ASSERT_GE(codes[j], -simd::kInt8CodeMax);
      ASSERT_LE(codes[j], simd::kInt8CodeMax);
      const double err = store.Row(i)[j] -
                         static_cast<double>(codes[j]) *
                             qs.scale(j / QuantizedStore::kBlockDim);
      residual_sq += err * err;
    }
    // Padding dims must stay zero codes.
    for (size_t j = qs.dim(); j < qs.padded_dim(); ++j) {
      ASSERT_EQ(codes[j], 0);
    }
    EXPECT_DOUBLE_EQ(qs.row_residual(i), std::sqrt(residual_sq)) << i;
  }
}

TEST(QuantizedStoreTest, FarOutOfRangeTargetsClampButStayAdmissible) {
  // Query values 1000x beyond the data's range force query-side clamping;
  // clamping grows the query residual, which may only weaken the bound.
  Rng rng(6029);
  Palette palette = Palette::Uniform(16, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  EmbeddingStore store =
      *EmbeddingStore::Build(qfd, RandomDatabase(&rng, 60, 16));
  const QuantizedStore& qs = store.quantized();
  std::vector<double> target(store.dim());
  for (size_t j = 0; j < target.size(); ++j) {
    target[j] = 1000.0 * (rng.NextDouble() - 0.5);
  }
  const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
  for (size_t i = 0; i < store.size(); ++i) {
    ASSERT_LE(qs.LowerBound2(enc, i), ExactSquared(store, i, target)) << i;
  }
  // And the cascade still answers exactly.
  ExpectIdentical(store.CascadeKnn(target, 5), store.ExactKnn(target, 5),
                  "far target");
}

TEST(QuantizedStoreTest, AdversarialScaleBlockStaysAdmissible) {
  // Worst case for per-block scaling: one huge outlier value makes its
  // block's scale enormous, so every other value in that block quantizes to
  // code 0 and the bound must survive on the residual correction alone.
  const size_t dim = 48;
  EmbeddingStore store(6, dim);
  Rng rng(6037);
  for (size_t i = 0; i < store.size(); ++i) {
    std::span<double> row = store.MutableRow(i);
    for (size_t j = 0; j < dim; ++j) row[j] = rng.NextDouble() - 0.5;
  }
  store.MutableRow(3)[17] = 1e6;  // the outlier poisons block 1's scale
  store.BuildQuantized();
  const QuantizedStore& qs = store.quantized();
  Rng trng(6043);
  for (int q = 0; q < 8; ++q) {
    std::vector<double> target(dim);
    for (double& v : target) v = trng.NextDouble() - 0.5;
    if (q == 7) target[17] = 1e6;  // meet the outlier in its own block
    const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
    for (size_t i = 0; i < store.size(); ++i) {
      ASSERT_LE(qs.LowerBound2(enc, i), ExactSquared(store, i, target))
          << "q=" << q << " row=" << i;
    }
    ExpectIdentical(store.CascadeKnn(target, 3), store.ExactKnn(target, 3),
                    "adversarial q=" + std::to_string(q));
  }
}

// The bound recombination as LowerBound2 computed it row by row: the
// portable scalar kernel's block sums, then ascending blocks, sqrt, the
// 1e-9 shave, the clamp. Every build compiles with FMA contraction off
// (top-level CMakeLists.txt), so these are the store's bits in any build.
double ReferenceBound2(const QuantizedStore& qs,
                       const QuantizedStore::EncodedQuery& query, size_t i) {
  std::vector<int32_t> sums(qs.blocks());
  std::vector<int8_t> codes(qs.padded_dim());
  qs.CopyRowCodes(i, codes);
  simd::ResolveBlockSsd(simd::Level::kScalar)(
      codes.data(), query.codes.data(), qs.padded_dim(), sums.data());
  double dq2 = 0.0;
  for (size_t b = 0; b < qs.blocks(); ++b) {
    dq2 += qs.scale(b) * qs.scale(b) * static_cast<double>(sums[b]);
  }
  const double bound =
      std::sqrt(dq2) * (1.0 - 1e-9) - qs.row_residual(i) - query.residual;
  return bound <= 0.0 ? 0.0 : bound * bound;
}

TEST(QuantizedStoreTest, BatchedBoundsMatchPerRowBoundsBitForBit) {
  // At the active kernel level (the simd verify leg forces each one), for
  // padded and odd block counts, batch offsets and lengths off the
  // kernel's 8-unit stride, bounds clamped to zero and targets far outside
  // the store's range.
  Rng rng(6047);
  constexpr size_t kRows = 1001;
  for (size_t dim : {16u, 48u, 64u, 72u}) {
    std::vector<double> rows(kRows * dim);
    for (double& x : rows) x = rng.NextGaussian();
    const QuantizedStore qs = QuantizedStore::Build(rows.data(), kRows, dim,
                                                    dim);
    std::vector<std::vector<double>> targets;
    targets.emplace_back(rows.begin(), rows.begin() + dim);  // row 0: clamps
    targets.emplace_back(dim);
    for (double& x : targets.back()) x = rng.NextGaussian();
    targets.emplace_back(dim);
    for (double& x : targets.back()) x = 40.0 * rng.NextGaussian();
    for (const std::vector<double>& target : targets) {
      const QuantizedStore::EncodedQuery query = qs.EncodeQuery(target);
      std::vector<double> want(kRows);
      size_t zeros = 0;
      for (size_t i = 0; i < kRows; ++i) {
        want[i] = ReferenceBound2(qs, query, i);
        ASSERT_EQ(qs.LowerBound2(query, i), want[i]) << "dim " << dim;
        zeros += want[i] == 0.0 ? 1 : 0;
      }
      if (&target == &targets.front()) {
        EXPECT_GT(zeros, 0u);
      }
      for (size_t begin : {0u, 1u, 3u, 257u, 999u}) {
        for (size_t count : {1u, 5u, 7u, 256u, 257u, 1001u}) {
          count = std::min(count, kRows - begin);
          std::vector<double> got(count, -1.0);
          qs.LowerBounds2(query, begin, got);
          for (size_t r = 0; r < count; ++r) {
            ASSERT_EQ(got[r], want[begin + r])
                << "dim " << dim << " begin " << begin << " count " << count
                << " row " << begin + r;
          }
        }
      }
    }
  }
}

// Row i's block-0 sum, from the portable scalar kernel.
int32_t ReferenceBlock0Sum(const QuantizedStore& qs,
                           const QuantizedStore::EncodedQuery& query,
                           size_t i) {
  std::vector<int8_t> codes(qs.padded_dim());
  qs.CopyRowCodes(i, codes);
  int32_t sum;
  simd::ResolveBlockSsd(simd::Level::kScalar)(
      codes.data(), query.codes.data(), QuantizedStore::kBlockDim, &sum);
  return sum;
}

// The screen's truncated recombination at block-0 sum s0: block 0 alone,
// with the store's largest residual in place of the row's.
double ReferenceTruncatedBound2(const QuantizedStore& qs,
                                const QuantizedStore::EncodedQuery& query,
                                int32_t s0) {
  const double r_max =
      *std::max_element(qs.residuals().begin(), qs.residuals().end());
  double dq2 = 0.0;
  dq2 += qs.scale(0) * qs.scale(0) * static_cast<double>(s0);
  const double bound = std::sqrt(dq2) * (1.0 - 1e-9) - r_max - query.residual;
  return bound <= 0.0 ? 0.0 : bound * bound;
}

TEST(QuantizedStoreTest, PrefixScreenIsExactAndTight) {
  // At the active kernel level (the simd verify leg forces each one): for
  // every cutoff, every row whose block-0 sum reaches the threshold has a
  // bound at or above the cutoff (the screen never drops a row Offer would
  // keep), the threshold is the least such sum, and ScreenedBounds passes
  // exactly the rows below it with LowerBound2's bits. A single-block store
  // has no tail to skip, so it never screens.
  Rng rng(6053);
  constexpr size_t kRows = 1001;
  for (size_t dim : {16u, 48u, 64u, 72u}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    std::vector<double> rows(kRows * dim);
    for (size_t i = 0; i < kRows; ++i) {
      double scale = 1.0;
      for (size_t j = 0; j < dim; ++j, scale *= 0.9) {
        rows[i * dim + j] = scale * rng.NextGaussian();
      }
    }
    const QuantizedStore qs =
        QuantizedStore::Build(rows.data(), kRows, dim, dim);
    std::vector<std::vector<double>> targets;
    targets.emplace_back(rows.begin(), rows.begin() + dim);  // row 0
    targets.emplace_back(dim);
    for (double& x : targets.back()) x = rng.NextGaussian();
    targets.emplace_back(dim);
    for (double& x : targets.back()) x = 40.0 * rng.NextGaussian();
    size_t partial_screens = 0;
    for (const std::vector<double>& target : targets) {
      const QuantizedStore::EncodedQuery query = qs.EncodeQuery(target);
      std::vector<double> bound(kRows);
      std::vector<int32_t> s0(kRows);
      for (size_t i = 0; i < kRows; ++i) {
        bound[i] = qs.LowerBound2(query, i);
        s0[i] = ReferenceBlock0Sum(qs, query, i);
      }
      std::vector<double> cutoffs = {0.0,
                                     std::numeric_limits<double>::infinity(),
                                     std::numeric_limits<double>::quiet_NaN()};
      for (size_t i : {0u, 17u, 500u, 1000u}) cutoffs.push_back(bound[i]);
      const double top = *std::max_element(bound.begin(), bound.end());
      for (int c = 0; c < 8; ++c) cutoffs.push_back(top * rng.NextDouble());
      for (double cutoff : cutoffs) {
        SCOPED_TRACE("cutoff " + std::to_string(cutoff));
        const int32_t threshold = qs.PrefixSkipThreshold(query, cutoff);
        if (dim == QuantizedStore::kBlockDim || std::isnan(cutoff) ||
            std::isinf(cutoff)) {
          EXPECT_EQ(threshold, QuantizedStore::kNoScreen);
        }
        if (cutoff == 0.0 && dim > QuantizedStore::kBlockDim) {
          EXPECT_EQ(threshold, 0);  // every bound is >= 0
        }
        std::vector<uint32_t> want_pass;
        for (size_t i = 0; i < kRows; ++i) {
          if (s0[i] >= threshold) {
            ASSERT_GE(bound[i], cutoff) << "row " << i << " s0 " << s0[i]
                                        << " threshold " << threshold;
          } else {
            want_pass.push_back(static_cast<uint32_t>(i));
          }
        }
        if (threshold != QuantizedStore::kNoScreen) {
          EXPECT_GE(ReferenceTruncatedBound2(qs, query, threshold), cutoff);
          if (threshold > 0) {
            EXPECT_LT(ReferenceTruncatedBound2(qs, query, threshold - 1),
                      cutoff);
          }
        }
        if (!want_pass.empty() && want_pass.size() < kRows) ++partial_screens;
        // ScreenedBounds at offsets off the kernels' strides.
        for (size_t begin : {0u, 3u, 257u}) {
          const size_t count = kRows - begin;
          std::vector<uint32_t> pass(count);
          std::vector<double> got(count);
          const size_t passed = qs.ScreenedBounds(query, begin, count,
                                                  threshold, pass.data(),
                                                  got.data());
          std::vector<uint32_t> want;
          for (uint32_t i : want_pass) {
            if (i >= begin) want.push_back(static_cast<uint32_t>(i - begin));
          }
          ASSERT_EQ(passed, want.size()) << "begin " << begin;
          for (size_t j = 0; j < passed; ++j) {
            ASSERT_EQ(pass[j], want[j]) << "begin " << begin;
            ASSERT_EQ(got[j], bound[begin + pass[j]]) << "begin " << begin;
          }
        }
      }
    }
    if (dim > QuantizedStore::kBlockDim) {
      EXPECT_GT(partial_screens, 0u);  // the sweep did screen some rows
    }
  }
}

class QuantizedCascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(6053);
    palette_ = Palette::Uniform(64, &rng);
    qfd_ = *QuadraticFormDistance::Create(palette_);
    db_ = RandomDatabase(&rng, 500, 64);
    store_ = *EmbeddingStore::Build(qfd_, db_);
    for (int q = 0; q < 5; ++q) {
      targets_.push_back(qfd_.Embed(RandomHistogram(&rng, 64)));
    }
  }

  Palette palette_;
  QuadraticFormDistance qfd_;
  std::vector<Histogram> db_;
  EmbeddingStore store_;
  std::vector<std::vector<double>> targets_;
};

TEST_F(QuantizedCascadeTest, GoldenBitIdenticalAcrossShardCountsAndOptions) {
  ThreadPool pool(4);
  for (const std::vector<double>& target : targets_) {
    const std::vector<std::pair<size_t, double>> exact =
        store_.ExactKnn(target, 10);
    for (CascadeOptions options :
         {CascadeOptions{1, 1}, CascadeOptions{8, 16}, CascadeOptions{64, 16}}) {
      ASSERT_TRUE(options.use_quantized);  // the tier defaults on
      for (size_t shards : ShardCounts()) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          CascadeStats stats;
          ExpectIdentical(
              store_.CascadeKnn(target, 10, options, &stats, p, shards), exact,
              "int8 cascade shards=" + std::to_string(shards));
          EXPECT_EQ(stats.quantized_bound_computations, store_.size());
          EXPECT_EQ(stats.bytes_scanned_quantized,
                    store_.size() * QuantizedStore::kBlockDim +
                        stats.quantized_full_bounds *
                            (store_.quantized().row_bytes() -
                             QuantizedStore::kBlockDim));
        }
      }
    }
  }
}

TEST_F(QuantizedCascadeTest, DuplicateTieStormKeepsIndexOrder) {
  // 5 distinct rows x 21 copies: every distance ties 21 ways, across shard
  // borders, and the quantized bounds tie too. Rank order must still be
  // ascending-index, identical to the serial exact scan.
  Rng rng(6067);
  std::vector<Histogram> distinct = RandomDatabase(&rng, 5, 64);
  std::vector<Histogram> db;
  for (int copy = 0; copy < 21; ++copy) {
    for (const Histogram& h : distinct) db.push_back(h);
  }
  EmbeddingStore store = *EmbeddingStore::Build(qfd_, db);
  ASSERT_TRUE(store.has_quantized());
  std::vector<double> target = qfd_.Embed(distinct[2]);
  const std::vector<std::pair<size_t, double>> exact =
      store.ExactKnn(target, 23);
  for (size_t i = 1; i < exact.size(); ++i) {
    if (exact[i].second == exact[i - 1].second) {
      EXPECT_LT(exact[i - 1].first, exact[i].first);
    }
  }
  ThreadPool pool(4);
  for (size_t shards : ShardCounts()) {
    ExpectIdentical(store.CascadeKnn(target, 23, {}, nullptr, &pool, shards),
                    exact, "tie storm shards=" + std::to_string(shards));
  }
}

TEST_F(QuantizedCascadeTest, QuantizedOnAndOffReturnTheSameBits) {
  for (const std::vector<double>& target : targets_) {
    CascadeOptions off;
    off.use_quantized = false;
    ExpectIdentical(store_.CascadeKnn(target, 10),
                    store_.CascadeKnn(target, 10, off), "on == off");
  }
}

TEST_F(QuantizedCascadeTest, TierSkipsFarMoreRowsThanTheFloatPrefixAdmits) {
  // The tier's reason to exist: on a 500-row store the int8 full-dimension
  // bound should dismiss the overwhelming majority of rows before any
  // float work happens.
  CascadeStats stats;
  for (const std::vector<double>& target : targets_) {
    store_.CascadeKnn(target, 10, {}, &stats);
  }
  EXPECT_EQ(stats.quantized_bound_computations,
            targets_.size() * store_.size());
  EXPECT_LT(stats.bound_computations,
            targets_.size() * store_.size() / 4);
}

TEST_F(QuantizedCascadeTest, EmptyAndEdgeCasesStayExact) {
  EXPECT_TRUE(store_.CascadeKnn(targets_[0], 0).empty());
  ExpectIdentical(store_.CascadeKnn(targets_[0], db_.size() + 10),
                  store_.ExactKnn(targets_[0], db_.size()), "k > n");
  // Self-query through the quantized tier: distance exactly 0 at rank 0.
  std::vector<double> self(store_.Row(7).begin(), store_.Row(7).end());
  const auto got = store_.CascadeKnn(self, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 7u);
  EXPECT_EQ(got[0].second, 0.0);
}

}  // namespace
}  // namespace fuzzydb
