// The dispatch contract of the int8 block-SSD kernels: every kernel the
// host can run must produce *bit-identical* int32 block sums to the
// portable scalar kernel — the accumulations are exact integer arithmetic,
// so equality is required, not approximate. Levels beyond Detect() cannot
// be exercised here (the instructions would fault); the CI matrix covers
// them by forcing FUZZYDB_SIMD across hosts.

#include "common/simd_dispatch.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace fuzzydb {
namespace {

std::vector<int8_t> RandomCodes(Rng* rng, size_t n) {
  std::vector<int8_t> codes(n);
  for (int8_t& c : codes) {
    c = static_cast<int8_t>(
        rng->NextInt(-simd::kInt8CodeMax, simd::kInt8CodeMax));
  }
  return codes;
}

std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Detect() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  if (simd::Detect() >= simd::Level::kAvx512Vnni) {
    levels.push_back(simd::Level::kAvx512Vnni);
  }
  return levels;
}

TEST(SimdDispatchTest, EveryRunnableKernelMatchesScalarBitForBit) {
  Rng rng(515);
  // Sizes hit the paired-block main loop and the odd trailing block.
  for (size_t blocks : {1u, 2u, 3u, 4u, 7u, 64u}) {
    const size_t n = blocks * simd::kBlockDim;
    for (int rep = 0; rep < 25; ++rep) {
      const std::vector<int8_t> x = RandomCodes(&rng, n);
      const std::vector<int8_t> y = RandomCodes(&rng, n);
      std::vector<int32_t> want(blocks);
      simd::ResolveBlockSsd(simd::Level::kScalar)(x.data(), y.data(), n,
                                                  want.data());
      for (simd::Level level : SupportedLevels()) {
        std::vector<int32_t> got(blocks, -1);
        simd::ResolveBlockSsd(level)(x.data(), y.data(), n, got.data());
        for (size_t b = 0; b < blocks; ++b) {
          ASSERT_EQ(got[b], want[b])
              << simd::Name(level) << " blocks=" << blocks << " block=" << b;
        }
      }
    }
  }
}

TEST(SimdDispatchTest, BatchedKernelsMatchPerRowScalarBitForBit) {
  // All codes at +/-kInt8CodeMax first: the worst case for overflow.
  const size_t codes = 4 * simd::kBlockDim;
  for (size_t rows : {1u, 3u}) {
    std::vector<int8_t> hi(rows * codes,
                           static_cast<int8_t>(simd::kInt8CodeMax));
    std::vector<int8_t> lo(codes, static_cast<int8_t>(-simd::kInt8CodeMax));
    const int32_t per_block = static_cast<int32_t>(simd::kBlockDim) *
                              (2 * simd::kInt8CodeMax) *
                              (2 * simd::kInt8CodeMax);
    for (simd::Level level : SupportedLevels()) {
      std::vector<int32_t> sums(rows * 4);
      simd::ResolveBlockSsdRows(level)(hi.data(), lo.data(), codes, rows,
                                       sums.data());
      for (int32_t s : sums) EXPECT_EQ(s, per_block) << simd::Name(level);
    }
  }
  Rng rng(516);
  // Row counts whose rows * blocks unit counts land on and off the batched
  // kernels' eight-unit step, so unit pairs straddle rows and tails run.
  for (size_t blocks : {1u, 2u, 3u, 4u, 5u, 7u, 64u}) {
    const size_t n = blocks * simd::kBlockDim;
    for (size_t rows : {1u, 2u, 3u, 7u, 8u, 9u, 33u}) {
      const std::vector<int8_t> x = RandomCodes(&rng, rows * n);
      const std::vector<int8_t> y = RandomCodes(&rng, n);
      std::vector<int32_t> want(rows * blocks);
      for (size_t r = 0; r < rows; ++r) {
        simd::ResolveBlockSsd(simd::Level::kScalar)(
            x.data() + r * n, y.data(), n, want.data() + r * blocks);
      }
      for (simd::Level level : SupportedLevels()) {
        std::vector<int32_t> got(rows * blocks, -1);
        simd::ResolveBlockSsdRows(level)(x.data(), y.data(), n, rows,
                                         got.data());
        ASSERT_EQ(got, want) << simd::Name(level) << " blocks=" << blocks
                             << " rows=" << rows;
      }
    }
  }
}

TEST(SimdDispatchTest, ExtremeCodesNeverOverflowAnyKernel) {
  // All codes at +/-kInt8CodeMax: per-dim diff^2 = 126^2, the worst case
  // the maddubs path must survive without s8/s16 saturation.
  const size_t n = 4 * simd::kBlockDim;
  std::vector<int8_t> hi(n, static_cast<int8_t>(simd::kInt8CodeMax));
  std::vector<int8_t> lo(n, static_cast<int8_t>(-simd::kInt8CodeMax));
  const int32_t per_block =
      static_cast<int32_t>(simd::kBlockDim) * (2 * simd::kInt8CodeMax) *
      (2 * simd::kInt8CodeMax);
  for (simd::Level level : SupportedLevels()) {
    std::vector<int32_t> sums(4);
    simd::ResolveBlockSsd(level)(hi.data(), lo.data(), n, sums.data());
    for (int32_t s : sums) EXPECT_EQ(s, per_block) << simd::Name(level);
  }
}

TEST(SimdDispatchTest, IdenticalInputsSumToZero) {
  Rng rng(517);
  const size_t n = 3 * simd::kBlockDim;
  const std::vector<int8_t> x = RandomCodes(&rng, n);
  for (simd::Level level : SupportedLevels()) {
    std::vector<int32_t> sums(3, -1);
    simd::ResolveBlockSsd(level)(x.data(), x.data(), n, sums.data());
    for (int32_t s : sums) EXPECT_EQ(s, 0) << simd::Name(level);
  }
}

TEST(SimdDispatchTest, NamesAndParseRoundTrip) {
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                            simd::Level::kAvx512Vnni}) {
    const std::optional<simd::Level> parsed = simd::Parse(simd::Name(level));
    ASSERT_TRUE(parsed.has_value()) << simd::Name(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_EQ(simd::Parse("avx512"), simd::Level::kAvx512Vnni);
  EXPECT_FALSE(simd::Parse("").has_value());
  EXPECT_FALSE(simd::Parse("AVX2").has_value());
  EXPECT_FALSE(simd::Parse("neon").has_value());
}

TEST(SimdDispatchTest, ActiveNeverExceedsDetectedHardware) {
  // Whatever FUZZYDB_SIMD says, Active() is clamped to what the CPU has —
  // an env typo must degrade, never fault.
  EXPECT_LE(simd::Active(), simd::Detect());
  EXPECT_NE(simd::ActiveBlockSsd(), nullptr);
  EXPECT_EQ(simd::ActiveBlockSsd(), simd::ResolveBlockSsd(simd::Active()));
}

}  // namespace
}  // namespace fuzzydb
