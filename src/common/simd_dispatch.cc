#include "common/simd_dispatch.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FUZZYDB_SIMD_X86 1
#include <immintrin.h>
#endif

namespace fuzzydb {
namespace simd {

namespace {

void BlockSsdScalar(const int8_t* x, const int8_t* y, size_t n,
                    int32_t* out) {
  assert(n % kBlockDim == 0);
  for (size_t b = 0; b * kBlockDim < n; ++b) {
    int32_t acc = 0;
    for (size_t j = b * kBlockDim; j < (b + 1) * kBlockDim; ++j) {
      const int32_t d = static_cast<int32_t>(x[j]) - static_cast<int32_t>(y[j]);
      acc += d * d;
    }
    out[b] = acc;
  }
}

void BlockSsdRowsScalar(const int8_t* x, const int8_t* y, size_t n,
                        size_t rows, int32_t* out) {
  const size_t blocks = n / kBlockDim;
  for (size_t r = 0; r < rows; ++r) {
    BlockSsdScalar(x + r * n, y, n, out + r * blocks);
  }
}

// The batched SIMD kernels see a batch as `rows * blocks` 16-code units:
// unit u is codes x[16u, 16u + 16), matched against query block u % blocks,
// and its sum goes to out[u] — exactly the row-major (row, block) layout,
// because rows are contiguous. One vector covers several consecutive units
// (two on AVX2, four on VNNI) that may straddle rows, so the kernels read
// the query from a copy of y repeated end to end, where those units' query
// blocks are contiguous. This advances the query block `qb` of the next
// unit by `units`.
inline size_t AdvanceUnits(size_t qb, size_t units, size_t blocks) {
  for (qb += units; qb >= blocks;) qb -= blocks;
  return qb;
}

// That copy: the n codes of y repeated end to end, n + pad codes in all.
inline void RepeatCodes(const int8_t* y, size_t n, size_t pad, int8_t* out) {
  for (size_t j = 0; j < n + pad; j += n) {
    std::memcpy(out + j, y, std::min(n, n + pad - j));
  }
}

#if defined(FUZZYDB_SIMD_X86)

// Horizontal sum of 4 int32 lanes.
__attribute__((target("avx2"))) int32_t HSum4(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

// Two 16-code blocks per 256-bit vector. maddubs and madd are in-lane, so
// block b lands in the low 128-bit lane and block b+1 in the high one.
// Operand bounds (codes in ±kInt8CodeMax): diff in [-126, 126] — no int8
// wrap in sub_epi8, |diff| fits both maddubs operands, pair sums < 2^15.
__attribute__((target("avx2"))) void BlockSsdAvx2(const int8_t* x,
                                                  const int8_t* y, size_t n,
                                                  int32_t* out) {
  assert(n % kBlockDim == 0);
  const size_t blocks = n / kBlockDim;
  size_t b = 0;
  for (; b + 2 <= blocks; b += 2) {
    const __m256i vx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + b * kBlockDim));
    const __m256i vy = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + b * kBlockDim));
    const __m256i diff = _mm256_sub_epi8(vx, vy);
    const __m256i ad = _mm256_abs_epi8(diff);
    const __m256i sq = _mm256_maddubs_epi16(ad, ad);  // 16 x s16 pair sums
    const __m256i s32 = _mm256_madd_epi16(sq, _mm256_set1_epi16(1));
    out[b] = HSum4(_mm256_castsi256_si128(s32));
    out[b + 1] = HSum4(_mm256_extracti128_si256(s32, 1));
  }
  if (b < blocks) {  // odd trailing block: same arithmetic, one 128-bit lane
    const __m128i vx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(x + b * kBlockDim));
    const __m128i vy = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(y + b * kBlockDim));
    const __m128i diff = _mm_sub_epi8(vx, vy);
    const __m128i ad = _mm_abs_epi8(diff);
    const __m128i sq = _mm_maddubs_epi16(ad, ad);
    out[b] = HSum4(_mm_madd_epi16(sq, _mm_set1_epi16(1)));
  }
}

// A unit pair's partial sums: 4 int32 lanes for unit u, then 4 for u + 1
// (the same maddubs arithmetic as BlockSsdAvx2).
__attribute__((target("avx2"))) inline __m256i PairSsdAvx2(const int8_t* x,
                                                          const int8_t* q) {
  const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
  const __m256i vq = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q));
  const __m256i ad = _mm256_abs_epi8(_mm256_sub_epi8(vx, vq));
  return _mm256_madd_epi16(_mm256_maddubs_epi16(ad, ad),
                           _mm256_set1_epi16(1));
}

// Eight units per step: three hadds fold four pair vectors into the eight
// unit sums [u, u+2, u+4, u+6 | u+1, u+3, u+5, u+7], one permute restores
// unit order, one store writes them.
__attribute__((target("avx2"))) void BlockSsdRowsAvx2(const int8_t* x,
                                                      const int8_t* y,
                                                      size_t n, size_t rows,
                                                      int32_t* out) {
  assert(n % kBlockDim == 0 && n <= kMaxBlocks * kBlockDim);
  if (rows == 1) {
    BlockSsdAvx2(x, y, n, out);
    return;
  }
  const size_t blocks = n / kBlockDim;
  const size_t units = rows * blocks;
  constexpr size_t kPad = kBlockDim;  // a pair reads one block past y
  int8_t yy[kMaxBlocks * kBlockDim + kPad];
  RepeatCodes(y, n, kPad, yy);
  const __m256i unit_order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  size_t u = 0;
  size_t qb = 0;
  for (; u + 8 <= units; u += 8) {
    const __m256i p0 = PairSsdAvx2(x + u * kBlockDim, yy + qb * kBlockDim);
    qb = AdvanceUnits(qb, 2, blocks);
    const __m256i p1 =
        PairSsdAvx2(x + (u + 2) * kBlockDim, yy + qb * kBlockDim);
    qb = AdvanceUnits(qb, 2, blocks);
    const __m256i p2 =
        PairSsdAvx2(x + (u + 4) * kBlockDim, yy + qb * kBlockDim);
    qb = AdvanceUnits(qb, 2, blocks);
    const __m256i p3 =
        PairSsdAvx2(x + (u + 6) * kBlockDim, yy + qb * kBlockDim);
    qb = AdvanceUnits(qb, 2, blocks);
    const __m256i sums = _mm256_hadd_epi32(_mm256_hadd_epi32(p0, p1),
                                           _mm256_hadd_epi32(p2, p3));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + u),
                        _mm256_permutevar8x32_epi32(sums, unit_order));
  }
  for (; u < units; ++u) {  // the < 8 units left over
    BlockSsdScalar(x + u * kBlockDim, y + qb * kBlockDim, kBlockDim, out + u);
    qb = AdvanceUnits(qb, 1, blocks);
  }
}

// GCC's avx512 cast/extract intrinsics expand through a deliberately
// uninitialized __Y temporary (avxintrin.h), tripping -Wmaybe-uninitialized
// under -Werror; the value is never actually read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) int32_t
HSum8Vnni(__m256i v) {
  const __m128i sum =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  __m128i s = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// Two 16-code blocks per iteration: sign-extend 32 int8 codes to int16,
// subtract, then one vpdpwssd accumulates diff*diff pairs into int32 lanes.
// cvtepi8_epi16 is sequential, so s16 lanes 0..15 are block b and 16..31
// are block b+1; dpwssd pairs in-order, so s32 lanes 0..7 / 8..15 split the
// same way.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
BlockSsdAvx512Vnni(const int8_t* x, const int8_t* y, size_t n, int32_t* out) {
  assert(n % kBlockDim == 0);
  const size_t blocks = n / kBlockDim;
  size_t b = 0;
  for (; b + 2 <= blocks; b += 2) {
    const __m256i bx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + b * kBlockDim));
    const __m256i by = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + b * kBlockDim));
    const __m512i diff =
        _mm512_sub_epi16(_mm512_cvtepi8_epi16(bx), _mm512_cvtepi8_epi16(by));
    const __m512i acc =
        _mm512_dpwssd_epi32(_mm512_setzero_si512(), diff, diff);
    out[b] = HSum8Vnni(_mm512_castsi512_si256(acc));
    out[b + 1] = HSum8Vnni(_mm512_extracti64x4_epi64(acc, 1));
  }
  if (b < blocks) {  // odd trailing block via the 256-bit VNNI form
    const __m128i bx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(x + b * kBlockDim));
    const __m128i by = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(y + b * kBlockDim));
    const __m256i diff =
        _mm256_sub_epi16(_mm256_cvtepi8_epi16(bx), _mm256_cvtepi8_epi16(by));
    out[b] = HSum8Vnni(_mm256_dpwssd_epi32(_mm256_setzero_si256(), diff, diff));
  }
}

// Four units' partial sums, one per 128-bit lane: |diff| bytes (as in the
// AVX2 kernel) squared and summed four at a time into int32 by vpdpbusd —
// unsigned times signed bytes, both operands |diff| <= 126, so every
// product and sum is exact.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) inline __m512i
QuadSsdVnni(const int8_t* x, const int8_t* q) {
  const __m512i ad = _mm512_abs_epi8(
      _mm512_sub_epi8(_mm512_loadu_si512(x), _mm512_loadu_si512(q)));
  return _mm512_dpbusd_epi32(_mm512_setzero_si512(), ad, ad);
}

// Eight units per step from two quad vectors A (units u..u+3) and B
// (u+4..u+7). One unpack-and-add and one in-lane shuffle-and-add leave each
// 128-bit lane L holding [A_L, B_L, ...] — the totals of units u + L and
// u + 4 + L; one permute gathers them in unit order. The query is read
// from a copy of y repeated end to end, where the four query blocks of any
// quad are contiguous even when it straddles rows.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
BlockSsdRowsAvx512Vnni(const int8_t* x, const int8_t* y, size_t n, size_t rows,
                       int32_t* out) {
  assert(n % kBlockDim == 0 && n <= kMaxBlocks * kBlockDim);
  if (rows == 1) {
    BlockSsdAvx512Vnni(x, y, n, out);
    return;
  }
  const size_t blocks = n / kBlockDim;
  const size_t units = rows * blocks;
  constexpr size_t kPad = 3 * kBlockDim;  // a quad reads three blocks past y
  int8_t yy[kMaxBlocks * kBlockDim + kPad];
  RepeatCodes(y, n, kPad, yy);
  const __m512i unit_order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 0, 0,
                                               0, 0, 0, 0, 0, 0);
  size_t u = 0;
  size_t qb = 0;
  for (; u + 8 <= units; u += 8) {
    const __m512i a = QuadSsdVnni(x + u * kBlockDim, yy + qb * kBlockDim);
    qb = AdvanceUnits(qb, 4, blocks);
    const __m512i b =
        QuadSsdVnni(x + (u + 4) * kBlockDim, yy + qb * kBlockDim);
    qb = AdvanceUnits(qb, 4, blocks);
    const __m512i ab = _mm512_add_epi32(_mm512_unpacklo_epi32(a, b),
                                        _mm512_unpackhi_epi32(a, b));
    const __m512i sums = _mm512_add_epi32(
        ab, _mm512_shuffle_epi32(ab, _MM_PERM_BADC));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + u),
        _mm512_castsi512_si256(_mm512_permutexvar_epi32(unit_order, sums)));
  }
  for (; u < units; ++u) {  // the < 8 units left over
    BlockSsdScalar(x + u * kBlockDim, y + qb * kBlockDim, kBlockDim, out + u);
    qb = AdvanceUnits(qb, 1, blocks);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FUZZYDB_SIMD_X86

Level DetectUncached() {
#if defined(FUZZYDB_SIMD_X86)
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw")) {
    return Level::kAvx512Vnni;
  }
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level ActiveUncached() {
  Level level = Detect();
  // Runs once, under Active()'s magic-static init, before any worker thread
  // exists — and nothing in the process ever setenv()s — so the getenv
  // race concurrency-mt-unsafe guards against cannot occur here.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* forced = std::getenv("FUZZYDB_SIMD");
  if (forced != nullptr) {
    if (std::optional<Level> parsed = Parse(forced); parsed.has_value()) {
      // Clamp to hardware: forcing can narrow the ISA, never exceed it.
      if (*parsed < level) level = *parsed;
    }
  }
  return level;
}

}  // namespace

Level Detect() {
  static const Level cached = DetectUncached();
  return cached;
}

Level Active() {
  static const Level cached = ActiveUncached();
  return cached;
}

BlockSsdFn ResolveBlockSsd(Level level) {
#if defined(FUZZYDB_SIMD_X86)
  switch (level) {
    case Level::kAvx512Vnni:
      return BlockSsdAvx512Vnni;
    case Level::kAvx2:
      return BlockSsdAvx2;
    case Level::kScalar:
      return BlockSsdScalar;
  }
#else
  (void)level;
#endif
  return BlockSsdScalar;
}

BlockSsdRowsFn ResolveBlockSsdRows(Level level) {
#if defined(FUZZYDB_SIMD_X86)
  switch (level) {
    case Level::kAvx512Vnni:
      return BlockSsdRowsAvx512Vnni;
    case Level::kAvx2:
      return BlockSsdRowsAvx2;
    case Level::kScalar:
      return BlockSsdRowsScalar;
  }
#else
  (void)level;
#endif
  return BlockSsdRowsScalar;
}

BlockSsdFn ActiveBlockSsd() {
  static const BlockSsdFn cached = ResolveBlockSsd(Active());
  return cached;
}

std::string_view Name(Level level) {
  switch (level) {
    case Level::kAvx512Vnni:
      return "avx512vnni";
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
      return "scalar";
  }
  return "scalar";
}

std::optional<Level> Parse(std::string_view text) {
  if (text == "scalar") return Level::kScalar;
  if (text == "avx2") return Level::kAvx2;
  if (text == "avx512" || text == "avx512vnni") return Level::kAvx512Vnni;
  return std::nullopt;
}

}  // namespace simd
}  // namespace fuzzydb
