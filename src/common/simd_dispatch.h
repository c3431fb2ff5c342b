// Runtime dispatch for the int8 quantized-distance kernels (DESIGN §3g).
//
// Three implementations of one contract — blockwise sums of squared int8
// differences — selected once per process from CPUID plus an optional
// FUZZYDB_SIMD environment override:
//
//   kScalar      portable lane-free int32 loop; the only path on non-x86.
//   kAvx2        _mm256_maddubs_epi16 over |diff| bytes: 32 codes per op.
//                Sound because codes are clamped to ±kInt8CodeMax = ±63, so
//                diffs fit int8 without wrap, |diff| <= 126 fits both the
//                unsigned and the signed maddubs operand, and each s16 pair
//                sum is <= 2 * 126^2 = 31752 < 2^15 (no saturation).
//   kAvx512Vnni  vpdpwssd (AVX-512 VNNI) over sign-extended int16 diffs:
//                32 codes per 512-bit op, int32 accumulation in one
//                instruction. Guarded: compiled only on x86-64 GCC/Clang,
//                selected only when CPUID reports avx512vnni+vl+bw.
//
// The dispatch choice can never change answers: every kernel performs the
// same exact integer arithmetic (int32 sums of int8 difference squares are
// associative and overflow-free by the operand bounds above), so all three
// are bit-identical, not merely close. Tests compare them element-wise; the
// benches stamp the active level into their JSON reports so every measured
// number is attributable to the ISA it ran on.
//
// Forcing a path (CI runs the matrix): FUZZYDB_SIMD=scalar|avx2|avx512.
// A request the CPU cannot honor falls back to the best supported level at
// or below it — forcing can only narrow, never fake, the instruction set.

#ifndef FUZZYDB_COMMON_SIMD_DISPATCH_H_
#define FUZZYDB_COMMON_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace fuzzydb {
namespace simd {

/// Kernel implementations, ordered by width: clamping a request means
/// taking the min with what CPUID reports.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512Vnni = 2,
};

/// Dimensions per quantization block: the granularity of both the per-block
/// scale factors (image/quantized_store.h) and the kernel's output sums.
/// 16 int8 codes = one 128-bit lane, the unit all three kernels agree on.
constexpr size_t kBlockDim = 16;

/// Largest magnitude of a stored int8 code. ±63 rather than ±127 so the
/// AVX2 path's maddubs operands stay in range (see file comment): one sign
/// bit of headroom buys a 32-codes-per-instruction kernel.
constexpr int kInt8CodeMax = 63;

/// Blockwise squared-difference sums: out[b] = sum over j in block b of
/// (x[j] - y[j])^2, exact int32. `n` must be a multiple of kBlockDim and
/// `out` must have n / kBlockDim entries. Codes must be in
/// [-kInt8CodeMax, kInt8CodeMax]. Every Level computes bit-identical out[].
using BlockSsdFn = void (*)(const int8_t* x, const int8_t* y, size_t n,
                            int32_t* out);

/// Most blocks per row the batched kernels accept (sizes their stack copy
/// of the query): 64 blocks = 1024 dimensions.
constexpr size_t kMaxBlocks = 64;

/// Batched blockwise sums over `rows` consecutive rows of `n` codes each
/// (x row-major), every row against the one query y:
/// out[r * (n / kBlockDim) + b] = the BlockSsdFn sum of row r's block b.
/// Each kernel copies (and, for VNNI, widens) y once per call and reduces
/// eight blocks' partial sums together, so one call over many rows costs
/// far less per row than one BlockSsdFn call each. The sums are the same
/// exact int32 values, so every Level is bit-identical to the scalar one.
/// n must be at most kMaxBlocks * kBlockDim.
using BlockSsdRowsFn = void (*)(const int8_t* x, const int8_t* y, size_t n,
                                size_t rows, int32_t* out);

/// The widest level this CPU supports (CPUID; kScalar on non-x86 builds).
Level Detect();

/// Detect() clamped by the FUZZYDB_SIMD environment override, computed once
/// per process. This is the level production kernels run at.
Level Active();

/// Kernel for an explicit level — for the bit-identity tests and the forced
/// CI legs. `level` must not exceed Detect() or the call may fault.
BlockSsdFn ResolveBlockSsd(Level level);

/// Batched kernel for an explicit level; same caveat as ResolveBlockSsd.
BlockSsdRowsFn ResolveBlockSsdRows(Level level);

/// The production kernel: ResolveBlockSsd(Active()), cached.
BlockSsdFn ActiveBlockSsd();

/// "scalar", "avx2", "avx512vnni" — the bench-report stamp.
std::string_view Name(Level level);

/// Parses "scalar" / "avx2" / "avx512" / "avx512vnni" (the override
/// grammar); nullopt for anything else.
std::optional<Level> Parse(std::string_view text);

}  // namespace simd
}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_SIMD_DISPATCH_H_
