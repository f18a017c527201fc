// Single-precision GEMM backend for the conv / linear hot path.
//
// Two implementations sit behind one entry point:
//
//   * kPacked (default) — blocked, register-tiled SGEMM.  A is packed into
//     MR-row panels and B into NR-column panels held in the thread-local
//     scratch arena; a 6x16 micro-kernel keeps the full accumulator tile in
//     registers so C is written once instead of once per K step.  The
//     micro-kernel is plain fixed-trip C++ compiled three times (AVX-512,
//     AVX2, baseline) and dispatched once at runtime from CPUID, so the same
//     binary runs everywhere and auto-vectorizes to the widest ISA present.
//   * kReference — the pre-GEMM scalar path (bias-init + ascending-k
//     multiply-add), kept as a runtime-selectable fallback so any result can
//     be reproduced on any machine and the packed kernel has an oracle.
//
// Determinism: both backends use a fixed per-element accumulation order —
// k ascending within each K block, blocks folded into C in ascending order
// (for K ≤ 512 that is one straight ascending chain; beyond, the block
// partial sums re-associate, but the blocking is a compile-time constant,
// never a function of threads or input) — and the parallel split is over
// disjoint row/column regions of C, so results are bit-identical
// run-to-run regardless of thread count.  The packed kernel avoids FP
// contraction (-ffp-contract=off, see CMakeLists.txt), so every non-NaN
// output is also identical across the dispatched ISAs.  A NaN output stays
// NaN under every ISA, but its sign bit follows operand order, which the
// bodies do not fix: measured over adversarial inputs, the generic, AVX2
// and AVX-512 bodies give 0x7FC00000 and 0xFFC00000 for the same NaN
// outputs.  The two *backends* agree only to rounding (tolerance-tested).
// Changing kKC/kNC changes packed results (within tolerance) — bump the
// model-cache fingerprints if you do.
//
// The epilogue hook fuses the bias add and ReLU into the write-out, which
// saves a full read-modify-write pass over every activation tensor in the
// detector backbone.
//
// Stride-1 convolutions do not pack B.  sconv_direct runs the same
// micro-kernel with each B row read in place from a zero-padded copy of
// the input (one value per input pixel plus the pad ring, where im2col
// writes up to k*k copies), and writes bit for bit what im2col + the
// packed sgemm write.
#pragma once

#include <cstddef>

namespace ada {

/// Which GEMM implementation runs.  The process-wide *default* is
/// initialized once from the ADASCALE_GEMM environment variable
/// ("packed" | "reference" | "int8").
///
/// kInt8 selects the quantized inference path (tensor/qgemm.h) for layers
/// that hold quantized weights (Conv2dLayer/LinearLayer after quantize());
/// everything else — training, unquantized layers, gradient GEMMs — falls
/// back to the packed fp32 kernel, so flipping the env var is always safe.
///
/// kDefault is not a backend: it is the "defer to the process-wide
/// default" marker used by explicit-backend call sites and unpinned
/// ExecutionPolicy values (runtime/exec_policy.h).  gemm_backend() never
/// returns it and set_gemm_backend() rejects it.
enum class GemmBackend { kReference, kPacked, kInt8, kDefault };

/// The process-wide default backend (env-initialized, overridable for
/// tests/benches).  Hot-path kernel selection no longer reads this
/// directly: models resolve an ExecutionPolicy (which consults this only
/// when unpinned) and pass the concrete backend down.  Never kDefault.
GemmBackend gemm_backend();

/// Overrides the process-wide default backend.  This mutates shared state:
/// concurrently serving models with *unpinned* policies will observe the
/// change mid-stream.  Serving should pin per-model policies instead and
/// reserve this for tests/benches/tools.  kDefault is rejected (no-op).
void set_gemm_backend(GemmBackend backend);
const char* gemm_backend_name();

/// Name of the micro-kernel ISA the runtime dispatcher picked on this
/// machine: "avx512" | "avx2" | "generic".
const char* gemm_kernel_isa();

/// Micro-kernel ISA levels, ordered: each level implies all lower ones.
/// kAvx512 means AVX-512F + AVX-512BW (the quantized kernels need the byte
/// ops); kVnni additionally means AVX-512 VNNI (vpdpbusd).  The fp32
/// dispatcher has no VNNI kernel, so kVnni selects its avx512 body.
enum class KernelIsa { kGeneric = 0, kAvx2 = 1, kAvx512 = 2, kVnni = 3 };

/// The ISA level kernels dispatch at: the CPU's native capability, capped
/// by the ADASCALE_ISA environment variable ("generic" | "avx2" | "avx512"
/// | "vnni", read once at first use) so lower ISA paths are testable on any
/// machine.  A level the CPU cannot satisfy is a hard error (abort with a
/// message) — silently running a different kernel than the one under test
/// would make an oracle run vacuous.  Unknown values warn and use native.
KernelIsa kernel_isa_cap();

/// The CPU's native ISA level, ignoring ADASCALE_ISA — what the hardware
/// can actually run.  Benches use this to decide which kernel rows exist.
KernelIsa kernel_isa_native();

/// "generic" | "avx2" | "avx512" | "vnni".
const char* kernel_isa_name(KernelIsa isa);

/// Read-only strided matrix view.  Element (i, j) lives at p[i*rs + j*cs],
/// which lets callers hand in transposed operands (e.g. W^T for the conv
/// input gradient) without materializing them — packing absorbs the stride.
struct GemmMat {
  const float* p = nullptr;
  std::ptrdiff_t rs = 0;  ///< row stride
  std::ptrdiff_t cs = 1;  ///< column stride
};

/// Fused write-out: C(m,n) gets row_bias[m] and/or col_bias[n] added, then
/// optionally ReLU-clamped, in the same pass that stores the tile.
struct GemmEpilogue {
  const float* row_bias = nullptr;  ///< conv bias (one per output channel)
  const float* col_bias = nullptr;  ///< linear bias (one per output unit)
  bool relu = false;
};

/// C(MxN, row-major, leading dim ldc) = A(MxK) * B(KxN) [+ C if accumulate]
/// with the epilogue applied to the final values.  Parallelizes over column
/// stripes via the runtime pool; see header comment for the determinism
/// contract.
///
/// `backend` selects the fp32 implementation: kReference or kPacked run as
/// named, kDefault resolves the process-wide default, and kInt8 (which has
/// no fp32 kernel — the quantized path branches above this seam, in the
/// layers that own QuantizedWeights) runs packed.  Planned forwards pass
/// the backend their ExecutionPlan resolved; legacy call sites omit it.
void sgemm(int M, int N, int K, const GemmMat& A, const GemmMat& B, float* C,
           int ldc, bool accumulate, const GemmEpilogue& epi = {},
           GemmBackend backend = GemmBackend::kDefault);

struct ConvSpec;  // tensor/conv2d.h

/// For each of the `n` CHW images of `spec.in_channels` x h x w stored back
/// to back at `images`: C_n (out_c x oh*ow, row-major, ldc = oh*ow, the
/// blocks back to back from C) = A (out_c x in_c*k*k, columns in im2col's
/// (c, ki, kj) order) times the image's im2col matrix, with the epilogue
/// applied, without building that matrix: the packed micro-kernel reads
/// each B row from a zero-padded copy of the image.  For an NCHW batch that
/// writes NCHW output.  The bytes equal im2col (pads +0.0) + sgemm(kPacked)
/// per image, at any K.  `spec.stride` must be 1.  Parallelizes over runs
/// of 16-column tiles across the whole batch.  Returns false and writes
/// nothing when `backend` resolves to kReference, whose oracle chain the
/// caller then runs through im2col + sgemm; every other backend runs
/// packed.
bool sconv_direct(const ConvSpec& spec, const GemmMat& A, const float* images,
                  int n, int h, int w, float* C, const GemmEpilogue& epi,
                  GemmBackend backend);

/// Scratch-arena floats one packed sconv_direct call over `n` images claims
/// on the calling thread (a padded copy of every image, the B row offset
/// table and the A panels), rounded the way the arena rounds.
std::size_t sconv_direct_workspace_floats(const ConvSpec& spec, int n, int h,
                                          int w);

/// Scratch-arena floats one sgemm call with these shapes claims on the
/// calling thread (A/B packing panels, rounded to whole cache lines the
/// way the arena rounds).  The reference backend packs nothing and returns
/// 0.  Execution plans record this so the arena can be pre-sized to the
/// exact steady-state peak (runtime/exec_plan.h).
std::size_t sgemm_workspace_floats(int M, int N, int K, GemmBackend backend);

}  // namespace ada
