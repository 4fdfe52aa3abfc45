#include "nn/backend/cpu_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "nn/backend/gemm_internal.hpp"
#include "nn/gemm.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace neurfill::nn {

namespace {

/// Convolutions whose per-sample unfold matrix (C*kh*kw rows x Hout*Wout
/// columns) is at or below this many elements run entirely inside a runtime
/// SerialRegion — im2col/col2im, the packed GEMM, and the bias loops all
/// degrade to inline blocks.  Same treatment as the contact solver's
/// kSerialSolveCells (PR 4): a UNet-encoder-sized layer (16ch 64x64, k3 —
/// the bench shape) splits each sub-loop into blocks of a few hundred
/// microseconds, and at 4 threads the per-loop fork/join handshakes cost
/// more than the parallelism saves (conv2d_fwd_speedup_4t was 0.82 in the
/// old BENCH_runtime.json).  The primitives are bitwise-deterministic, so
/// forcing serial execution changes scheduling only, never results.
constexpr std::size_t kSerialConvUnfoldElems = 1u << 20;

/// Grain for flat elementwise loops: ~2 ns per element (load, a few ALU
/// ops, store), converted by runtime::grain_for_cost into ~25 us blocks;
/// loops under ~50 us run inline as a single block instead of forking.
/// Depends only on n — never the thread count — so the block decomposition
/// (and therefore every parallel_reduce combine order) is identical at any
/// thread count.
inline std::size_t elem_grain(std::int64_t n) {
  return runtime::grain_for_cost(2.0, static_cast<std::size_t>(n));
}

/// A 1x1 kernel with unit stride and no padding unfolds to the input
/// itself: im2col would produce a verbatim copy of the (C, H*W) sample, so
/// the GEMM streams the input directly (bitwise the same product).
bool identity_unfold(const Conv2dGeom& g) {
  return g.kernel_h == 1 && g.kernel_w == 1 && g.stride == 1 &&
         g.padding == 0;
}

/// Output extent / unfold-geometry agreement shared by im2col and col2im.
/// The callers derive (Hout, Wout) from (H, W, kernel, stride, pad); a
/// mismatch here means the GEMM that follows would read or scatter past the
/// unfolded buffer.
void check_unfold_geometry(const char* name, int H, int W, int kh, int kw,
                           int stride, int pad, int Hout, int Wout) {
  NF_CHECK(stride >= 1, "%s: stride %d", name, stride);
  NF_CHECK(pad >= 0, "%s: negative padding %d", name, pad);
  NF_CHECK((H + 2 * pad - kh) / stride + 1 == Hout &&
               (W + 2 * pad - kw) / stride + 1 == Wout,
           "%s: output %dx%d disagrees with input %dx%d kernel %dx%d "
           "stride %d pad %d",
           name, Hout, Wout, H, W, kh, kw, stride, pad);
}

/// im2col: unfold (C,H,W) into a (C*kh*kw, Hout*Wout) matrix for kernel
/// (kh,kw), stride s, symmetric zero padding p.
void im2col(const float* x, int C, int H, int W, int kh, int kw, int stride,
            int pad, int Hout, int Wout, float* col) {
  check_unfold_geometry("im2col", H, W, kh, kw, stride, pad, Hout, Wout);
  const int cols = Hout * Wout;
  // Each unfolded row (c, ki, kj) writes a disjoint `cols`-wide slice, so
  // the plane loop parallelizes directly; one plane costs ~1.5 ns per
  // output element (predicated copy), so the grain comes from the cost
  // model and small unfolds run inline.
  const std::size_t planes = static_cast<std::size_t>(C * kh * kw);
  runtime::parallel_for(
      runtime::grain_for_cost(1.5 * static_cast<double>(cols), planes), planes,
      [=](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
          const int c = static_cast<int>(p) / (kh * kw);
          const int ki = (static_cast<int>(p) / kw) % kh;
          const int kj = static_cast<int>(p) % kw;
          float* dst = col + p * static_cast<std::size_t>(cols);
          for (int oi = 0; oi < Hout; ++oi) {
            const int ii = oi * stride + ki - pad;
            if (ii < 0 || ii >= H) {
              std::memset(dst + oi * Wout, 0,
                          sizeof(float) * static_cast<std::size_t>(Wout));
              continue;
            }
            const float* src = x + (c * H + ii) * W;
            for (int oj = 0; oj < Wout; ++oj) {
              const int jj = oj * stride + kj - pad;
              dst[oi * Wout + oj] = (jj >= 0 && jj < W) ? src[jj] : 0.0f;
            }
          }
        }
      });
}

/// col2im: adjoint of im2col; accumulates into x.
void col2im(const float* col, int C, int H, int W, int kh, int kw, int stride,
            int pad, int Hout, int Wout, float* x) {
  check_unfold_geometry("col2im", H, W, kh, kw, stride, pad, Hout, Wout);
  const int cols = Hout * Wout;
  // The (ki, kj) scatters of one channel overlap each other but never cross
  // channels, so the accumulation parallelizes over c only; within a
  // channel the scatter order is the fixed serial one.  One channel costs
  // ~2 ns per (kernel tap x output element) accumulate.
  const double chan_cost_ns = 2.0 * static_cast<double>(kh * kw) *
                              static_cast<double>(cols);
  runtime::parallel_for(
      runtime::grain_for_cost(chan_cost_ns, static_cast<std::size_t>(C)),
      static_cast<std::size_t>(C), [=](std::size_t c0, std::size_t c1) {
  for (int c = static_cast<int>(c0); c < static_cast<int>(c1); ++c) {
    for (int ki = 0; ki < kh; ++ki) {
      for (int kj = 0; kj < kw; ++kj) {
        const float* src = col + ((c * kh + ki) * kw + kj) * cols;
        for (int oi = 0; oi < Hout; ++oi) {
          const int ii = oi * stride + ki - pad;
          if (ii < 0 || ii >= H) continue;
          float* dst = x + (c * H + ii) * W;
          for (int oj = 0; oj < Wout; ++oj) {
            const int jj = oj * stride + kj - pad;
            if (jj >= 0 && jj < W) dst[jj] += src[oi * Wout + oj];
          }
        }
      }
    }
  }
  });
}

/// Packs one kGemmNr-wide column sliver of the im2col matrix directly from
/// the input sample — element (k, j) of the unfold gathered on the fly.
/// Produces exactly the bytes pack_b_sliver would read from a materialized
/// im2col buffer, so the GEMM result is bitwise unchanged; the unfold's
/// write pass and the packer's read pass simply disappear.
void pack_conv_sliver(const float* x, int C, int H, int W, int kh, int kw,
                      int stride, int pad, int Hout, int Wout, int s,
                      float* dst) {
  const int cols = Hout * Wout;
  const int j0 = s * kGemmNr;
  const int nr = std::min(kGemmNr, cols - j0);
  int oi[kGemmNr], oj[kGemmNr];
  for (int jj = 0; jj < nr; ++jj) {
    oi[jj] = (j0 + jj) / Wout;
    oj[jj] = (j0 + jj) % Wout;
  }
  const int K = C * kh * kw;
  for (int k = 0; k < K; ++k) {
    const int c = k / (kh * kw);
    const int ki = (k / kw) % kh;
    const int kj = k % kw;
    const float* plane = x + static_cast<std::size_t>(c) * H * W;
    float* row = dst + static_cast<std::size_t>(k) * kGemmNr;
    for (int jj = 0; jj < nr; ++jj) {
      const int ii = oi[jj] * stride + ki - pad;
      const int jw = oj[jj] * stride + kj - pad;
      row[jj] =
          (ii >= 0 && ii < H && jw >= 0 && jw < W) ? plane[ii * W + jw] : 0.0f;
    }
    for (int jj = nr; jj < kGemmNr; ++jj) row[jj] = 0.0f;
  }
}

/// Batched variant of pack_conv_sliver: the logical B operand is the
/// horizontal concatenation of every sample's im2col matrix, (K x
/// batch*cols), so sliver `s` may straddle sample boundaries.  Column
/// n*cols + j holds sample n's unfold column j — exactly the bytes sample
/// n's own pack_conv_sliver would produce for that column, so each sample's
/// slice of the fused GEMM is bitwise the per-sample product.
void pack_conv_sliver_batched(const float* x, int C, int H, int W, int kh,
                              int kw, int stride, int pad, int Hout, int Wout,
                              int batch, int s, float* dst) {
  const int cols = Hout * Wout;
  const int total = batch * cols;
  const int j0 = s * kGemmNr;
  const int nr = std::min(kGemmNr, total - j0);
  int n[kGemmNr], oi[kGemmNr], oj[kGemmNr];
  for (int jj = 0; jj < nr; ++jj) {
    const int jg = j0 + jj;
    n[jj] = jg / cols;
    const int jl = jg % cols;
    oi[jj] = jl / Wout;
    oj[jj] = jl % Wout;
  }
  const int K = C * kh * kw;
  const std::size_t sample_elems = static_cast<std::size_t>(C) * H * W;
  for (int k = 0; k < K; ++k) {
    const int c = k / (kh * kw);
    const int ki = (k / kw) % kh;
    const int kj = k % kw;
    const float* plane = x + static_cast<std::size_t>(c) * H * W;
    float* row = dst + static_cast<std::size_t>(k) * kGemmNr;
    for (int jj = 0; jj < nr; ++jj) {
      const int ii = oi[jj] * stride + ki - pad;
      const int jw = oj[jj] * stride + kj - pad;
      row[jj] = (ii >= 0 && ii < H && jw >= 0 && jw < W)
                    ? plane[n[jj] * sample_elems + ii * W + jw]
                    : 0.0f;
    }
    for (int jj = nr; jj < kGemmNr; ++jj) row[jj] = 0.0f;
  }
}

// ---------------------------------------------------------------------------
// Direct stride-1 convolution (the fused inference path).
//
// Skinny GEMMs dominate the surrogate UNet: M is the output-channel count
// (8..64) while the im2col operand is K x Hout*Wout.  The packed GEMM
// streams that operand through memory three times (unfold write, pack
// write, kernel read), which is the whole cost at these shapes.  The
// direct kernel computes output elements straight from padded input rows:
// zero unfold, zero packing, and the input rows stay in L1 across all
// output channels.
//
// Bitwise contract: every output element accumulates its K products in
// exactly the order the packed GEMM uses — ascending k = (c, ki, kj), a
// fresh partial sum per kGemmKc-slab, partials combined in ascending slab
// order, with the padding zeros participating in the chain just as a
// materialized im2col would have them.  The vector and scalar bodies below
// use the same expression shape as the GEMM micro-kernel (`acc += w * x`),
// so the compiler makes the same contraction choice in both TUs (both
// compile under NEURFILL_KERNEL_FLAGS) and fused-vs-unfused stays bitwise
// equal (asserted by tests/test_inference.cpp).
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)
#define NEURFILL_CONV_VECTOR_EXT 1
/// Output vectors of the direct kernel.  Lane count is semantically
/// irrelevant — every output element owns an independent per-lane chain —
/// so the row driver picks the widest block that fits the output row:
/// 16-lane blocks halve the broadcast-load pressure per FLOP on AVX-512
/// hosts (where they map to single zmm registers), 8-lane blocks fit the
/// 16-register AVX2 file and the 8-wide bottleneck rows.
typedef float VOut4 __attribute__((vector_size(4 * sizeof(float))));
typedef float VOut8 __attribute__((vector_size(8 * sizeof(float))));
typedef float VOut16 __attribute__((vector_size(16 * sizeof(float))));
#endif

/// Output channels per register block: every UNet stage width (8/16/32/64)
/// is a multiple, so the remainder path only ever sees the 1-channel head.
constexpr int kConvOr = 8;

/// One output element through the GEMM-ordered chain: ascending-k partial
/// sums flushed at kGemmKc boundaries, flushes combined in slab order.
float conv_direct_one(const float* const* prows, const float* wo, int C,
                      int kh, int kw, int j) {
  float total = 0.0f, acc = 0.0f;
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const float* row = prows[c * kh + ki] + j;
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          total = flushed ? total + acc : acc;
          flushed = true;
          acc = 0.0f;
          boundary += kGemmKc;
        }
        acc += wo[k] * row[kj];
      }
    }
  return flushed ? total + acc : acc;
}

#if NEURFILL_CONV_VECTOR_EXT
/// kConvOr channels x lanes-of-V output columns in registers: one input
/// vector load feeds kConvOr independent accumulation chains, giving the
/// ILP the single-chain scalar loop lacks, with the input rows shared
/// across channels straight from L1.
///
/// All block kernels below take the filters either raw ([o][k] rows, WP =
/// false) or as the conv_weight_pack transposed panel ([k][o] blocks, WP =
/// true, `wgt` pointing at this kConvOr-channel block); the loaded values
/// and the FMA order are identical either way, so the two instantiations
/// are bitwise-equal and only differ in weight cache behavior.
template <typename V, bool WP = false>
void conv_direct_block(const float* const* prows, const float* wgt, int K,
                       int C, int kh, int kw, int j, std::int64_t cols,
                       float* out) {
  V total[kConvOr] = {}, acc[kConvOr] = {};
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const float* row = prows[c * kh + ki] + j;
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          for (int i = 0; i < kConvOr; ++i) {
            total[i] = flushed ? total[i] + acc[i] : acc[i];
            acc[i] = V{};
          }
          flushed = true;
          boundary += kGemmKc;
        }
        V xv;
        __builtin_memcpy(&xv, row + kj, sizeof xv);
        const float* wk =
            WP ? wgt + static_cast<std::size_t>(k) * kConvOr : wgt + k;
        for (int i = 0; i < kConvOr; ++i)
          acc[i] += (WP ? wk[i] : wk[static_cast<std::size_t>(i) * K]) * xv;
      }
    }
  for (int i = 0; i < kConvOr; ++i) {
    const V v = flushed ? total[i] + acc[i] : acc[i];
    __builtin_memcpy(out + static_cast<std::int64_t>(i) * cols, &v, sizeof v);
  }
}

/// Two lanes-of-V column blocks sharing each weight broadcast: per k the
/// kernel issues one broadcast and two input loads for 2*kConvOr FMAs,
/// easing the load-port pressure that bounds the single-block variant on
/// wide output rows.  Per-element chains are untouched.
template <typename V, bool WP = false>
void conv_direct_block2(const float* const* prows, const float* wgt, int K,
                        int C, int kh, int kw, int j, std::int64_t cols,
                        float* out) {
  constexpr int lanes = static_cast<int>(sizeof(V) / sizeof(float));
  V total0[kConvOr] = {}, acc0[kConvOr] = {};
  V total1[kConvOr] = {}, acc1[kConvOr] = {};
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const float* row = prows[c * kh + ki] + j;
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          for (int i = 0; i < kConvOr; ++i) {
            total0[i] = flushed ? total0[i] + acc0[i] : acc0[i];
            total1[i] = flushed ? total1[i] + acc1[i] : acc1[i];
            acc0[i] = V{};
            acc1[i] = V{};
          }
          flushed = true;
          boundary += kGemmKc;
        }
        V xv0, xv1;
        __builtin_memcpy(&xv0, row + kj, sizeof xv0);
        __builtin_memcpy(&xv1, row + kj + lanes, sizeof xv1);
        const float* wk =
            WP ? wgt + static_cast<std::size_t>(k) * kConvOr : wgt + k;
        for (int i = 0; i < kConvOr; ++i) {
          const float wi = WP ? wk[i] : wk[static_cast<std::size_t>(i) * K];
          acc0[i] += wi * xv0;
          acc1[i] += wi * xv1;
        }
      }
    }
  for (int i = 0; i < kConvOr; ++i) {
    const V v0 = flushed ? total0[i] + acc0[i] : acc0[i];
    const V v1 = flushed ? total1[i] + acc1[i] : acc1[i];
    float* dst = out + static_cast<std::int64_t>(i) * cols;
    __builtin_memcpy(dst, &v0, sizeof v0);
    __builtin_memcpy(dst + lanes, &v1, sizeof v1);
  }
}

/// Single-channel vector block for the O % kConvOr remainder (the 1x1
/// output head): one chain, still vectorized across output columns.
template <typename V>
void conv_direct_block1(const float* const* prows, const float* wo, int C,
                        int kh, int kw, int j, float* out) {
  V total = {}, acc = {};
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const float* row = prows[c * kh + ki] + j;
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          total = flushed ? total + acc : acc;
          flushed = true;
          acc = V{};
          boundary += kGemmKc;
        }
        V xv;
        __builtin_memcpy(&xv, row + kj, sizeof xv);
        acc += wo[k] * xv;
      }
    }
  const V v = flushed ? total + acc : acc;
  __builtin_memcpy(out + j, &v, sizeof v);
}

/// Two OUTPUT ROWS packed into one vector: lanes [0, half) are columns
/// j..j+half of output row oi, lanes [half, 2*half) the same columns of row
/// oi+1.  The narrow bottleneck rows (Wout = 8) fill only half a 16-lane
/// register on their own, capping them at the 8-lane FMA rate; pairing rows
/// restores full-width FMAs.  Each lane still owns an independent
/// GEMM-ordered chain, so pairing never perturbs a single output bit.
template <bool WP = false>
void conv_direct_block_pair(const float* const* prows0,
                            const float* const* prows1, const float* wgt,
                            int K, int C, int kh, int kw, int j, int wout,
                            std::int64_t cols, float* out) {
  using V = VOut16;
  constexpr int half = static_cast<int>(sizeof(V) / sizeof(float)) / 2;
  V total[kConvOr] = {}, acc[kConvOr] = {};
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const float* row0 = prows0[c * kh + ki] + j;
      const float* row1 = prows1[c * kh + ki] + j;
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          for (int i = 0; i < kConvOr; ++i) {
            total[i] = flushed ? total[i] + acc[i] : acc[i];
            acc[i] = V{};
          }
          flushed = true;
          boundary += kGemmKc;
        }
        // Half-vector loads combined in registers (shufflevector compiles
        // to a single insert); round-tripping the build through a stack
        // temporary would stall every iteration on store forwarding.
        VOut8 lo, hi;
        __builtin_memcpy(&lo, row0 + kj, sizeof lo);
        __builtin_memcpy(&hi, row1 + kj, sizeof hi);
        const V xv = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7,
                                             8, 9, 10, 11, 12, 13, 14, 15);
        const float* wk =
            WP ? wgt + static_cast<std::size_t>(k) * kConvOr : wgt + k;
        for (int i = 0; i < kConvOr; ++i)
          acc[i] += (WP ? wk[i] : wk[static_cast<std::size_t>(i) * K]) * xv;
      }
    }
  for (int i = 0; i < kConvOr; ++i) {
    const V v = flushed ? total[i] + acc[i] : acc[i];
    float* dst = out + static_cast<std::int64_t>(i) * cols;
    __builtin_memcpy(dst, &v, half * sizeof(float));
    __builtin_memcpy(dst + wout, reinterpret_cast<const float*>(&v) + half,
                     half * sizeof(float));
  }
}

/// Two full-width OUTPUT ROWS sharing each weight broadcast: vector 0 is
/// columns j..j+lanes of output row oi, vector 1 the same columns of row
/// oi+1.  The column-pair variant (conv_direct_block2) needs 2*lanes
/// columns in one row; 16-wide rows on a 16-lane host never have them, so
/// each row runs a lone block at half the FMA-per-broadcast rate.  Pairing
/// rows instead restores the 2x ratio with the same independent chains.
template <typename V, bool WP = false>
void conv_direct_block2_rows(const float* const* prows0,
                             const float* const* prows1, const float* wgt,
                             int K, int C, int kh, int kw, int j, int wout,
                             std::int64_t cols, float* out) {
  V total0[kConvOr] = {}, acc0[kConvOr] = {};
  V total1[kConvOr] = {}, acc1[kConvOr] = {};
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const std::size_t rk = static_cast<std::size_t>(c) * kh + ki;
      const float* row0 = prows0[rk] + j;
      const float* row1 = prows1[rk] + j;
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          for (int i = 0; i < kConvOr; ++i) {
            total0[i] = flushed ? total0[i] + acc0[i] : acc0[i];
            total1[i] = flushed ? total1[i] + acc1[i] : acc1[i];
            acc0[i] = V{};
            acc1[i] = V{};
          }
          flushed = true;
          boundary += kGemmKc;
        }
        V xv0, xv1;
        __builtin_memcpy(&xv0, row0 + kj, sizeof xv0);
        __builtin_memcpy(&xv1, row1 + kj, sizeof xv1);
        const float* wk =
            WP ? wgt + static_cast<std::size_t>(k) * kConvOr : wgt + k;
        for (int i = 0; i < kConvOr; ++i) {
          const float wi = WP ? wk[i] : wk[static_cast<std::size_t>(i) * K];
          acc0[i] += wi * xv0;
          acc1[i] += wi * xv1;
        }
      }
    }
  for (int i = 0; i < kConvOr; ++i) {
    const V v0 = flushed ? total0[i] + acc0[i] : acc0[i];
    const V v1 = flushed ? total1[i] + acc1[i] : acc1[i];
    float* dst = out + static_cast<std::int64_t>(i) * cols;
    __builtin_memcpy(dst, &v0, sizeof v0);
    __builtin_memcpy(dst + wout, &v1, sizeof v1);
  }
}

/// FOUR 8-wide output rows as two row-pair vectors sharing each weight
/// broadcast: vector 0 packs rows oi/oi+1 (conv_direct_block_pair's
/// layout), vector 1 rows oi+2/oi+3.  Same FMA-per-broadcast doubling as
/// conv_direct_block2_rows, one level narrower.
template <bool WP = false>
void conv_direct_block_pair2(const float* const* prows0,
                             const float* const* prows1,
                             const float* const* prows2,
                             const float* const* prows3, const float* wgt,
                             int K, int C, int kh, int kw, int j, int wout,
                             std::int64_t cols, float* out) {
  using V = VOut16;
  constexpr int half = static_cast<int>(sizeof(V) / sizeof(float)) / 2;
  V total0[kConvOr] = {}, acc0[kConvOr] = {};
  V total1[kConvOr] = {}, acc1[kConvOr] = {};
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const std::size_t rk = static_cast<std::size_t>(c) * kh + ki;
      const float* row0 = prows0[rk] + j;
      const float* row1 = prows1[rk] + j;
      const float* row2 = prows2[rk] + j;
      const float* row3 = prows3[rk] + j;
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          for (int i = 0; i < kConvOr; ++i) {
            total0[i] = flushed ? total0[i] + acc0[i] : acc0[i];
            total1[i] = flushed ? total1[i] + acc1[i] : acc1[i];
            acc0[i] = V{};
            acc1[i] = V{};
          }
          flushed = true;
          boundary += kGemmKc;
        }
        VOut8 a, b, c2, d;
        __builtin_memcpy(&a, row0 + kj, sizeof a);
        __builtin_memcpy(&b, row1 + kj, sizeof b);
        __builtin_memcpy(&c2, row2 + kj, sizeof c2);
        __builtin_memcpy(&d, row3 + kj, sizeof d);
        const V xv0 = __builtin_shufflevector(a, b, 0, 1, 2, 3, 4, 5, 6, 7, 8,
                                              9, 10, 11, 12, 13, 14, 15);
        const V xv1 = __builtin_shufflevector(c2, d, 0, 1, 2, 3, 4, 5, 6, 7, 8,
                                              9, 10, 11, 12, 13, 14, 15);
        const float* wk =
            WP ? wgt + static_cast<std::size_t>(k) * kConvOr : wgt + k;
        for (int i = 0; i < kConvOr; ++i) {
          const float wi = WP ? wk[i] : wk[static_cast<std::size_t>(i) * K];
          acc0[i] += wi * xv0;
          acc1[i] += wi * xv1;
        }
      }
    }
  for (int i = 0; i < kConvOr; ++i) {
    const V v0 = flushed ? total0[i] + acc0[i] : acc0[i];
    const V v1 = flushed ? total1[i] + acc1[i] : acc1[i];
    float* dst = out + static_cast<std::int64_t>(i) * cols;
    __builtin_memcpy(dst, &v0, half * sizeof(float));
    __builtin_memcpy(dst + wout, reinterpret_cast<const float*>(&v0) + half,
                     half * sizeof(float));
    __builtin_memcpy(dst + 2 * wout, &v1, half * sizeof(float));
    __builtin_memcpy(dst + 3 * wout, reinterpret_cast<const float*>(&v1) + half,
                     half * sizeof(float));
  }
}

/// FOUR output rows packed into one 16-lane vector: lanes [q*4, q*4+4) are
/// columns j..j+4 of output row oi+q.  The 4-wide UNet stages (a 16-window
/// tile's middle encoder/decoder level) would otherwise fall to the packed
/// GEMM, whose per-element unfold gather costs more than the product
/// itself at these shapes; quad packing keeps them on the zero-copy direct
/// kernel at full vector width.  Lanes are independent chains — packing
/// never perturbs a single output bit.
template <bool WP = false>
void conv_direct_block_quad(const float* const* prows0,
                            const float* const* prows1,
                            const float* const* prows2,
                            const float* const* prows3, const float* wgt,
                            int K, int C, int kh, int kw, int j, int wout,
                            std::int64_t cols, float* out) {
  using V = VOut16;
  constexpr int quarter = static_cast<int>(sizeof(V) / sizeof(float)) / 4;
  V total[kConvOr] = {}, acc[kConvOr] = {};
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const std::size_t rk = static_cast<std::size_t>(c) * kh + ki;
      const float* row0 = prows0[rk] + j;
      const float* row1 = prows1[rk] + j;
      const float* row2 = prows2[rk] + j;
      const float* row3 = prows3[rk] + j;
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          for (int i = 0; i < kConvOr; ++i) {
            total[i] = flushed ? total[i] + acc[i] : acc[i];
            acc[i] = V{};
          }
          flushed = true;
          boundary += kGemmKc;
        }
        // Quarter-vector loads combined in registers (two insert levels);
        // see conv_direct_block_pair for why a stack temporary would stall.
        VOut4 q0, q1, q2, q3;
        __builtin_memcpy(&q0, row0 + kj, sizeof q0);
        __builtin_memcpy(&q1, row1 + kj, sizeof q1);
        __builtin_memcpy(&q2, row2 + kj, sizeof q2);
        __builtin_memcpy(&q3, row3 + kj, sizeof q3);
        const VOut8 lo = __builtin_shufflevector(q0, q1, 0, 1, 2, 3, 4, 5, 6, 7);
        const VOut8 hi = __builtin_shufflevector(q2, q3, 0, 1, 2, 3, 4, 5, 6, 7);
        const V xv = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7,
                                             8, 9, 10, 11, 12, 13, 14, 15);
        const float* wk =
            WP ? wgt + static_cast<std::size_t>(k) * kConvOr : wgt + k;
        for (int i = 0; i < kConvOr; ++i)
          acc[i] += (WP ? wk[i] : wk[static_cast<std::size_t>(i) * K]) * xv;
      }
    }
  for (int i = 0; i < kConvOr; ++i) {
    const V v = flushed ? total[i] + acc[i] : acc[i];
    const float* vf = reinterpret_cast<const float*>(&v);
    float* dst = out + static_cast<std::int64_t>(i) * cols;
    for (int q = 0; q < 4; ++q)
      __builtin_memcpy(dst + static_cast<std::int64_t>(q) * wout,
                       vf + q * quarter, quarter * sizeof(float));
  }
}
#endif

/// One full output row (all O channels) from padded input row pointers.
/// `prows[c*kh + ki]` holds the input row oi+ki-pad shifted by the padding:
/// index j+kj reads input column j+kj-pad, zero outside the sample.
///
/// All row drivers take the raw filters in `wgt` plus the optional
/// conv_weight_pack transposed panel in `wp` (WP = true; full kConvOr
/// blocks only — scalar and remainder-channel paths always read `wgt`).
template <bool WP>
void conv_direct_row(const float* const* prows, const float* wgt,
                     const float* wp, int O, int K, int C, int kh, int kw,
                     int Wout, std::int64_t cols, float* yrow) {
  int o0 = 0;
#if NEURFILL_CONV_VECTOR_EXT
#if defined(__AVX512F__)
  constexpr bool kWide = true;  // 16-lane blocks are single zmm registers
#else
  constexpr bool kWide = false;
#endif
  for (; o0 + kConvOr <= O; o0 += kConvOr) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    const float* wob = WP ? wp + static_cast<std::size_t>(o0) * K : wo;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    int j = 0;
    if (kWide) {
      for (; j + 32 <= Wout; j += 32)
        conv_direct_block2<VOut16, WP>(prows, wob, K, C, kh, kw, j, cols,
                                       out + j);
      for (; j + 16 <= Wout; j += 16)
        conv_direct_block<VOut16, WP>(prows, wob, K, C, kh, kw, j, cols,
                                      out + j);
    } else {
      for (; j + 16 <= Wout; j += 16)
        conv_direct_block2<VOut8, WP>(prows, wob, K, C, kh, kw, j, cols,
                                      out + j);
    }
    for (; j + 8 <= Wout; j += 8)
      conv_direct_block<VOut8, WP>(prows, wob, K, C, kh, kw, j, cols, out + j);
    for (; j < Wout; ++j)
      for (int i = 0; i < kConvOr; ++i)
        out[static_cast<std::int64_t>(i) * cols + j] = conv_direct_one(
            prows, wo + static_cast<std::size_t>(i) * K, C, kh, kw, j);
  }
  for (; o0 < O; ++o0) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    int j = 0;
    if (kWide)
      for (; j + 16 <= Wout; j += 16)
        conv_direct_block1<VOut16>(prows, wo, C, kh, kw, j, out);
    for (; j + 8 <= Wout; j += 8)
      conv_direct_block1<VOut8>(prows, wo, C, kh, kw, j, out);
    for (; j < Wout; ++j)
      out[j] = conv_direct_one(prows, wo, C, kh, kw, j);
  }
#else
  for (; o0 < O; ++o0) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    for (int j = 0; j < Wout; ++j)
      out[j] = conv_direct_one(prows, wo, C, kh, kw, j);
  }
#endif
}

/// Whether the driver pairs adjacent output rows on narrow outputs (see
/// conv_direct_block_pair).  Worth it only where a 16-lane vector is one
/// register; on AVX2 the paired accumulators alone would overflow the
/// 16-register file and spill.
#if NEURFILL_CONV_VECTOR_EXT && defined(__AVX512F__)
constexpr bool kConvPairRows = true;
#else
constexpr bool kConvPairRows = false;
#endif

/// Two adjacent output rows oi (prows0) and oi+1 (prows1) at once, for
/// narrow outputs.  `yrow` addresses row oi of channel 0; row oi+1 of every
/// channel sits `wout` floats further into the same plane.
template <bool WP>
void conv_direct_row_pair(const float* const* prows0,
                          const float* const* prows1, const float* wgt,
                          const float* wp, int O, int K, int C, int kh,
                          int kw, int Wout, std::int64_t cols, float* yrow) {
#if NEURFILL_CONV_VECTOR_EXT
  int o0 = 0;
  for (; o0 + kConvOr <= O; o0 += kConvOr) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    const float* wob = WP ? wp + static_cast<std::size_t>(o0) * K : wo;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    int j = 0;
    for (; j + 8 <= Wout; j += 8)
      conv_direct_block_pair<WP>(prows0, prows1, wob, K, C, kh, kw, j,
                                 Wout, cols, out + j);
    for (; j < Wout; ++j)
      for (int i = 0; i < kConvOr; ++i) {
        float* dst = out + static_cast<std::int64_t>(i) * cols + j;
        const float* wi = wo + static_cast<std::size_t>(i) * K;
        dst[0] = conv_direct_one(prows0, wi, C, kh, kw, j);
        dst[Wout] = conv_direct_one(prows1, wi, C, kh, kw, j);
      }
  }
  for (; o0 < O; ++o0) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    for (int j = 0; j < Wout; ++j) {
      out[j] = conv_direct_one(prows0, wo, C, kh, kw, j);
      out[Wout + j] = conv_direct_one(prows1, wo, C, kh, kw, j);
    }
  }
#else
  conv_direct_row<WP>(prows0, wgt, wp, O, K, C, kh, kw, Wout, cols, yrow);
  conv_direct_row<WP>(prows1, wgt, wp, O, K, C, kh, kw, Wout, cols,
                      yrow + Wout);
#endif
}

/// Four adjacent output rows oi..oi+3 at once, for 4-wide outputs.  `yrow`
/// addresses row oi of channel 0; row oi+q of every channel sits q*wout
/// floats further into the same plane.
template <bool WP>
void conv_direct_row_quad(const float* const* prows0,
                          const float* const* prows1,
                          const float* const* prows2,
                          const float* const* prows3, const float* wgt,
                          const float* wp, int O, int K, int C, int kh,
                          int kw, int Wout, std::int64_t cols, float* yrow) {
#if NEURFILL_CONV_VECTOR_EXT
  int o0 = 0;
  for (; o0 + kConvOr <= O; o0 += kConvOr) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    const float* wob = WP ? wp + static_cast<std::size_t>(o0) * K : wo;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    int j = 0;
    for (; j + 4 <= Wout; j += 4)
      conv_direct_block_quad<WP>(prows0, prows1, prows2, prows3, wob, K, C,
                                 kh, kw, j, Wout, cols, out + j);
    for (; j < Wout; ++j)
      for (int i = 0; i < kConvOr; ++i) {
        float* dst = out + static_cast<std::int64_t>(i) * cols + j;
        const float* wi = wo + static_cast<std::size_t>(i) * K;
        dst[0] = conv_direct_one(prows0, wi, C, kh, kw, j);
        dst[Wout] = conv_direct_one(prows1, wi, C, kh, kw, j);
        dst[2 * Wout] = conv_direct_one(prows2, wi, C, kh, kw, j);
        dst[3 * Wout] = conv_direct_one(prows3, wi, C, kh, kw, j);
      }
  }
  for (; o0 < O; ++o0) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    for (int j = 0; j < Wout; ++j) {
      out[j] = conv_direct_one(prows0, wo, C, kh, kw, j);
      out[Wout + j] = conv_direct_one(prows1, wo, C, kh, kw, j);
      out[2 * Wout + j] = conv_direct_one(prows2, wo, C, kh, kw, j);
      out[3 * Wout + j] = conv_direct_one(prows3, wo, C, kh, kw, j);
    }
  }
#else
  conv_direct_row<WP>(prows0, wgt, wp, O, K, C, kh, kw, Wout, cols, yrow);
  conv_direct_row<WP>(prows1, wgt, wp, O, K, C, kh, kw, Wout, cols,
                      yrow + Wout);
  conv_direct_row<WP>(prows2, wgt, wp, O, K, C, kh, kw, Wout, cols,
                      yrow + 2 * Wout);
  conv_direct_row<WP>(prows3, wgt, wp, O, K, C, kh, kw, Wout, cols,
                      yrow + 3 * Wout);
#endif
}

/// Two adjacent output rows oi and oi+1 at once for 16-wide outputs: each
/// row is one full 16-lane block, the pair shares weight broadcasts
/// (conv_direct_block2_rows).
template <bool WP>
void conv_direct_row2_wide(const float* const* prows0,
                           const float* const* prows1, const float* wgt,
                           const float* wp, int O, int K, int C, int kh,
                           int kw, int Wout, std::int64_t cols, float* yrow) {
#if NEURFILL_CONV_VECTOR_EXT
  int o0 = 0;
  for (; o0 + kConvOr <= O; o0 += kConvOr) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    const float* wob = WP ? wp + static_cast<std::size_t>(o0) * K : wo;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    int j = 0;
    for (; j + 16 <= Wout; j += 16)
      conv_direct_block2_rows<VOut16, WP>(prows0, prows1, wob, K, C, kh, kw,
                                          j, Wout, cols, out + j);
    for (; j < Wout; ++j)
      for (int i = 0; i < kConvOr; ++i) {
        float* dst = out + static_cast<std::int64_t>(i) * cols + j;
        const float* wi = wo + static_cast<std::size_t>(i) * K;
        dst[0] = conv_direct_one(prows0, wi, C, kh, kw, j);
        dst[Wout] = conv_direct_one(prows1, wi, C, kh, kw, j);
      }
  }
  for (; o0 < O; ++o0) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    int j = 0;
    for (; j + 16 <= Wout; j += 16) {
      conv_direct_block1<VOut16>(prows0, wo, C, kh, kw, j, out);
      conv_direct_block1<VOut16>(prows1, wo, C, kh, kw, j, out + Wout);
    }
    for (; j < Wout; ++j) {
      out[j] = conv_direct_one(prows0, wo, C, kh, kw, j);
      out[Wout + j] = conv_direct_one(prows1, wo, C, kh, kw, j);
    }
  }
#else
  conv_direct_row<WP>(prows0, wgt, wp, O, K, C, kh, kw, Wout, cols, yrow);
  conv_direct_row<WP>(prows1, wgt, wp, O, K, C, kh, kw, Wout, cols,
                      yrow + Wout);
#endif
}

/// Four adjacent 8-wide output rows oi..oi+3 at once: two row-pair vectors
/// sharing weight broadcasts (conv_direct_block_pair2).
template <bool WP>
void conv_direct_row_quad8(const float* const* prows0,
                           const float* const* prows1,
                           const float* const* prows2,
                           const float* const* prows3, const float* wgt,
                           const float* wp, int O, int K, int C, int kh,
                           int kw, int Wout, std::int64_t cols, float* yrow) {
#if NEURFILL_CONV_VECTOR_EXT
  int o0 = 0;
  for (; o0 + kConvOr <= O; o0 += kConvOr) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    const float* wob = WP ? wp + static_cast<std::size_t>(o0) * K : wo;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    int j = 0;
    for (; j + 8 <= Wout; j += 8)
      conv_direct_block_pair2<WP>(prows0, prows1, prows2, prows3, wob, K, C,
                                  kh, kw, j, Wout, cols, out + j);
    for (; j < Wout; ++j)
      for (int i = 0; i < kConvOr; ++i) {
        float* dst = out + static_cast<std::int64_t>(i) * cols + j;
        const float* wi = wo + static_cast<std::size_t>(i) * K;
        dst[0] = conv_direct_one(prows0, wi, C, kh, kw, j);
        dst[Wout] = conv_direct_one(prows1, wi, C, kh, kw, j);
        dst[2 * Wout] = conv_direct_one(prows2, wi, C, kh, kw, j);
        dst[3 * Wout] = conv_direct_one(prows3, wi, C, kh, kw, j);
      }
  }
  for (; o0 < O; ++o0) {
    const float* wo = wgt + static_cast<std::size_t>(o0) * K;
    float* out = yrow + static_cast<std::int64_t>(o0) * cols;
    for (int j = 0; j < Wout; ++j) {
      out[j] = conv_direct_one(prows0, wo, C, kh, kw, j);
      out[Wout + j] = conv_direct_one(prows1, wo, C, kh, kw, j);
      out[2 * Wout + j] = conv_direct_one(prows2, wo, C, kh, kw, j);
      out[3 * Wout + j] = conv_direct_one(prows3, wo, C, kh, kw, j);
    }
  }
#else
  conv_direct_row_pair<WP>(prows0, prows1, wgt, wp, O, K, C, kh, kw, Wout,
                           cols, yrow);
  conv_direct_row_pair<WP>(prows2, prows3, wgt, wp, O, K, C, kh, kw, Wout,
                           cols, yrow + 2 * Wout);
#endif
}

/// Routes one row-group job to the row driver matching its geometry (see
/// the rpj selection in conv2d_gn_act_fwd_packed).  `ptrs` holds rpj
/// consecutive pointer tables of n_rows entries each.
template <bool WP>
void conv_direct_rows_dispatch(int rpj, int Wout, const float* const* ptrs,
                               std::size_t n_rows, const float* w,
                               const float* wp, int O, int K, int C, int kh,
                               int kw, std::int64_t cols, float* yrow) {
  if (rpj == 4 && Wout == 4)
    conv_direct_row_quad<WP>(ptrs, ptrs + n_rows, ptrs + 2 * n_rows,
                             ptrs + 3 * n_rows, w, wp, O, K, C, kh, kw, Wout,
                             cols, yrow);
  else if (rpj == 4)
    conv_direct_row_quad8<WP>(ptrs, ptrs + n_rows, ptrs + 2 * n_rows,
                              ptrs + 3 * n_rows, w, wp, O, K, C, kh, kw,
                              Wout, cols, yrow);
  else if (rpj == 2 && Wout == 16)
    conv_direct_row2_wide<WP>(ptrs, ptrs + n_rows, w, wp, O, K, C, kh, kw,
                              Wout, cols, yrow);
  else if (rpj == 2)
    conv_direct_row_pair<WP>(ptrs, ptrs + n_rows, w, wp, O, K, C, kh, kw,
                             Wout, cols, yrow);
  else
    conv_direct_row<WP>(ptrs, w, wp, O, K, C, kh, kw, Wout, cols, yrow);
}

inline float apply_act(ActKind act, float slope, float v) {
  switch (act) {
    case ActKind::kRelu:
      return v > 0.0f ? v : 0.0f;
    case ActKind::kLeakyRelu:
      return v > 0.0f ? v : slope * v;
    case ActKind::kNone:
      break;
  }
  return v;
}

template <typename F>
void map_unary(const float* x, float* y, std::int64_t n, F f) {
  runtime::parallel_for(elem_grain(n), static_cast<std::size_t>(n),
                        [=](std::size_t i0, std::size_t i1) {
                          for (std::size_t i = i0; i < i1; ++i) y[i] = f(x[i]);
                        });
}

template <typename F>
void map_binary(const float* a, const float* b, float* y, std::int64_t n,
                F f) {
  runtime::parallel_for(elem_grain(n), static_cast<std::size_t>(n),
                        [=](std::size_t i0, std::size_t i1) {
                          for (std::size_t i = i0; i < i1; ++i)
                            y[i] = f(a[i], b[i]);
                        });
}

}  // namespace

void CpuBackend::gemm(GemmKind kind, int M, int N, int K, const float* A,
                      const float* B, float* C, bool accumulate) {
  switch (kind) {
    case GemmKind::kNN:
      gemm_nn(M, N, K, A, B, C, accumulate);
      return;
    case GemmKind::kNT:
      gemm_nt(M, N, K, A, B, C, accumulate);
      return;
    case GemmKind::kTN:
      gemm_tn(M, N, K, A, B, C, accumulate);
      return;
  }
  NF_CHECK(false, "gemm: unknown kind %d", static_cast<int>(kind));
}

void CpuBackend::conv2d_fwd(const Conv2dGeom& g, const float* x,
                            const float* w, const float* bias, float* y) {
  NF_TRACE_SPAN("nn.conv2d");
  const int C = g.in_channels, H = g.height, W = g.width;
  const int O = g.out_channels, kh = g.kernel_h, kw = g.kernel_w;
  const int Hout = g.out_height, Wout = g.out_width;
  const int K = C * kh * kw;
  const int cols = Hout * Wout;
  check_unfold_geometry("conv2d_fwd", H, W, kh, kw, g.stride, g.padding, Hout,
                        Wout);
  const bool identity = identity_unfold(g);
  const std::size_t unfold_elems = static_cast<std::size_t>(K) * cols;
  // Small layers fork no jobs at all (see kSerialConvUnfoldElems above).
  // The threshold scales with the batch: a layer too small to be worth
  // forking per sample can still fill every core when the batch axis
  // multiplies the work (batched surrogate inference, training
  // minibatches).  Scheduling only — results are bitwise unchanged.
  std::optional<runtime::ThreadPool::SerialRegion> serial;
  if (unfold_elems * static_cast<std::size_t>(g.batch) <=
      kSerialConvUnfoldElems)
    serial.emplace();
  const std::size_t bias_grain = runtime::grain_for_cost(
      1.0 * static_cast<double>(cols), static_cast<std::size_t>(O));
  // Samples are independent (disjoint output planes), so the batch loop is
  // itself a parallel_for; each sample's per-element arithmetic is a pure
  // function of that sample, so the outer decomposition never changes
  // results.  Inner primitives degrade to inline blocks when the batch
  // level already forked (nested-parallelism rule, docs/runtime.md).  One
  // sample costs ~2*O*cols*K FLOPs at the packed kernel's ~10 FLOP/ns.
  const double sample_ns =
      2.0 * static_cast<double>(O) * static_cast<double>(cols) *
      static_cast<double>(K) / 10.0;
  runtime::parallel_for(
      runtime::grain_for_cost(sample_ns, static_cast<std::size_t>(g.batch)),
      static_cast<std::size_t>(g.batch), [=](std::size_t n0, std::size_t n1) {
        // Persistent unfold scratch: the (K, cols) im2col matrix is rebuilt
        // for every batch element of every conv in the network, so it lives
        // in a grow-only thread-local aligned buffer instead of a per-call
        // vector — zero allocations in steady state, and 64-byte alignment
        // feeds the packed GEMM full cache lines.  The identity unfold
        // (1x1, stride 1, no padding) skips the copy and streams the input
        // sample directly.
        static thread_local AlignedBuffer<float> tls_col;
        float* col = identity ? nullptr : tls_col.ensure(unfold_elems);
        for (std::size_t ns = n0; ns < n1; ++ns) {
          const int n = static_cast<int>(ns);
          const float* xn = x + static_cast<std::int64_t>(n) * C * H * W;
          const float* rhs = xn;
          if (!identity) {
            im2col(xn, C, H, W, kh, kw, g.stride, g.padding, Hout, Wout, col);
            rhs = col;
          }
          float* po = y + static_cast<std::int64_t>(n) * O * cols;
          gemm_nn(O, cols, K, w, rhs, po, false);
          if (bias) {
            runtime::parallel_for(
                bias_grain, static_cast<std::size_t>(O),
                [=](std::size_t o0, std::size_t o1) {
                  for (std::size_t o = o0; o < o1; ++o)
                    for (int i = 0; i < cols; ++i)
                      po[o * static_cast<std::size_t>(cols) + i] += bias[o];
                });
          }
        }
      });
}

void CpuBackend::conv2d_bwd(const Conv2dGeom& g, const float* x,
                            const float* w, const float* gy, float* gx,
                            float* gw, float* gb) {
  NF_TRACE_SPAN("nn.conv2d_backward");
  const int C = g.in_channels, H = g.height, W = g.width;
  const int O = g.out_channels, kh = g.kernel_h, kw = g.kernel_w;
  const int Hout = g.out_height, Wout = g.out_width;
  const int K = C * kh * kw;
  const int cols = Hout * Wout;
  check_unfold_geometry("conv2d_bwd", H, W, kh, kw, g.stride, g.padding, Hout,
                        Wout);
  NF_CHECK(!gw || x != nullptr, "conv2d_bwd: null x with gw");
  NF_CHECK(!gx || w != nullptr, "conv2d_bwd: null w with gx");
  const bool identity = identity_unfold(g);
  // Same persistent-scratch scheme as the forward pass; separate buffers
  // because dcol is consumed (col2im) while colbuf is still live for the
  // weight gradient.  The identity unfold needs neither: the weight
  // gradient streams the input directly and the input gradient accumulates
  // straight out of the GEMM (col2im is elementwise += there).  Only the
  // weight gradient reads the unfolded input, so a data-gradient-only call
  // (the session VJP) never unfolds.
  static thread_local AlignedBuffer<float> tls_colbuf;
  static thread_local AlignedBuffer<float> tls_dcol;
  const std::size_t unfold_elems = static_cast<std::size_t>(K) * cols;
  float* colbuf = (!identity && gw) ? tls_colbuf.ensure(unfold_elems) : nullptr;
  float* dcol = (!identity && gx) ? tls_dcol.ensure(unfold_elems) : nullptr;
  // Same serial threshold as the forward pass: the backward unfolds and
  // GEMMs are the same shapes, plus one col2im scatter.
  std::optional<runtime::ThreadPool::SerialRegion> serial;
  if (unfold_elems <= kSerialConvUnfoldElems) serial.emplace();
  const std::size_t gb_grain = runtime::grain_for_cost(
      1.0 * static_cast<double>(cols), static_cast<std::size_t>(O));
  for (int n = 0; n < g.batch; ++n) {
    const float* gout = gy + static_cast<std::int64_t>(n) * O * cols;
    const float* xn =
        x ? x + static_cast<std::int64_t>(n) * C * H * W : nullptr;
    if (gw) {
      // The unfolded input is recomputed rather than cached: it is the
      // largest intermediate and recomputation is one im2col pass.
      if (!identity)
        im2col(xn, C, H, W, kh, kw, g.stride, g.padding, Hout, Wout, colbuf);
      // dW += dOut (O,cols) * col^T (cols,K)
      gemm_nt(O, K, cols, gout, identity ? xn : colbuf, gw, true);
    }
    if (gx) {
      float* gxn = gx + static_cast<std::int64_t>(n) * C * H * W;
      if (identity) {  // dX += W^T (K,O) * dOut (O,cols), no scatter needed
        gemm_tn(K, cols, O, w, gout, gxn, true);
      } else {  // dcol = W^T (K,O) * dOut (O,cols)
        gemm_tn(K, cols, O, w, gout, dcol, false);
        col2im(dcol, C, H, W, kh, kw, g.stride, g.padding, Hout, Wout, gxn);
      }
    }
    if (gb) {
      runtime::parallel_for(
          gb_grain, static_cast<std::size_t>(O),
          [=](std::size_t o0, std::size_t o1) {
            for (std::size_t o = o0; o < o1; ++o) {
              float acc = gb[o];
              for (int i = 0; i < cols; ++i)
                acc += gout[o * static_cast<std::size_t>(cols) + i];
              gb[o] = acc;
            }
          });
    }
  }
}

void CpuBackend::unary_map(UnaryKind op, float p, const float* x, float* y,
                           std::int64_t n) {
  switch (op) {
    case UnaryKind::kAddScalar:
      map_unary(x, y, n, [p](float v) { return v + p; });
      return;
    case UnaryKind::kMulScalar:
      map_unary(x, y, n, [p](float v) { return v * p; });
      return;
    case UnaryKind::kNeg:
      map_unary(x, y, n, [](float v) { return v * -1.0f; });
      return;
    case UnaryKind::kRelu:
      map_unary(x, y, n, [](float v) { return v > 0.0f ? v : 0.0f; });
      return;
    case UnaryKind::kLeakyRelu:
      map_unary(x, y, n, [p](float v) { return v > 0.0f ? v : p * v; });
      return;
    case UnaryKind::kSigmoid:
      map_unary(x, y, n, [](float v) {
        // Numerically stable logistic.
        return v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                         : std::exp(v) / (1.0f + std::exp(v));
      });
      return;
    case UnaryKind::kTanh:
      map_unary(x, y, n, [](float v) { return std::tanh(v); });
      return;
    case UnaryKind::kExp:
      map_unary(x, y, n, [](float v) { return std::exp(v); });
      return;
    case UnaryKind::kLog:
      map_unary(x, y, n, [](float v) { return std::log(v); });
      return;
    case UnaryKind::kAbs:
      map_unary(x, y, n, [](float v) { return std::fabs(v); });
      return;
    case UnaryKind::kSqrt:
      map_unary(x, y, n, [](float v) { return std::sqrt(v); });
      return;
    case UnaryKind::kSquare:
      map_unary(x, y, n, [](float v) { return v * v; });
      return;
    case UnaryKind::kSoftplus:
      map_unary(x, y, n, [p](float v) {
        const float z = p * v;
        // log(1+e^z)/eta, stable for large |z|.
        return z > 20.0f ? v
                         : (z < -20.0f ? std::exp(z) / p
                                       : std::log1p(std::exp(z)) / p);
      });
      return;
  }
  NF_CHECK(false, "unary_map: unknown op %d", static_cast<int>(op));
}

void CpuBackend::binary_map(BinaryKind op, const float* a, const float* b,
                            float* y, std::int64_t n) {
  switch (op) {
    case BinaryKind::kAdd:
      map_binary(a, b, y, n, [](float u, float v) { return u + v; });
      return;
    case BinaryKind::kSub:
      map_binary(a, b, y, n, [](float u, float v) { return u - v; });
      return;
    case BinaryKind::kMul:
      map_binary(a, b, y, n, [](float u, float v) { return u * v; });
      return;
    case BinaryKind::kDiv:
      map_binary(a, b, y, n, [](float u, float v) { return u / v; });
      return;
  }
  NF_CHECK(false, "binary_map: unknown op %d", static_cast<int>(op));
}

double CpuBackend::reduce_sum(const float* x, std::int64_t n) {
  // Deterministic blocked reduction: the per-block partials are combined in
  // block order, so the value is bitwise identical at every thread count.
  return runtime::parallel_reduce(
      elem_grain(n), static_cast<std::size_t>(n), 0.0,
      [=](std::size_t i0, std::size_t i1) {
        double s = 0.0;
        for (std::size_t i = i0; i < i1; ++i)
          s += static_cast<double>(x[i]);
        return s;
      },
      [](double a, double b) { return a + b; });
}

void CpuBackend::group_norm_fwd(const GroupNormGeom& g, const float* x,
                                const float* gamma, const float* beta,
                                float* y, double* mean_out, double* istd_out) {
  const int N = g.batch, C = g.channels, H = g.height, W = g.width;
  const int groups = g.groups;
  NF_CHECK(groups > 0 && C % groups == 0,
           "group_norm_fwd: C=%d not divisible by groups=%d", C, groups);
  const int cpg = C / groups;
  const std::int64_t gsize = static_cast<std::int64_t>(cpg) * H * W;
  for (int n = 0; n < N; ++n) {
    for (int gi = 0; gi < groups; ++gi) {
      const float* base =
          x + (static_cast<std::int64_t>(n) * C + gi * cpg) * H * W;
      double m = 0.0;
      for (std::int64_t i = 0; i < gsize; ++i)
        m += static_cast<double>(base[i]);
      m /= static_cast<double>(gsize);
      double v = 0.0;
      for (std::int64_t i = 0; i < gsize; ++i) {
        const double d = static_cast<double>(base[i]) - m;
        v += d * d;
      }
      v /= static_cast<double>(gsize);
      const double istd = 1.0 / std::sqrt(v + static_cast<double>(g.eps));
      if (mean_out) mean_out[n * groups + gi] = m;
      if (istd_out) istd_out[n * groups + gi] = istd;
      float* ob = y + (static_cast<std::int64_t>(n) * C + gi * cpg) * H * W;
      for (int c = 0; c < cpg; ++c) {
        const float gm = gamma[gi * cpg + c];
        const float bt = beta[gi * cpg + c];
        const float* sb = base + static_cast<std::int64_t>(c) * H * W;
        float* db = ob + static_cast<std::int64_t>(c) * H * W;
        for (int i = 0; i < H * W; ++i)
          db[i] =
              static_cast<float>((static_cast<double>(sb[i]) - m) * istd) *
                  gm +
              bt;
      }
    }
  }
}

void CpuBackend::maxpool2x2_fwd(std::int64_t planes, int height, int width,
                                const float* x, float* y,
                                std::int64_t* argmax) {
  const int H = height, W = width;
  NF_CHECK(H % 2 == 0 && W % 2 == 0, "maxpool2x2_fwd: odd extent %dx%d", H, W);
  const int Ho = H / 2, Wo = W / 2;
  std::int64_t o = 0;
  for (std::int64_t nc = 0; nc < planes; ++nc) {
    const float* plane = x + nc * H * W;
    for (int i = 0; i < Ho; ++i) {
      for (int j = 0; j < Wo; ++j) {
        const std::int64_t base = static_cast<std::int64_t>(2 * i) * W + 2 * j;
        std::int64_t best = base;
        float bv = plane[base];
        for (const std::int64_t cand : {base + 1, base + W, base + W + 1}) {
          if (plane[cand] > bv) {
            bv = plane[cand];
            best = cand;
          }
        }
        y[o] = bv;
        if (argmax) argmax[o] = nc * H * W + best;
        ++o;
      }
    }
  }
}

void CpuBackend::upsample2x_fwd(std::int64_t planes, int height, int width,
                                const float* x, float* y) {
  const int H = height, W = width;
  for (std::int64_t nc = 0; nc < planes; ++nc) {
    const float* sp = x + nc * H * W;
    float* dp = y + nc * 4 * H * W;
    for (int i = 0; i < H; ++i) {
      for (int j = 0; j < W; ++j) {
        const float v = sp[i * W + j];
        const std::int64_t b = static_cast<std::int64_t>(2 * i) * 2 * W + 2 * j;
        dp[b] = v;
        dp[b + 1] = v;
        dp[b + 2 * W] = v;
        dp[b + 2 * W + 1] = v;
      }
    }
  }
}

void CpuBackend::concat_channels_fwd(int batch, int channels_a, int channels_b,
                                     std::int64_t plane, const float* a,
                                     const float* b, float* y) {
  const std::int64_t Ca = channels_a, Cb = channels_b;
  for (int n = 0; n < batch; ++n) {
    std::copy(a + n * Ca * plane, a + (n + 1) * Ca * plane,
              y + n * (Ca + Cb) * plane);
    std::copy(b + n * Cb * plane, b + (n + 1) * Cb * plane,
              y + (n * (Ca + Cb) + Ca) * plane);
  }
}

/// Does the fused block take the packed-GEMM fallback for a single sample
/// (stride or an output too narrow for the direct kernel's vector blocks)?
/// 4-wide outputs with a multiple-of-4 height stay direct on 16-lane hosts
/// via quad row packing (conv_direct_block_quad).  The branch in
/// conv2d_gn_act_fwd_packed below consumes this predicate directly;
/// batch-independent by construction.
static bool fused_conv_uses_gemm(const Conv2dGeom& g) {
  if (g.stride != 1) return true;
  if (g.out_width >= 8) return false;
  return !(kConvPairRows && g.out_width == 4 && g.out_height % 4 == 0);
}

std::size_t CpuBackend::conv_weight_pack_floats(const Conv2dGeom& g) {
  // GEMM-fallback convs consume a gemm_pack_a A panel — per sample at
  // batch 1, as one whole-batch product at batch > 1.  Direct-kernel convs
  // consume the filters transposed to [k][o] in kConvOr-channel blocks:
  // the raw [o][k] layout makes every k-step touch kConvOr distinct cache
  // lines (one per output channel), which falls out of L1 as soon as
  // O * K * 4 bytes does — exactly the deep narrow stages; the transposed
  // panel puts each k's block of weights on one line.  Values and FMA
  // order are untouched, so the packed form is bitwise-neutral.  Only full
  // kConvOr blocks are packed; the remainder channels (the 1-channel head)
  // read the raw filters.
  const int K = g.in_channels * g.kernel_h * g.kernel_w;
  if (fused_conv_uses_gemm(g)) return gemm_packed_a_floats(g.out_channels, K);
  return static_cast<std::size_t>(g.out_channels - g.out_channels % kConvOr) *
         static_cast<std::size_t>(K);
}

void CpuBackend::conv_weight_pack(const Conv2dGeom& g, const float* w,
                                  float* dst) {
  const int O = g.out_channels;
  const int K = g.in_channels * g.kernel_h * g.kernel_w;
  if (fused_conv_uses_gemm(g)) {
    gemm_pack_a(w, O, K, dst);
    return;
  }
  for (int ob = 0; ob + kConvOr <= O; ob += kConvOr)
    for (int k = 0; k < K; ++k)
      for (int i = 0; i < kConvOr; ++i)
        *dst++ = w[static_cast<std::size_t>(ob + i) * K + k];
}

void CpuBackend::conv2d_gn_act_fwd(const Conv2dGeom& g, int groups, float eps,
                                   ActKind act, float slope, const float* x,
                                   const float* w, const float* bias,
                                   const float* gamma, const float* beta,
                                   float* y) {
  conv2d_gn_act_fwd_packed(g, groups, eps, act, slope, x, w, nullptr, bias,
                           gamma, beta, y);
}

void CpuBackend::conv2d_gn_act_fwd_packed(
    const Conv2dGeom& g, int groups, float eps, ActKind act, float slope,
    const float* x, const float* w, const float* packed_w, const float* bias,
    const float* gamma, const float* beta, float* y) {
  NF_TRACE_SPAN("nn.conv2d_fused");
  const int C = g.in_channels, H = g.height, W = g.width;
  const int O = g.out_channels, kh = g.kernel_h, kw = g.kernel_w;
  const int Hout = g.out_height, Wout = g.out_width;
  const int K = C * kh * kw;
  const int cols = Hout * Wout;
  check_unfold_geometry("conv2d_gn_act_fwd", H, W, kh, kw, g.stride, g.padding,
                        Hout, Wout);
  NF_CHECK(groups >= 0 && (groups == 0 || O % groups == 0),
           "conv2d_gn_act_fwd: O=%d not divisible by groups=%d", O, groups);
  NF_CHECK(groups == 0 || (gamma && beta),
           "conv2d_gn_act_fwd: normalization without gamma/beta");
  const std::size_t unfold_elems = static_cast<std::size_t>(K) * cols;
  // As in conv2d_fwd, the serial threshold scales with the batch so batched
  // inference forks even on layers too small to fork per sample.
  std::optional<runtime::ThreadPool::SerialRegion> serial;
  if (unfold_elems * static_cast<std::size_t>(g.batch) <=
      kSerialConvUnfoldElems)
    serial.emplace();

  bool epilogue_in_kernel = false;
  if (g.batch > 1 && fused_conv_uses_gemm(g)) {
    // Whole-batch fused GEMM: every sample's unfold columns concatenate
    // into one (K x batch*cols) right-hand side and the filters multiply
    // it in a single product.  The per-sample fallback at these narrow
    // outputs runs the micro-kernel on mostly-padding slivers (a 2x2 plane
    // fills 4 of 16 lanes) and pays the per-call GEMM setup per sample;
    // fusing the batch restores full-width slivers and amortizes every
    // per-call cost across B samples.  Bitwise: each output element's
    // accumulation chain in the wide GEMM is identical to its chain in the
    // per-sample product — the K-slab decomposition depends only on K, and
    // columns are independent accumulator lanes — so batch-B stays byte-
    // identical to B batch-1 runs (asserted by tests/test_inference.cpp).
    const int NB = g.batch * cols;
    // GEMM output is (O x batch*cols) — sample-minor — while y is
    // (batch x O x cols), so the product lands in scratch and a pure copy
    // fans the rows out per sample.
    static thread_local AlignedBuffer<float> tls_cbig;
    float* cbig = tls_cbig.ensure(static_cast<std::size_t>(O) * NB);
    const auto gather = [=](int s, float* dst) {
      pack_conv_sliver_batched(x, C, H, W, kh, kw, g.stride, g.padding, Hout,
                               Wout, g.batch, s, dst);
    };
    if (packed_w)
      gemm_prepacked_a(O, NB, K, packed_w, gather, cbig, false);
    else
      gemm_packed_b(O, NB, K, w, gather, cbig, false);
    const std::size_t out_rows = static_cast<std::size_t>(g.batch) * O;
    runtime::parallel_for(
        runtime::grain_for_cost(0.5 * cols, out_rows), out_rows,
        [=](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r) {
            const std::size_t n = r / static_cast<std::size_t>(O);
            const std::size_t o = r % static_cast<std::size_t>(O);
            std::memcpy(y + r * cols,
                        cbig + o * static_cast<std::size_t>(NB) + n * cols,
                        sizeof(float) * static_cast<std::size_t>(cols));
          }
        });
  } else if (!fused_conv_uses_gemm(g)) {
    // The direct kernel's vector blocks need at least 8 output columns per
    // row (or 4 with quad row packing); below that every element falls to
    // the scalar path, whose serial FMA chain runs ~4x slower per product
    // than the GEMM (which flattens all Hout*Wout pixels into one
    // vectorizable axis).  Outputs narrower still — the deepest stages of
    // a small-window UNet — take the GEMM branch instead; the shared chain
    // contract keeps the two bitwise identical.
    // Direct convolution (see the block comment above conv_direct_one).
    // The zero-padded input plane is materialized ONCE per call (disjoint
    // row writes, any order — the pads are constants), then every output
    // row just indexes into it: the per-output-row jobs touch no scratch
    // beyond a small pointer table, and no input row is copied kh times
    // the way a per-row padding buffer would.  A padding-0 layer needs no
    // plane at all: the pointers alias the input rows directly (the fused
    // analogue of the identity-unfold im2col skip).  The job partition
    // never changes any element's chain, so the result is bitwise stable
    // at any thread count.
    const int P = g.padding;
    const int plane_h = H + 2 * P;
    const int prow_len = W + 2 * P;
    const std::size_t n_rows = static_cast<std::size_t>(C) * kh;
    const float* padded = nullptr;
    if (P > 0) {
      // Caller-thread grow-only scratch; pool jobs only ever read it.
      static thread_local AlignedBuffer<float> tls_padded;
      const std::size_t pad_rows =
          static_cast<std::size_t>(g.batch) * C * plane_h;
      float* pad = tls_padded.ensure(pad_rows * prow_len);
      runtime::parallel_for(
          runtime::grain_for_cost(0.5 * prow_len, pad_rows), pad_rows,
          [=](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
              const std::size_t nc = r / static_cast<std::size_t>(plane_h);
              const int ii =
                  static_cast<int>(r % static_cast<std::size_t>(plane_h)) - P;
              float* dst = pad + r * prow_len;
              if (ii < 0 || ii >= H) {
                std::memset(dst, 0, sizeof(float) * prow_len);
                continue;
              }
              for (int v = 0; v < P; ++v) dst[v] = 0.0f;
              std::memcpy(dst + P, x + (nc * H + ii) * W, sizeof(float) * W);
              for (int v = 0; v < P; ++v) dst[P + W + v] = 0.0f;
            }
          });
      padded = pad;
    }
    // Group adjacent rows per job so the block kernels can fill wide
    // vectors (4- and 8-wide outputs) and share weight broadcasts across
    // rows (8- and 16-wide); the grouping depends only on the geometry,
    // never the thread count.
    const bool quad = kConvPairRows && Wout == 4;  // gated by Hout % 4 above
    const bool quad8 = kConvPairRows && Wout == 8 && Hout % 4 == 0;
    const bool pair = kConvPairRows && Wout == 8 && Hout % 2 == 0;
    const bool pair16 = kConvPairRows && Wout == 16 && Hout % 2 == 0;
    const int rpj = quad || quad8 ? 4 : pair || pair16 ? 2 : 1;
    const int jobs_per_sample = Hout / rpj;
    const std::size_t jobs =
        static_cast<std::size_t>(g.batch) * jobs_per_sample;
    // ~10 sustained FLOP/ns for the register-blocked kernel.
    const double row_ns = 2.0 * static_cast<double>(O) * K *
                          static_cast<double>(Wout) * rpj / 10.0;
    // The in-kernel epilogue below folds bias+activation into the job that
    // produced the rows (L1-hot) — groups > 0 still needs the full-tensor
    // statistics pass, so normalized layers keep the standalone epilogue.
    const bool fold = groups == 0 && (bias != nullptr || act != ActKind::kNone);
    epilogue_in_kernel = fold;
    runtime::parallel_for(
        runtime::grain_for_cost(row_ns, jobs), jobs,
        [=](std::size_t r0, std::size_t r1) {
          static thread_local std::vector<const float*> tls_ptrs;
          tls_ptrs.resize(n_rows * static_cast<std::size_t>(rpj));
          const float** ptrs = tls_ptrs.data();
          for (std::size_t r = r0; r < r1; ++r) {
            const int n =
                static_cast<int>(r / static_cast<std::size_t>(jobs_per_sample));
            const int oi =
                static_cast<int>(r % static_cast<std::size_t>(jobs_per_sample)) *
                rpj;
            // Padded row oi+ki holds input row oi+ki-P (zeros outside); with
            // P == 0 the base aliases the sample and the formula is the same.
            const float* base =
                P > 0 ? padded + (static_cast<std::size_t>(n) * C * plane_h) *
                                     prow_len
                      : x + static_cast<std::int64_t>(n) * C * H * W;
            for (int set = 0; set < rpj; ++set)
              for (int c = 0; c < C; ++c)
                for (int ki = 0; ki < kh; ++ki)
                  ptrs[static_cast<std::size_t>(set) * n_rows +
                       static_cast<std::size_t>(c) * kh + ki] =
                      base + (static_cast<std::size_t>(c) * plane_h +
                              static_cast<std::size_t>(oi + ki + set)) *
                                 prow_len;
            float* yrow = y + static_cast<std::int64_t>(n) * O * cols +
                          static_cast<std::int64_t>(oi) * Wout;
            if (packed_w)
              conv_direct_rows_dispatch<true>(rpj, Wout, ptrs, n_rows, w,
                                              packed_w, O, K, C, kh, kw,
                                              cols, yrow);
            else
              conv_direct_rows_dispatch<false>(rpj, Wout, ptrs, n_rows, w,
                                               nullptr, O, K, C, kh, kw,
                                               cols, yrow);
            if (!fold) continue;
            // Bias + activation on the rows this job just wrote, exactly the
            // arithmetic of the standalone epilogue pass (bias add only when
            // a bias exists: adding 0.0f would flip the sign bit of -0.0).
            for (int o = 0; o < O; ++o) {
              float* row = yrow + static_cast<std::int64_t>(o) * cols;
              if (bias) {
                const float bv = bias[o];
                for (int i = 0; i < Wout * rpj; ++i)
                  row[i] = apply_act(act, slope, row[i] + bv);
              } else {
                for (int i = 0; i < Wout * rpj; ++i)
                  row[i] = apply_act(act, slope, row[i]);
              }
            }
          }
        });
  } else {
    // Strided and narrow-output layers fall back to the packed GEMM with
    // its right-hand side gathered straight from the input sample
    // (pack_conv_sliver) — no im2col buffer in this path either, and
    // bitwise identical to the direct kernel by the shared chain contract.
    // When the caller pre-packed the (constant) filters, the per-call A
    // packing disappears too: gemm_prepacked_a consumes the panel with the
    // identical decomposition, so the product is bitwise unchanged.  The
    // batch loop parallelizes over samples (disjoint outputs; per-sample
    // GEMM decomposition is batch-independent, so chains never change).
    const bool identity = identity_unfold(g);
    const double sample_ns =
        2.0 * static_cast<double>(O) * static_cast<double>(cols) *
        static_cast<double>(K) / 10.0;
    runtime::parallel_for(
        runtime::grain_for_cost(sample_ns, static_cast<std::size_t>(g.batch)),
        static_cast<std::size_t>(g.batch),
        [=](std::size_t n0, std::size_t n1) {
          for (std::size_t ns = n0; ns < n1; ++ns) {
            const int n = static_cast<int>(ns);
            const float* xn = x + static_cast<std::int64_t>(n) * C * H * W;
            float* yn = y + static_cast<std::int64_t>(n) * O * cols;
            if (packed_w) {
              gemm_prepacked_a(
                  O, cols, K, packed_w,
                  [=](int s, float* dst) {
                    pack_conv_sliver(xn, C, H, W, kh, kw, g.stride, g.padding,
                                     Hout, Wout, s, dst);
                  },
                  yn, false);
            } else if (identity) {
              gemm_nn(O, cols, K, w, xn, yn, false);
            } else {
              gemm_packed_b(
                  O, cols, K, w,
                  [=](int s, float* dst) {
                    pack_conv_sliver(xn, C, H, W, kh, kw, g.stride, g.padding,
                                     Hout, Wout, s, dst);
                  },
                  yn, false);
            }
          }
        });
  }

  // Epilogue.  Bias add, group statistics, normalization, and activation
  // reproduce the unfused kernels' arithmetic exactly: float bias add per
  // element, double mean/variance accumulated over the group in flat index
  // order, the same normalize-then-scale cast points, activation last.
  if (groups > 0) {
    const int cpg = O / groups;
    const std::int64_t gsize = static_cast<std::int64_t>(cpg) * cols;
    const std::size_t jobs = static_cast<std::size_t>(g.batch) * groups;
    // ~8 ns per group element across the bias/stats/normalize passes.
    runtime::parallel_for(
        runtime::grain_for_cost(8.0 * static_cast<double>(gsize), jobs), jobs,
        [=](std::size_t j0, std::size_t j1) {
          // One group's bias/stats/normalize, the unfused kernels'
          // arithmetic verbatim.
          const auto gn_one = [=](std::size_t job) {
            const int n = static_cast<int>(job) / groups;
            const int gi = static_cast<int>(job) % groups;
            float* base =
                y + (static_cast<std::int64_t>(n) * O + gi * cpg) * cols;
            double m = 0.0;
            if (bias) {
              // Bias lands with the same per-element float rounding as the
              // unfused bias pass; the mean accumulates the stored values
              // in the same flat order the unfused statistics walk.
              for (int c = 0; c < cpg; ++c) {
                const float bv = bias[gi * cpg + c];
                float* row = base + static_cast<std::int64_t>(c) * cols;
                for (int i = 0; i < cols; ++i) {
                  const float v = row[i] + bv;
                  row[i] = v;
                  m += static_cast<double>(v);
                }
              }
            } else {
              for (std::int64_t i = 0; i < gsize; ++i)
                m += static_cast<double>(base[i]);
            }
            m /= static_cast<double>(gsize);
            double var = 0.0;
            for (std::int64_t i = 0; i < gsize; ++i) {
              const double d = static_cast<double>(base[i]) - m;
              var += d * d;
            }
            var /= static_cast<double>(gsize);
            const double istd = 1.0 / std::sqrt(var + static_cast<double>(eps));
            for (int c = 0; c < cpg; ++c) {
              const float gm = gamma[gi * cpg + c];
              const float bt = beta[gi * cpg + c];
              float* row = base + static_cast<std::int64_t>(c) * cols;
              for (int i = 0; i < cols; ++i) {
                const float v =
                    static_cast<float>((static_cast<double>(row[i]) - m) *
                                       istd) *
                        gm +
                    bt;
                row[i] = apply_act(act, slope, v);
              }
            }
          };
          // Four group chains interleaved per step: each group's mean and
          // variance stay the exact serial double chains of the unfused
          // kernels (flat order, one accumulator per group), and the
          // independent chains hide the FP-add latency that makes a lone
          // chain ~3 ns per element.  No value ever crosses chains, so the
          // result is bitwise identical for any range partition and any
          // interleave width — the remainder jobs just run one at a time.
          constexpr int kIl = 4;
          std::size_t job = j0;
          for (; job + kIl <= j1; job += kIl) {
            float* bases[kIl];
            int gis[kIl];
            for (int b = 0; b < kIl; ++b) {
              const std::size_t jb = job + static_cast<std::size_t>(b);
              const int n = static_cast<int>(jb) / groups;
              gis[b] = static_cast<int>(jb) % groups;
              bases[b] =
                  y + (static_cast<std::int64_t>(n) * O + gis[b] * cpg) * cols;
            }
            double m[kIl] = {};
            if (bias) {
              for (int c = 0; c < cpg; ++c) {
                float bv[kIl];
                float* rows[kIl];
                for (int b = 0; b < kIl; ++b) {
                  bv[b] = bias[gis[b] * cpg + c];
                  rows[b] = bases[b] + static_cast<std::int64_t>(c) * cols;
                }
                for (int i = 0; i < cols; ++i)
                  for (int b = 0; b < kIl; ++b) {
                    const float v = rows[b][i] + bv[b];
                    rows[b][i] = v;
                    m[b] += static_cast<double>(v);
                  }
              }
            } else {
              for (std::int64_t i = 0; i < gsize; ++i)
                for (int b = 0; b < kIl; ++b)
                  m[b] += static_cast<double>(bases[b][i]);
            }
            for (int b = 0; b < kIl; ++b) m[b] /= static_cast<double>(gsize);
            double var[kIl] = {};
            for (std::int64_t i = 0; i < gsize; ++i)
              for (int b = 0; b < kIl; ++b) {
                const double d = static_cast<double>(bases[b][i]) - m[b];
                var[b] += d * d;
              }
            for (int b = 0; b < kIl; ++b) {
              var[b] /= static_cast<double>(gsize);
              const double istd =
                  1.0 / std::sqrt(var[b] + static_cast<double>(eps));
              for (int c = 0; c < cpg; ++c) {
                const float gm = gamma[gis[b] * cpg + c];
                const float bt = beta[gis[b] * cpg + c];
                float* row = bases[b] + static_cast<std::int64_t>(c) * cols;
                for (int i = 0; i < cols; ++i) {
                  const float v =
                      static_cast<float>((static_cast<double>(row[i]) - m[b]) *
                                         istd) *
                          gm +
                      bt;
                  row[i] = apply_act(act, slope, v);
                }
              }
            }
          }
          for (; job < j1; ++job) gn_one(job);
        });
  } else if (!epilogue_in_kernel && (bias || act != ActKind::kNone)) {
    const std::size_t rows = static_cast<std::size_t>(g.batch) * O;
    runtime::parallel_for(
        runtime::grain_for_cost(2.0 * static_cast<double>(cols), rows), rows,
        [=](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r) {
            const int o = static_cast<int>(r % static_cast<std::size_t>(O));
            float* row = y + r * static_cast<std::size_t>(cols);
            if (bias) {
              const float bv = bias[o];
              for (int i = 0; i < cols; ++i)
                row[i] = apply_act(act, slope, row[i] + bv);
            } else {
              for (int i = 0; i < cols; ++i)
                row[i] = apply_act(act, slope, row[i]);
            }
          }
        });
  }
}

}  // namespace neurfill::nn
