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
  if (kh == 1 && kw == 1 && stride == 1 && pad == 0) {
    // Identity unfold (the 1x1 output head): row k of the sliver is a run
    // of input plane k — the bytes the gather below would produce, without
    // its per-element index arithmetic.
    for (int k = 0; k < C; ++k) {
      float* row = dst + static_cast<std::size_t>(k) * kGemmNr;
      std::memcpy(row, x + static_cast<std::size_t>(k) * cols + j0,
                  sizeof(float) * static_cast<std::size_t>(nr));
      for (int jj = nr; jj < kGemmNr; ++jj) row[jj] = 0.0f;
    }
    return;
  }
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
  const std::size_t sample_elems = static_cast<std::size_t>(C) * H * W;
  if (kh == 1 && kw == 1 && stride == 1 && pad == 0) {
    // Identity unfold, as in pack_conv_sliver: column jg is element
    // jg % cols of every input plane of sample jg / cols.
    std::size_t at[kGemmNr];
    for (int jj = 0; jj < nr; ++jj)
      at[jj] = static_cast<std::size_t>((j0 + jj) / cols) * sample_elems +
               static_cast<std::size_t>((j0 + jj) % cols);
    for (int k = 0; k < C; ++k) {
      const float* plane = x + static_cast<std::size_t>(k) * cols;
      float* row = dst + static_cast<std::size_t>(k) * kGemmNr;
      for (int jj = 0; jj < nr; ++jj) row[jj] = plane[at[jj]];
      for (int jj = nr; jj < kGemmNr; ++jj) row[jj] = 0.0f;
    }
    return;
  }
  int n[kGemmNr], oi[kGemmNr], oj[kGemmNr];
  for (int jj = 0; jj < nr; ++jj) {
    const int jg = j0 + jj;
    n[jj] = jg / cols;
    const int jl = jg % cols;
    oi[jj] = jl / Wout;
    oj[jj] = jl % Wout;
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
// materialized im2col would have them.  The kernel uses the same
// expression shape as the GEMM micro-kernel (`acc += w * x`), so the
// compiler makes the same contraction choice in both TUs (both compile
// under NEURFILL_KERNEL_FLAGS) and fused-vs-unfused stays bitwise equal
// (asserted by tests/test_inference.cpp).
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)
#define NEURFILL_CONV_VECTOR_EXT 1
#endif

/// Output channels per register block: every UNet stage width (8/16/32/64)
/// is a multiple; any other channel count (the 1-channel head) takes the
/// packed GEMM.
constexpr int kConvOr = 8;

/// Operands shared by every job of one direct conv call.
struct DirectConv {
  const float* wp;     ///< conv_weight_pack panel: [k][o] per kConvOr block
  std::size_t n_rows;  ///< input-row pointers per output row: C * kh
  int C, kh, kw, K, O, wout;
  std::int64_t cols;   ///< one output channel plane: Hout * Wout
};

/// The direct kernel's register tile for one conv: `rows` output rows x
/// `cols` columns per kConvOr channels, run by `run`; no `run` means the
/// conv takes the packed GEMM (conv_tile_for).
struct ConvTile {
  int rows = 0, cols = 0;
  void (*run)(const DirectConv&, const float* const*, float*) = nullptr;
};

#if NEURFILL_CONV_VECTOR_EXT
/// Widest output vector of the direct kernel: one zmm register on AVX-512
/// hosts, where 16-lane tiles halve the broadcast-load pressure per FLOP.
/// 8 lanes elsewhere: wider tiles' accumulators would overflow the
/// 16-register AVX2 file and spill.
#if defined(__AVX512F__)
constexpr int kConvLanes = 16;
#else
constexpr int kConvLanes = 8;
#endif

template <int L>
struct ConvVec;
template <>
struct ConvVec<4> {
  typedef float type __attribute__((vector_size(4 * sizeof(float))));
};
template <>
struct ConvVec<8> {
  typedef float type __attribute__((vector_size(8 * sizeof(float))));
};
template <>
struct ConvVec<16> {
  typedef float type __attribute__((vector_size(16 * sizeof(float))));
};

/// Loads one L-lane vector `v` with S consecutive floats from each of L/S
/// rows, starting at column `off` (row q in lanes [q*S, q*S+S)).  Packed
/// rows load as halves combined in registers (shufflevector compiles to an
/// insert); a stack temporary would stall every k-step on store
/// forwarding.  `v` is an out-parameter: returning a vector wider than the
/// baseline ISA's registers would change the ABI.
template <int L, int S>
void load_rows(typename ConvVec<L>::type& v, const float* const* rows,
               int off) {
  if constexpr (L == S) {
    __builtin_memcpy(&v, rows[0] + off, sizeof v);
  } else {
    typename ConvVec<L / 2>::type lo, hi;
    load_rows<L / 2, S>(lo, rows, off);
    load_rows<L / 2, S>(hi, rows + L / 2 / S, off);
    if constexpr (L == 16)
      v = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                  11, 12, 13, 14, 15);
    else
      v = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7);
  }
}

/// kConvOr output channels x an R-row, S-column output tile in registers,
/// as NV = R*S/L vectors of L = min(R*S, kConvLanes) lanes.  A vector
/// covers L columns of one row, or packs L/S rows when rows are narrower
/// than a vector (8-wide rows pair, 4-wide rows quadruple), so narrow
/// outputs still run full-width FMAs.  Per k-step one weight broadcast
/// feeds NV FMAs and one input load feeds kConvOr independent chains from
/// L1.  Every lane owns its own GEMM-ordered chain: the tile shape never
/// perturbs an output bit.  `wp` is this channel block's panel; `out` is
/// row oi of channel 0 at column j.
template <int R, int S>
void conv_direct_tile(const DirectConv& a, const float* const* ptrs,
                      const float* wp, int j, float* out) {
  constexpr int L = R * S < kConvLanes ? R * S : kConvLanes;
  constexpr int NV = R * S / L;
  constexpr int SV = S < L ? S : L;  // columns of one row in one vector
  using V = typename ConvVec<L>::type;
  // Locals, not `a.` reads: the byte-wise output stores below may alias
  // `a` as far as the compiler knows, which would reload every field.
  const int C = a.C, kh = a.kh, kw = a.kw, wout = a.wout;
  const std::size_t n_rows = a.n_rows;
  const std::int64_t cols = a.cols;
  // `total` is written by the first K-slab flush and read only after it,
  // so it starts uninitialized; `acc` starts each chain at zero.
  V total[NV][kConvOr];
  V acc[NV][kConvOr] = {};
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const std::size_t rk = static_cast<std::size_t>(c) * kh + ki;
      const float* rows[R];
      for (int r = 0; r < R; ++r)
        rows[r] = ptrs[static_cast<std::size_t>(r) * n_rows + rk] + j;
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          for (int v = 0; v < NV; ++v)
            for (int i = 0; i < kConvOr; ++i) {
              total[v][i] = flushed ? total[v][i] + acc[v][i] : acc[v][i];
              acc[v][i] = V{};
            }
          flushed = true;
          boundary += kGemmKc;
        }
        // Vector v starts at row v*L/S, column v*L%S of the tile.
        V xv[NV];
        for (int v = 0; v < NV; ++v)
          load_rows<L, SV>(xv[v], rows + v * L / S, kj + v * L % S);
        const float* wk = wp + static_cast<std::size_t>(k) * kConvOr;
        for (int i = 0; i < kConvOr; ++i) {
          const float wi = wk[i];
          for (int v = 0; v < NV; ++v) acc[v][i] += wi * xv[v];
        }
      }
    }
  for (int i = 0; i < kConvOr; ++i)
    for (int v = 0; v < NV; ++v) {
      const V t = flushed ? total[v][i] + acc[v][i] : acc[v][i];
      const float* tf = reinterpret_cast<const float*>(&t);
      float* dst = out + static_cast<std::int64_t>(i) * cols + v * L % S;
      for (int q = 0; q < L / SV; ++q)
        __builtin_memcpy(dst + static_cast<std::int64_t>(v * L / S + q) * wout,
                         tf + q * SV, SV * sizeof(float));
    }
}

/// One job of the direct conv: R output rows oi..oi+R-1 of one sample, all
/// O channels.  `ptrs` holds R tables of a.n_rows pointers; entry c*kh + ki
/// of table r is padded input row oi+r+ki of channel c, so index j+kj
/// reads input column j+kj-pad (zero outside the sample).  `yrow` is row
/// oi of channel 0; row oi+r of any channel sits r*wout floats further
/// into the same plane.  Rows are walked in S-column tiles; a single-row
/// tile finishes the row in halving widths (24 columns run as 16 + 8, 40
/// as 32 + 8).  conv_tile_for only picks a tile whose walk covers the row
/// exactly, so there is no scalar column tail.
template <int R, int S>
void conv_direct_rows(const DirectConv& a, const float* const* ptrs,
                      float* yrow) {
  for (int o0 = 0; o0 < a.O; o0 += kConvOr) {
    const float* wp = a.wp + static_cast<std::size_t>(o0) * a.K;
    float* out = yrow + static_cast<std::int64_t>(o0) * a.cols;
    int j = 0;
    for (; j + S <= a.wout; j += S)
      conv_direct_tile<R, S>(a, ptrs, wp, j, out + j);
    if constexpr (R == 1 && S > 16)
      for (; j + 16 <= a.wout; j += 16)
        conv_direct_tile<1, 16>(a, ptrs, wp, j, out + j);
    if constexpr (R == 1 && S > 8)
      for (; j + 8 <= a.wout; j += 8)
        conv_direct_tile<1, 8>(a, ptrs, wp, j, out + j);
  }
}
#endif

/// The direct kernel's tile for one conv, or none (the packed GEMM).  This
/// one table decides both the direct/GEMM routing and the tiling, from the
/// geometry alone (never the batch or the thread count), and either choice
/// is bitwise-neutral by the chain contract:
///
///   stride 1, O % kConvOr == 0    16-lane (AVX-512)      8-lane builds
///   Wout == 4,  Hout % 4 == 0     4x4                    GEMM
///   Wout == 8,  Hout % 4 == 0     4x8                    1x16 (walks 8)
///   Wout == 8,  Hout % 2 == 0     2x8                    1x16 (walks 8)
///   Wout == 16, Hout % 2 == 0     2x16                   1x16
///   any other Wout % 8 == 0       1x32 (walks 16, 8)     1x16 (walks 8)
///
/// Everything else takes the GEMM: widths that are not a multiple of 8
/// (e.g. the 12-wide stage of a 24x24 plane), strided convs, channel
/// counts that are not a multiple of kConvOr (the 1x1 8->1 head), and
/// builds without vector extensions (the GEMM keeps its scalar fallback).
ConvTile conv_tile_for(const Conv2dGeom& g) {
#if NEURFILL_CONV_VECTOR_EXT
  const int H = g.out_height, W = g.out_width;
  if (g.stride != 1 || g.out_channels % kConvOr != 0) return {};
  if constexpr (kConvLanes == 16) {
    if (W == 4 && H % 4 == 0) return {4, 4, conv_direct_rows<4, 4>};
    if (W == 8 && H % 4 == 0) return {4, 8, conv_direct_rows<4, 8>};
    if (W == 8 && H % 2 == 0) return {2, 8, conv_direct_rows<2, 8>};
    if (W == 16 && H % 2 == 0) return {2, 16, conv_direct_rows<2, 16>};
  }
  if (W % 8 == 0)
    return {1, 2 * kConvLanes, conv_direct_rows<1, 2 * kConvLanes>};
#else
  (void)g;
#endif
  return {};
}

/// Does the fused block take the packed GEMM (per sample at batch 1, as
/// one whole-batch product at batch > 1)?
bool fused_conv_uses_gemm(const Conv2dGeom& g) {
  return conv_tile_for(g).run == nullptr;
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

std::size_t CpuBackend::conv_weight_pack_floats(const Conv2dGeom& g) {
  // GEMM-fallback convs consume a gemm_pack_a A panel — per sample at
  // batch 1, as one whole-batch product at batch > 1.  Direct-kernel convs
  // consume the filters transposed to [k][o] in kConvOr-channel blocks:
  // the raw [o][k] layout makes every k-step touch kConvOr distinct cache
  // lines (one per output channel), which falls out of L1 as soon as
  // O * K * 4 bytes does — exactly the deep narrow stages; the transposed
  // panel puts each k's block of weights on one line.  Values and FMA
  // order are untouched, so the packed form is bitwise-neutral.
  const int K = g.in_channels * g.kernel_h * g.kernel_w;
  if (fused_conv_uses_gemm(g)) return gemm_packed_a_floats(g.out_channels, K);
  return static_cast<std::size_t>(g.out_channels) * static_cast<std::size_t>(K);
}

void CpuBackend::conv_weight_pack(const Conv2dGeom& g, const float* w,
                                  float* dst) {
  const int O = g.out_channels;
  const int K = g.in_channels * g.kernel_h * g.kernel_w;
  if (fused_conv_uses_gemm(g)) {
    gemm_pack_a(w, O, K, dst);
    return;
  }
  for (int ob = 0; ob < O; ob += kConvOr)
    for (int k = 0; k < K; ++k)
      for (int i = 0; i < kConvOr; ++i)
        *dst++ = w[static_cast<std::size_t>(ob + i) * K + k];
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

  const ConvTile tile = conv_tile_for(g);
  bool epilogue_in_kernel = false;
  if (g.batch > 1 && !tile.run) {
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
  } else if (tile.run) {
    // Direct convolution (the "Direct stride-1 convolution" block comment
    // above) in the register tile conv_tile_for picked; the tile's column
    // walk covers each output row exactly.
    NF_CHECK(Hout % tile.rows == 0 &&
                 Wout % (tile.rows == 1 ? 8 : tile.cols) == 0,
             "conv2d_gn_act_fwd: %dx%d output does not tile by %dx%d", Hout,
             Wout, tile.rows, tile.cols);
    // The kernel reads the [k][o] panel; without a pre-packed one the
    // filters are packed here, once per call on the caller thread (pool
    // jobs only read it) — the same values in the same FMA order.
    const float* wp = packed_w;
    if (!wp) {
      static thread_local AlignedBuffer<float> tls_wpanel;
      float* panel = tls_wpanel.ensure(conv_weight_pack_floats(g));
      conv_weight_pack(g, w, panel);
      wp = panel;
    }
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
    // One job per tile row group: the grouping depends only on the
    // geometry, never the thread count.
    const int rpj = tile.rows;
    const DirectConv dc{wp, n_rows, C, kh, kw, K, O, Wout, cols};
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
            tile.run(dc, ptrs, yrow);
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
    // Every conv without a direct tile takes the packed GEMM with
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
