#pragma once

#include <cstddef>
#include <cstdint>

// The compute-backend seam of src/nn (docs/inference.md).  Every primitive
// kernel the network engine needs — GEMM, convolution, elementwise maps,
// the deterministic reduction, group norm, pooling, upsampling,
// concatenation, and the fused inference block — is a virtual on
// `Backend`.  `src/nn/infer` (the engine), the surrogate's flat-plane
// layers and the autograd reference kept under tests/tape dispatch through
// `backend()` instead of calling kernels directly, so a GPU or quantized
// implementation slots in without touching any of them.
//
// Contract, binding for every implementation:
//   * Determinism: each kernel's result is bitwise identical at any thread
//     count, and identical across repeated calls with the same inputs.
//     Work decomposition must be a pure function of the problem shape.
//   * Synchronous: kernels return only after the output is fully written.
//   * Thread-safe: concurrent calls from different threads on disjoint
//     outputs must be safe (per-thread scratch, no shared mutable state).
//   * Aliasing: unless a parameter is documented in-place, output buffers
//     must not overlap inputs.
//   * Rounding: CpuBackend is the reference; docs/inference.md pins the
//     accumulation orders (float elementwise, blocked-double reductions,
//     double group statistics) that alternative backends must reproduce to
//     claim bitwise parity, or else document their tolerance.

namespace neurfill::nn {

/// Which operands of C = A·B the kernel consumes transposed (row-major
/// storage throughout): kNN is A(MxK)·B(KxN), kNT is A(MxK)·B(NxK)^T, kTN
/// is A(KxM)^T·B(KxN).
enum class GemmKind { kNN, kNT, kTN };

/// Elementwise unary maps.  `p` below is the op parameter: the addend for
/// kAddScalar, the factor for kMulScalar, the negative-side slope for
/// kLeakyRelu, the sharpness eta for kSoftplus; ignored otherwise.
enum class UnaryKind {
  kAddScalar,
  kMulScalar,
  kNeg,
  kRelu,
  kLeakyRelu,
  kSigmoid,
  kTanh,
  kExp,
  kLog,
  kAbs,
  kSqrt,
  kSquare,
  kSoftplus,
};

/// Elementwise binary maps over same-length buffers.
enum class BinaryKind { kAdd, kSub, kMul, kDiv };

/// Activation applied by the fused inference block
/// (conv2d_gn_act_fwd_packed).
enum class ActKind { kNone, kRelu, kLeakyRelu };

/// Geometry of one 2-D convolution: input [N, C, H, W], filters
/// [O, C, kh, kw], square stride/zero-padding, output [N, O, Hout, Wout].
struct Conv2dGeom {
  int batch = 1;
  int in_channels = 0;
  int height = 0;
  int width = 0;
  int out_channels = 0;
  int kernel_h = 0;
  int kernel_w = 0;
  int stride = 1;
  int padding = 0;
  int out_height = 0;
  int out_width = 0;
};

/// Geometry of group normalization over [N, C, H, W] with C % groups == 0.
struct GroupNormGeom {
  int batch = 0;
  int channels = 0;
  int height = 0;
  int width = 0;
  int groups = 1;
  float eps = 1e-5f;
};

/// Abstract compute backend.  One long-lived instance is active at a time
/// (see backend()/set_backend()); implementations own their scratch.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Human-readable implementation name ("cpu").
  virtual const char* name() const = 0;

  /// C (MxN) = A·B per `kind`; `accumulate=true` adds into C instead of
  /// overwriting.  Bitwise deterministic at any thread count.
  virtual void gemm(GemmKind kind, int M, int N, int K, const float* A,
                    const float* B, float* C, bool accumulate) = 0;

  /// y = conv2d(x, w) + bias.  `bias` may be null (no bias add).  y is
  /// overwritten.
  virtual void conv2d_fwd(const Conv2dGeom& g, const float* x, const float* w,
                          const float* bias, float* y) = 0;

  /// Backward of conv2d_fwd: accumulates (never overwrites) the gradients
  /// of any non-null output.  `gx` needs `w`; `gw` needs `x` (which may be
  /// null when `gw` is); pass null for gradients not required.  `gx` does
  /// not depend on whether `gw`/`gb` are requested.
  virtual void conv2d_bwd(const Conv2dGeom& g, const float* x, const float* w,
                          const float* gy, float* gx, float* gw,
                          float* gb) = 0;

  /// y[i] = f(x[i]) over n contiguous elements; `p` as documented on
  /// UnaryKind.  In-place (y == x) is allowed.
  virtual void unary_map(UnaryKind op, float p, const float* x, float* y,
                         std::int64_t n) = 0;

  /// y[i] = f(a[i], b[i]) over n contiguous elements.  In-place with either
  /// operand is allowed.
  virtual void binary_map(BinaryKind op, const float* a, const float* b,
                          float* y, std::int64_t n) = 0;

  /// Deterministic blocked sum: float inputs accumulated in double within
  /// fixed-shape blocks, block partials summed in index order.  The result
  /// is bitwise identical at any thread count (docs/runtime.md).
  virtual double reduce_sum(const float* x, std::int64_t n) = 0;

  /// y = gamma * (x - mean) / sqrt(var + eps) + beta per (sample, group),
  /// statistics in double over the group in flat index order.  When
  /// `mean_out`/`istd_out` are non-null they receive the per-(n,group)
  /// mean and inverse standard deviation (batch*groups entries each) for
  /// the backward.
  virtual void group_norm_fwd(const GroupNormGeom& g, const float* x,
                              const float* gamma, const float* beta, float* y,
                              double* mean_out, double* istd_out) = 0;

  /// Backward of group_norm_fwd from its saved statistics (`mean`/`istd` as
  /// group_norm_fwd wrote them): accumulates (never overwrites) into any
  /// non-null gradient — `gx` [N, C, H, W], `ggamma`/`gbeta` [C].  Group
  /// sums in double, per (sample, group) in flat index order; `gx` does not
  /// depend on whether `ggamma`/`gbeta` are requested.
  virtual void group_norm_bwd(const GroupNormGeom& g, const float* x,
                              const double* mean, const double* istd,
                              const float* gamma, const float* gy, float* gx,
                              float* ggamma, float* gbeta) = 0;

  /// 2x2/stride-2 max pool over `planes` independent HxW planes (H, W
  /// even).  When `argmax` is non-null it receives, per output element, the
  /// flat input index of the selected maximum (ties resolved to the
  /// earliest index — fixed order, deterministic).
  virtual void maxpool2x2_fwd(std::int64_t planes, int height, int width,
                              const float* x, float* y,
                              std::int64_t* argmax) = 0;

  /// Backward of maxpool2x2_fwd over `count` pooled outputs:
  /// gx[argmax[i]] += gy[i] in index order.
  virtual void maxpool2x2_bwd(std::int64_t count, const std::int64_t* argmax,
                              const float* gy, float* gx) = 0;

  /// Nearest-neighbour 2x upsample over `planes` independent HxW planes.
  virtual void upsample2x_fwd(std::int64_t planes, int height, int width,
                              const float* x, float* y) = 0;

  /// Backward of upsample2x_fwd: each source element accumulates the sum of
  /// its 2x2 output block (row-major within the block).
  virtual void upsample2x_bwd(std::int64_t planes, int height, int width,
                              const float* gy, float* gx) = 0;

  /// y[n] = concat(a[n], b[n]) along channels: a is [N, Ca, plane], b is
  /// [N, Cb, plane], y is [N, Ca+Cb, plane] with `plane` = H*W.
  virtual void concat_channels_fwd(int batch, int channels_a, int channels_b,
                                   std::int64_t plane, const float* a,
                                   const float* b, float* y) = 0;

  /// Floats of the backend-opaque pre-packed panel conv_weight_pack builds
  /// for the constant filter tensor of conv2d_gn_act_fwd_packed, or 0 when
  /// the backend has no packed form for this geometry (callers then skip
  /// prepacking).  A panel is valid only for the exact geometry it was
  /// sized for and only on the backend that produced it.  Default: 0.
  virtual std::size_t conv_weight_pack_floats(const Conv2dGeom& g);

  /// Packs the [O, C, kh, kw] filter tensor `w` into `dst`
  /// (conv_weight_pack_floats(g) floats).  Only called when that size is
  /// non-zero.  Default: contract violation.
  virtual void conv_weight_pack(const Conv2dGeom& g, const float* w,
                                float* dst);

  /// Fused inference block: y = act(group_norm(conv2d(x, w) + bias)).
  /// `groups == 0` skips normalization (gamma/beta/eps ignored); `bias` may
  /// be null.  Bitwise identical to the unfused conv2d_fwd →
  /// group_norm_fwd → unary_map chain (pinned by tests/test_inference.cpp)
  /// while skipping the intermediate materializations.  `packed_w` is the
  /// optional panel from conv_weight_pack, or null: results are bitwise
  /// identical either way, the panel only hoists per-call weight packing
  /// out of the kernel.  `w` must always point at the raw filters.
  virtual void conv2d_gn_act_fwd_packed(const Conv2dGeom& g, int groups,
                                        float eps, ActKind act, float slope,
                                        const float* x, const float* w,
                                        const float* packed_w,
                                        const float* bias, const float* gamma,
                                        const float* beta, float* y) = 0;
};

/// The active backend.  Defaults to the built-in CpuBackend; never null.
Backend& backend();

/// Installs `b` (not owned; must outlive its tenure) and returns the
/// previous backend so callers can restore it.  Not thread-safe against
/// concurrent kernel dispatch — swap only at quiescent points.
Backend* set_backend(Backend* b);

}  // namespace neurfill::nn
