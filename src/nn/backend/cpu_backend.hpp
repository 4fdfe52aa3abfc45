#pragma once

#include "nn/backend/backend.hpp"

namespace neurfill::nn {

/// Reference CPU implementation of the Backend contract: the BLIS-style
/// packed GEMM (cpu_gemm.cpp), im2col convolution with the serial-region
/// small-layer scheduling, and the deterministic elementwise / reduction /
/// normalization kernels.  All scratch is
/// grow-only and thread_local, so concurrent dispatch from different
/// threads is safe and steady-state calls allocate nothing.
///
/// The fused conv2d_gn_act_fwd_packed block runs each conv either as a
/// direct stride-1 convolution in one register tile chosen from its
/// geometry, or as the packed GEMM with its right-hand side gathered
/// straight from the input tensor (gemm_internal.hpp); either way it skips
/// the im2col materialization, and its results stay bitwise identical to
/// the unfused kernel chain because the packed values and every
/// accumulation order are unchanged (docs/inference.md).
class CpuBackend final : public Backend {
 public:
  const char* name() const override { return "cpu"; }

  void gemm(GemmKind kind, int M, int N, int K, const float* A, const float* B,
            float* C, bool accumulate) override;
  void conv2d_fwd(const Conv2dGeom& g, const float* x, const float* w,
                  const float* bias, float* y) override;
  void conv2d_bwd(const Conv2dGeom& g, const float* x, const float* w,
                  const float* gy, float* gx, float* gw, float* gb) override;
  void unary_map(UnaryKind op, float p, const float* x, float* y,
                 std::int64_t n) override;
  void binary_map(BinaryKind op, const float* a, const float* b, float* y,
                  std::int64_t n) override;
  double reduce_sum(const float* x, std::int64_t n) override;
  void group_norm_fwd(const GroupNormGeom& g, const float* x,
                      const float* gamma, const float* beta, float* y,
                      double* mean_out, double* istd_out) override;
  void group_norm_bwd(const GroupNormGeom& g, const float* x,
                      const double* mean, const double* istd,
                      const float* gamma, const float* gy, float* gx,
                      float* ggamma, float* gbeta) override;
  void maxpool2x2_fwd(std::int64_t planes, int height, int width,
                      const float* x, float* y, std::int64_t* argmax) override;
  void maxpool2x2_bwd(std::int64_t count, const std::int64_t* argmax,
                      const float* gy, float* gx) override;
  void upsample2x_fwd(std::int64_t planes, int height, int width,
                      const float* x, float* y) override;
  void upsample2x_bwd(std::int64_t planes, int height, int width,
                      const float* gy, float* gx) override;
  void concat_channels_fwd(int batch, int channels_a, int channels_b,
                           std::int64_t plane, const float* a, const float* b,
                           float* y) override;
  std::size_t conv_weight_pack_floats(const Conv2dGeom& g) override;
  void conv_weight_pack(const Conv2dGeom& g, const float* w,
                        float* dst) override;
  void conv2d_gn_act_fwd_packed(const Conv2dGeom& g, int groups, float eps,
                                ActKind act, float slope, const float* x,
                                const float* w, const float* packed_w,
                                const float* bias, const float* gamma,
                                const float* beta, float* y) override;
};

}  // namespace neurfill::nn
