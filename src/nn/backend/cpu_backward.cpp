#include <cstdint>

#include "common/check.hpp"
#include "nn/backend/cpu_backend.hpp"

// CpuBackend adjoints of the normalization and resampling kernels, shared
// by the session's VJP (nn/infer/session.cpp) and the autograd reference
// (tests/tape/ops_conv.cpp).  This translation unit is deliberately built with
// the project's baseline flags, not the -march=native kernel flags of
// cpu_backend.cpp: the group-norm adjoint's double arithmetic must not be
// contracted into FMAs, so its rounding is the same on every build and
// equal to what the autograd path has always produced.

namespace neurfill::nn {

void CpuBackend::group_norm_bwd(const GroupNormGeom& g, const float* x,
                                const double* mean, const double* istd,
                                const float* gamma, const float* gy,
                                float* gx, float* ggamma, float* gbeta) {
  const int N = g.batch, C = g.channels, H = g.height, W = g.width;
  const int groups = g.groups;
  NF_CHECK(groups > 0 && C % groups == 0,
           "group_norm_bwd: %d channels not divisible into %d groups", C,
           groups);
  const int cpg = C / groups;
  const std::int64_t gsize = static_cast<std::int64_t>(cpg) * H * W;
  const double inv_n = 1.0 / static_cast<double>(gsize);
  for (int n = 0; n < N; ++n) {
    for (int grp = 0; grp < groups; ++grp) {
      const std::size_t s = static_cast<std::size_t>(n * groups + grp);
      const double m = mean[s];
      const double is = istd[s];
      const std::int64_t base =
          (static_cast<std::int64_t>(n) * C + grp * cpg) * H * W;
      const float* xb = x + base;
      const float* gb = gy + base;
      // dgamma/dbeta, plus the two group-wide sums needed for dx.
      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      for (int c = 0; c < cpg; ++c) {
        const double gm = gamma[grp * cpg + c];
        const float* xc = xb + static_cast<std::int64_t>(c) * H * W;
        const float* gc = gb + static_cast<std::int64_t>(c) * H * W;
        double dg = 0.0, db = 0.0;
        for (int i = 0; i < H * W; ++i) {
          const double xhat = (static_cast<double>(xc[i]) - m) * is;
          const double dxhat = static_cast<double>(gc[i]) * gm;
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xhat;
          dg += static_cast<double>(gc[i]) * xhat;
          db += static_cast<double>(gc[i]);
        }
        if (ggamma != nullptr) ggamma[grp * cpg + c] += static_cast<float>(dg);
        if (gbeta != nullptr) gbeta[grp * cpg + c] += static_cast<float>(db);
      }
      if (gx == nullptr) continue;
      float* gxb = gx + base;
      for (int c = 0; c < cpg; ++c) {
        const double gm = gamma[grp * cpg + c];
        const float* xc = xb + static_cast<std::int64_t>(c) * H * W;
        const float* gc = gb + static_cast<std::int64_t>(c) * H * W;
        float* gxc = gxb + static_cast<std::int64_t>(c) * H * W;
        for (int i = 0; i < H * W; ++i) {
          const double xhat = (static_cast<double>(xc[i]) - m) * is;
          const double dxhat = static_cast<double>(gc[i]) * gm;
          gxc[i] += static_cast<float>(
              is * (dxhat - inv_n * sum_dxhat - xhat * inv_n * sum_dxhat_xhat));
        }
      }
    }
  }
}

void CpuBackend::maxpool2x2_bwd(std::int64_t count, const std::int64_t* argmax,
                                const float* gy, float* gx) {
  for (std::int64_t i = 0; i < count; ++i) gx[argmax[i]] += gy[i];
}

void CpuBackend::upsample2x_bwd(std::int64_t planes, int height, int width,
                                const float* gy, float* gx) {
  const int H = height, W = width;
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* gp = gy + p * 4 * H * W;
    float* sp = gx + p * H * W;
    for (int i = 0; i < H; ++i)
      for (int j = 0; j < W; ++j) {
        const std::int64_t b = static_cast<std::int64_t>(2 * i) * 2 * W + 2 * j;
        sp[i * W + j] += gp[b] + gp[b + 1] + gp[b + 2 * W] + gp[b + 2 * W + 1];
      }
  }
}

}  // namespace neurfill::nn
