#pragma once

#include "tape/tensor.hpp"

namespace neurfill::nn {

// Autograd tensor ops: the reference the network engine is pinned against.
// Every op allocates its output tensor, records a tape closure, and
// dispatches its arithmetic through the active compute backend
// (nn/backend/backend.hpp).  The program itself never builds networks out
// of these — nn/infer/session.hpp compiles the same arithmetic into a
// static graph with fused kernels, a planned arena and hand-written
// adjoints (docs/inference.md); tests and the benches that measure the
// engine against the tape link this library.

/// Elementwise binary ops with numpy-style broadcasting (dims aligned from
/// the right; each pair must match or one must be 1).
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

/// Tensor-scalar ops.
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

/// Elementwise unary ops.
Tensor neg(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, float slope = 0.01f);
Tensor sigmoid(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor exp_op(const Tensor& a);
Tensor log_op(const Tensor& a);
Tensor abs_op(const Tensor& a);  ///< |x|; subgradient 0 at x == 0
Tensor sqrt_op(const Tensor& a);
Tensor square(const Tensor& a);
/// Smooth max(0, x) with sharpness eta: softplus(eta*x)/eta.
Tensor softplus(const Tensor& a, float eta = 1.0f);

/// Reductions.
Tensor sum(const Tensor& a);   ///< scalar
Tensor mean(const Tensor& a);  ///< scalar
/// Reduce one axis, keeping it with extent 1 (so results broadcast back).
Tensor sum_axis(const Tensor& a, int axis);
Tensor mean_axis(const Tensor& a, int axis);
/// Population variance over all elements (scalar).
Tensor variance(const Tensor& a);

/// Shape ops.  `reshape` copies (identity backward); numel must match.
Tensor reshape(const Tensor& a, std::vector<int> shape);
/// Concatenate two 4-D tensors along the channel axis (dim 1).
Tensor concat_channels(const Tensor& a, const Tensor& b);

/// Linear algebra: (M,K) x (K,N) -> (M,N).
Tensor matmul(const Tensor& a, const Tensor& b);
/// Fully-connected: x (N,K) * w^T (K,O) + b (O).
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);

/// 2-D convolution on NCHW tensors.  weight is (O, C, kh, kw); bias (O) or
/// undefined.  Symmetric zero padding.
Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
              int stride = 1, int padding = 0);

/// 2x2 max pooling with stride 2 (H and W must be even).
Tensor maxpool2x2(const Tensor& x);
/// Nearest-neighbour 2x upsampling (the UNet decoder uses upsample+conv).
Tensor upsample_nearest2x(const Tensor& x);

/// Group normalization over NCHW: channels split into `groups`; gamma/beta
/// have shape (C).
Tensor group_norm(const Tensor& x, int groups, const Tensor& gamma,
                  const Tensor& beta, float eps = 1e-5f);

/// Loss: mean (p-t)^2.
Tensor mse_loss(const Tensor& pred, const Tensor& target);

}  // namespace neurfill::nn
