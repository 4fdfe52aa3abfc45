// Tests for the network engine (docs/inference.md): the InferenceSession
// must match the autograd module evaluation (tests/tape) bitwise —
// fused or unfused, arena-reused or private-buffered, batched or looped,
// at any thread count — because the fill optimizer mixes both paths
// mid-line-search and relies on exact value equality.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "geom/designs.hpp"
#include "layout/window_grid.hpp"
#include "nn/backend/backend.hpp"
#include "nn/infer/session.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/infer.hpp"
#include "tape/ops.hpp"
#include "tape/tensor.hpp"
#include "tape/unet.hpp"
#include "tape_oracle.hpp"

namespace neurfill {
namespace {

using nn::InferenceOptions;
using nn::InferenceSession;
using nn::Tensor;
using nn::UNet;
using nn::UNetConfig;

::testing::AssertionResult bitwise_equal(const float* a, const float* b,
                                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t ua = 0, ub = 0;
    std::memcpy(&ua, a + i, sizeof(float));
    std::memcpy(&ub, b + i, sizeof(float));
    if (ua != ub)
      return ::testing::AssertionFailure()
             << "float mismatch at index " << i << ": " << a[i] << " vs "
             << b[i] << " (bits 0x" << std::hex << ua << " vs 0x" << ub << ")";
  }
  return ::testing::AssertionSuccess();
}

std::vector<float> random_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

UNetConfig small_config(bool group_norm) {
  UNetConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 1;
  cfg.base_channels = 8;
  cfg.depth = 2;
  cfg.use_group_norm = group_norm;
  return cfg;
}

/// A plane the fill runs: 24x24 windows at depth 3 gives the stages
/// 24/12/6/3, where the 12-wide stage takes the packed GEMM.
struct PlaneShape {
  int depth, height, width;
};
constexpr PlaneShape kFillPlane{3, 24, 24};

/// The session over a tape UNet's weights, copied into a flat set.
InferenceSession compile(const UNet& net, int H, int W,
                         InferenceOptions options = {}) {
  return InferenceSession(
      net.config(),
      std::make_shared<const nn::ParameterSet>(nn::to_parameter_set(net)), H,
      W, options);
}

/// Autograd reference: the plain module forward on a batch-1 input.
std::vector<float> module_forward(UNet& net, const std::vector<float>& input,
                                  int c, int h, int w) {
  const Tensor x = Tensor::from_data({1, c, h, w}, input);
  const Tensor y = net.forward(x);
  return std::vector<float>(y.data(), y.data() + y.numel());
}

TEST(InferenceSession, MatchesModuleBitwiseWithGroupNorm) {
  Rng rng(11);
  UNet net(small_config(true), rng);
  const int H = 16, W = 16;
  const InferenceSession session = compile(net, H, W);
  EXPECT_EQ(session.in_channels(), 3);
  EXPECT_EQ(session.out_channels(), 1);

  const auto input = random_input(3u * H * W, 101);
  const auto ref = module_forward(net, input, 3, H, W);
  std::vector<float> out(static_cast<std::size_t>(H) * W);
  session.run(input.data(), out.data());
  EXPECT_TRUE(bitwise_equal(out.data(), ref.data(), out.size()));
}

TEST(InferenceSession, MatchesModuleBitwiseWithoutGroupNorm) {
  Rng rng(12);
  UNet net(small_config(false), rng);
  const int H = 24, W = 16;
  const InferenceSession session = compile(net, H, W);

  const auto input = random_input(3u * H * W, 102);
  const auto ref = module_forward(net, input, 3, H, W);
  std::vector<float> out(static_cast<std::size_t>(H) * W);
  session.run(input.data(), out.data());
  EXPECT_TRUE(bitwise_equal(out.data(), ref.data(), out.size()));
}

TEST(InferenceSession, RealWeightsMatchModuleWithinTolerance) {
  // Acceptance gate: on the shipped pre-trained artifact the compiled
  // session must match the module path within 1e-4 relative — and in fact
  // matches bitwise, which the optimizer's mixed-path line search needs.
  auto loaded = load_surrogate(NF_REPO_ROOT "/data/unet_cmp");
  ASSERT_TRUE(loaded.ok()) << "missing data/unet_cmp.{meta,weights}";
  UNet net = oracle::tape_unet(**loaded);
  const UNetConfig& cfg = net.config();
  const int div = 1 << cfg.depth;
  const int H = 4 * div, W = 4 * div;
  const InferenceSession session(cfg, (*loaded)->shared_parameters(), H, W);

  const auto input =
      random_input(static_cast<std::size_t>(cfg.in_channels) * H * W, 103);
  const auto ref = module_forward(net, input, cfg.in_channels, H, W);
  std::vector<float> out(ref.size());
  session.run(input.data(), out.data());

  float max_rel = 0.0f;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float denom = std::max(std::fabs(ref[i]), 1e-6f);
    max_rel = std::max(max_rel, std::fabs(out[i] - ref[i]) / denom);
  }
  EXPECT_LE(max_rel, 1e-4f);
  EXPECT_TRUE(bitwise_equal(out.data(), ref.data(), out.size()));
}

TEST(InferenceSession, ArenaReuseMatchesPrivateBuffers) {
  // Aliasing safety: the liveness-planned arena must never hand a buffer
  // to a consumer while a live producer still owns it.  The reference is
  // the same graph with every value in a private block.
  Rng rng(13);
  UNet net(small_config(true), rng);
  const int H = 16, W = 16;
  InferenceOptions reuse, priv;
  priv.reuse_buffers = false;
  const InferenceSession fast = compile(net, H, W, reuse);
  const InferenceSession safe = compile(net, H, W, priv);
  EXPECT_LT(fast.arena_floats_per_sample(), safe.arena_floats_per_sample());

  const auto input = random_input(3u * H * W, 104);
  std::vector<float> a(static_cast<std::size_t>(H) * W), b(a.size());
  fast.run(input.data(), a.data());
  safe.run(input.data(), b.data());
  EXPECT_TRUE(bitwise_equal(a.data(), b.data(), a.size()));
}

TEST(InferenceSession, FusedMatchesUnfused) {
  for (const PlaneShape shape : {PlaneShape{2, 16, 16}, kFillPlane}) {
    Rng rng(14);
    UNetConfig cfg = small_config(true);
    cfg.depth = shape.depth;
    UNet net(cfg, rng);
    const int H = shape.height, W = shape.width;
    InferenceOptions unfused;
    unfused.fuse = false;
    const InferenceSession fused = compile(net, H, W);
    const InferenceSession chain = compile(net, H, W, unfused);

    const auto input = random_input(3u * H * W, 105);
    std::vector<float> a(static_cast<std::size_t>(H) * W), b(a.size());
    fused.run(input.data(), a.data());
    chain.run(input.data(), b.data());
    EXPECT_TRUE(bitwise_equal(a.data(), b.data(), a.size())) << "W=" << W;
  }
}

TEST(InferenceSession, BatchMatchesLoopedSingles) {
  for (const auto& [shape, B] :
       {std::pair<PlaneShape, int>{{2, 16, 16}, 3}, {kFillPlane, 8}}) {
    Rng rng(15);
    UNetConfig cfg = small_config(true);
    cfg.depth = shape.depth;
    UNet net(cfg, rng);
    const int H = shape.height, W = shape.width;
    const std::size_t in_plane = 3u * H * W;
    const std::size_t out_plane = static_cast<std::size_t>(H) * W;
    const InferenceSession session = compile(net, H, W);

    const auto input = random_input(B * in_plane, 106);
    std::vector<float> batched(B * out_plane);
    session.run(input.data(), batched.data(), B);

    std::vector<float> looped(B * out_plane);
    for (int s = 0; s < B; ++s)
      session.run(input.data() + s * in_plane, looped.data() + s * out_plane);
    EXPECT_TRUE(bitwise_equal(batched.data(), looped.data(), batched.size()))
        << "W=" << W << " B=" << B;
  }
}

TEST(InferenceSession, PrepackedWeightsMatchPackPerCall) {
  // Compile-time weight panels must be bitwise neutral against the
  // pack-per-call reference, on both the direct conv path (wide outputs)
  // and the GEMM fallback (narrow outputs, where the panel is actually
  // consumed), serial and batched.
  Rng rng(18);
  UNet net(small_config(true), rng);
  for (const int W : {16, 8}) {  // W=8 drives the deeper levels through GEMM
    const int H = 16, B = 4;
    const std::size_t in_plane = 3u * H * W;
    const std::size_t out_plane = static_cast<std::size_t>(H) * W;
    InferenceOptions nopack;
    nopack.prepack_weights = false;
    const InferenceSession packed = compile(net, H, W);
    const InferenceSession reference = compile(net, H, W, nopack);

    const auto input = random_input(B * in_plane, 120);
    std::vector<float> a(B * out_plane), b(a.size());
    packed.run(input.data(), a.data());
    reference.run(input.data(), b.data());
    EXPECT_TRUE(bitwise_equal(a.data(), b.data(), out_plane)) << "W=" << W;
    packed.run(input.data(), a.data(), B);
    reference.run(input.data(), b.data(), B);
    EXPECT_TRUE(bitwise_equal(a.data(), b.data(), a.size()))
        << "W=" << W << " batched";
  }
}

TEST(InferenceSession, BatchedArenaReachesZeroSteadyStateAllocation) {
  // With max_batch planned up front, the first run sizes the per-thread
  // arena once and every later run — any batch up to max_batch — performs
  // no further growth (infer.arena_grow_events counts requested-size
  // high-water increases on this thread).
  Rng rng(19);
  UNet net(small_config(true), rng);
  const int H = 16, W = 16, kMaxBatch = 8;
  InferenceOptions opt;
  opt.max_batch = kMaxBatch;
  const InferenceSession session = compile(net, H, W, opt);
  const std::size_t in_plane = 3u * H * W;
  const std::size_t out_plane = static_cast<std::size_t>(H) * W;
  const auto input = random_input(kMaxBatch * in_plane, 121);
  std::vector<float> out(kMaxBatch * out_plane);

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& grows = obs::counter("infer.arena_grow_events");
  session.run(input.data(), out.data(), 1);  // plans for kMaxBatch
  const std::int64_t after_first = grows.value();
  for (const int batch : {1, 2, kMaxBatch, 3}) {
    session.run(input.data(), out.data(), batch);
    EXPECT_EQ(grows.value(), after_first) << "batch " << batch;
  }
  EXPECT_GE(obs::counter("infer.samples").value(), kMaxBatch);
  obs::set_metrics_enabled(was_enabled);
}

TEST(InferenceSession, BitwiseDeterministicAcrossThreadCounts) {
  Rng rng(16);
  UNet net(small_config(true), rng);
  const int H = 32, W = 32;
  const InferenceSession session = compile(net, H, W);
  const auto input = random_input(3u * H * W, 107);

  std::vector<float> ref(static_cast<std::size_t>(H) * W);
  runtime::set_thread_count(1);
  session.run(input.data(), ref.data());
  for (const int threads : {2, 8}) {
    runtime::set_thread_count(threads);
    std::vector<float> out(ref.size());
    session.run(input.data(), out.data());
    EXPECT_TRUE(bitwise_equal(out.data(), ref.data(), out.size()))
        << "thread count " << threads;
  }
  runtime::set_thread_count(0);  // restore the environment default
}

TEST(Backend, Conv1x1FastPathMatchesNaive) {
  // padding==0 && stride==1 1x1 convs skip im2col and feed the input
  // directly to the GEMM; the result must still be a correct convolution.
  const int B = 2, Ci = 5, Co = 3, H = 7, W = 9;
  const auto x = random_input(static_cast<std::size_t>(B) * Ci * H * W, 108);
  const auto w = random_input(static_cast<std::size_t>(Co) * Ci, 109);
  const auto bias = random_input(Co, 110);

  nn::Conv2dGeom g;
  g.batch = B;
  g.in_channels = Ci;
  g.height = H;
  g.width = W;
  g.out_channels = Co;
  g.kernel_h = 1;
  g.kernel_w = 1;
  g.stride = 1;
  g.padding = 0;
  g.out_height = H;
  g.out_width = W;
  std::vector<float> y(static_cast<std::size_t>(B) * Co * H * W);
  nn::backend().conv2d_fwd(g, x.data(), w.data(), bias.data(), y.data());

  for (int b = 0; b < B; ++b) {
    for (int co = 0; co < Co; ++co) {
      for (int p = 0; p < H * W; ++p) {
        double acc = bias[static_cast<std::size_t>(co)];
        for (int ci = 0; ci < Ci; ++ci)
          acc += static_cast<double>(w[static_cast<std::size_t>(co) * Ci + ci]) *
                 static_cast<double>(
                     x[(static_cast<std::size_t>(b) * Ci + ci) * H * W + p]);
        const float got =
            y[(static_cast<std::size_t>(b) * Co + co) * H * W + p];
        ASSERT_NEAR(got, acc, 1e-4) << "b=" << b << " co=" << co << " p=" << p;
      }
    }
  }
}

/// Runs one fused-conv geometry through conv2d_gn_act_fwd_packed, with a
/// null and (when the backend offers one) a pre-packed weight panel, and
/// compares it bitwise against the unfused conv2d_fwd -> group_norm_fwd ->
/// activation chain, with and without normalization.
void expect_fused_matches_unfused(const nn::Conv2dGeom& g, std::uint64_t seed) {
  nn::Backend& be = nn::backend();
  const int O = g.out_channels;
  const int K = g.in_channels * g.kernel_h * g.kernel_w;
  const std::size_t out_n =
      static_cast<std::size_t>(g.batch) * O * g.out_height * g.out_width;
  const auto x = random_input(
      static_cast<std::size_t>(g.batch) * g.in_channels * g.height * g.width,
      seed);
  const auto w = random_input(static_cast<std::size_t>(O) * K, seed + 1);
  const auto bias = random_input(O, seed + 2);
  const auto gamma = random_input(O, seed + 3);
  const auto beta = random_input(O, seed + 4);
  std::vector<float> panel(be.conv_weight_pack_floats(g));
  if (!panel.empty()) be.conv_weight_pack(g, w.data(), panel.data());

  const float eps = nn::GroupNormGeom{}.eps, slope = 0.1f;
  for (const int groups : {0, O == 1 ? 1 : O / 4}) {
    const nn::ActKind act =
        groups > 0 ? nn::ActKind::kRelu : nn::ActKind::kLeakyRelu;
    std::vector<float> ref(out_n), conv(out_n);
    be.conv2d_fwd(g, x.data(), w.data(), bias.data(), conv.data());
    if (groups > 0) {
      nn::GroupNormGeom ng;
      ng.batch = g.batch;
      ng.channels = O;
      ng.height = g.out_height;
      ng.width = g.out_width;
      ng.groups = groups;
      ng.eps = eps;
      be.group_norm_fwd(ng, conv.data(), gamma.data(), beta.data(),
                        ref.data(), nullptr, nullptr);
      be.unary_map(nn::UnaryKind::kRelu, 0.0f, ref.data(), ref.data(),
                   static_cast<std::int64_t>(out_n));
    } else {
      be.unary_map(nn::UnaryKind::kLeakyRelu, slope, conv.data(), ref.data(),
                   static_cast<std::int64_t>(out_n));
    }
    for (const bool packed : {false, true}) {
      if (packed && panel.empty()) continue;
      std::vector<float> y(out_n);
      be.conv2d_gn_act_fwd_packed(g, groups, eps, act, slope, x.data(),
                                  w.data(), packed ? panel.data() : nullptr,
                                  bias.data(), gamma.data(), beta.data(),
                                  y.data());
      EXPECT_TRUE(bitwise_equal(y.data(), ref.data(), out_n))
          << "C=" << g.in_channels << " O=" << O << " k=" << g.kernel_h
          << " P=" << g.padding << " out " << g.out_height << "x"
          << g.out_width << " B=" << g.batch << " groups=" << groups
          << " packed=" << packed;
    }
  }
}

TEST(Backend, FusedConvMatchesUnfusedChainOverTileGeometries) {
  // The fused block routes each geometry to a direct-conv register tile or
  // to the packed GEMM; either way every output element must equal the
  // unfused chain bitwise.  The sweep covers every tile shape (single,
  // paired and quadrupled rows; 8/16/32-column blocks and their mixes at
  // 24 and 40 columns), odd heights, the 1-channel head, and a 32-channel
  // input whose K = 288 crosses a GEMM K-slab boundary.
  std::uint64_t seed = 200;
  for (const int C : {3, 32})
    for (const int O : {1, 8, 16})
      for (const int k : {1, 3})
        for (const int P : {0, 1})
          for (const int Wout : {4, 8, 16, 24, 32, 40})
            for (int Hout = 1; Hout <= 8; ++Hout)
              for (const int B : {1, 3}) {
                nn::Conv2dGeom g;
                g.batch = B;
                g.in_channels = C;
                g.out_channels = O;
                g.kernel_h = k;
                g.kernel_w = k;
                g.padding = P;
                g.out_height = Hout;
                g.out_width = Wout;
                g.height = Hout - 2 * P + k - 1;
                g.width = Wout - 2 * P + k - 1;
                if (g.height < 1 || g.width < 1) continue;
                expect_fused_matches_unfused(g, seed += 5);
              }
}

TEST(InferenceSession, VjpMatchesTapeInputGradientBitwise) {
  // The session's reverse pass against Tensor::backward on the module
  // forward: with and without group norm, on a 12x8 plane and on the fill's
  // 24x24 depth-3 plane, at 1 and 4 threads.  The seed adjoint enters the
  // tape as the grad of sum(y * dy), i.e. dy itself.
  for (const PlaneShape shape : {PlaneShape{2, 12, 8}, kFillPlane}) {
    for (const bool gn : {true, false}) {
      Rng rng(gn ? 41 : 42);
      UNetConfig cfg = small_config(gn);
      cfg.depth = shape.depth;
      UNet net(cfg, rng);
      const int H = shape.height, W = shape.width;
      const InferenceSession session = compile(net, H, W);
      const std::size_t in_n =
          static_cast<std::size_t>(cfg.in_channels) * H * W;
      const auto input = random_input(in_n, 7);
      const auto d_out = random_input(static_cast<std::size_t>(H) * W, 8);

      const Tensor x =
          Tensor::from_data({1, cfg.in_channels, H, W}, input, true);
      const Tensor y = net.forward(x);
      const Tensor dy = Tensor::from_data({1, 1, H, W}, d_out);
      nn::sum(nn::mul(y, dy)).backward();

      for (const int threads : {1, 4}) {
        runtime::set_thread_count(threads);
        InferenceSession::SavedActivations saved;
        std::vector<float> out(static_cast<std::size_t>(H) * W);
        std::vector<float> d_in(in_n);
        session.run_saving(input.data(), out.data(), saved);
        session.vjp(saved, d_out.data(), d_in.data());
        EXPECT_TRUE(bitwise_equal(out.data(), y.data(), out.size()));
        EXPECT_TRUE(bitwise_equal(d_in.data(), x.grad(), in_n))
            << "W=" << W << " gn=" << gn << " threads=" << threads;
      }
      runtime::set_thread_count(0);
    }
  }
}

TEST(InferenceSession, VjpParameterAdjointsMatchTapeBitwise) {
  // Pre-training's reverse pass: a training record and vjp() with a flat
  // parameter-adjoint buffer against the tape's parameter grads, with and
  // without group norm, at 1 and 4 threads.  Two passes accumulate into
  // the same buffers, as two samples of one optimizer step do; the input
  // is data (no input adjoint), as in training.
  for (const PlaneShape shape : {PlaneShape{2, 12, 8}, kFillPlane}) {
    for (const bool gn : {true, false}) {
      Rng rng(gn ? 51 : 52);
      UNetConfig cfg = small_config(gn);
      cfg.depth = shape.depth;
      UNet net(cfg, rng);
      const int H = shape.height, W = shape.width;
      const InferenceSession session = compile(net, H, W);
      const std::size_t in_n =
          static_cast<std::size_t>(cfg.in_channels) * H * W;
      const std::size_t out_n = static_cast<std::size_t>(H) * W;
      const auto inputs = random_input(2 * in_n, 9);
      const auto d_outs = random_input(2 * out_n, 10);

      for (int pass = 0; pass < 2; ++pass) {
        const Tensor x = Tensor::from_data(
            {1, cfg.in_channels, H, W},
            std::vector<float>(inputs.begin() + pass * in_n,
                               inputs.begin() + (pass + 1) * in_n));
        const Tensor dy = Tensor::from_data(
            {1, 1, H, W},
            std::vector<float>(d_outs.begin() + pass * out_n,
                               d_outs.begin() + (pass + 1) * out_n));
        nn::sum(nn::mul(net.forward(x), dy)).backward();
      }
      const auto named = net.named_parameters();

      for (const int threads : {1, 4}) {
        runtime::set_thread_count(threads);
        const nn::ParameterSet layout = nn::to_parameter_set(net);
        std::vector<float> d_params(layout.numel(), 0.0f);
        InferenceSession::SavedActivations saved;
        std::vector<float> out(out_n);
        for (int pass = 0; pass < 2; ++pass) {
          session.run_saving(inputs.data() + pass * in_n, out.data(), saved,
                             /*training=*/true);
          session.vjp(saved, d_outs.data() + pass * out_n, nullptr,
                      d_params.data());
        }
        for (std::size_t i = 0; i < named.size(); ++i)
          EXPECT_TRUE(bitwise_equal(d_params.data() + layout.spec(i).offset,
                                    named[i].second.grad(),
                                    layout.spec(i).numel))
              << named[i].first << " W=" << W << " gn=" << gn
              << " threads=" << threads;
      }
      runtime::set_thread_count(0);
    }
  }
}

TEST(InferenceSession, VjpAdjointScratchPlannedByLiveness) {
  // A value's adjoint lives from its last consumer back to its producer;
  // planned over the reverse walk with the arena's planner, the scratch is
  // a quarter of one slot per value.  The fill record keeps its size (the
  // training record's conv inputs are not part of it): 184 960 bytes per
  // layer on the production architecture at the fill's 24x24 plane.
  const SurrogateConfig production;
  for (const int extent : {24, 64}) {
    Rng rng(44);
    const UNet net(production.unet, rng);
    InferenceOptions priv;
    priv.reuse_buffers = false;
    const InferenceSession planned = compile(net, extent, extent);
    const InferenceSession every_slot = compile(net, extent, extent, priv);
    EXPECT_LE(4 * planned.adjoint_floats(), every_slot.adjoint_floats())
        << extent;
    if (extent == 24) {
      EXPECT_EQ(planned.saved_bytes(), 184960u);
    }
  }
}

TEST(InferenceSession, SavedPassKeepsOnlyTheAdjointOperands) {
  // run_saving records the pre-norm outputs, statistics, ReLU masks and
  // pool argmax; every other value stays in the arena, so the record is
  // smaller than the values of one pass put together.
  Rng rng(43);
  UNetConfig cfg = small_config(true);
  cfg.depth = kFillPlane.depth;
  UNet net(cfg, rng);
  InferenceOptions priv;
  priv.reuse_buffers = false;  // every value in a block of its own
  const InferenceSession session =
      compile(net, kFillPlane.height, kFillPlane.width, priv);
  EXPECT_LT(session.saved_bytes(),
            session.arena_floats_per_sample() * sizeof(float));
}

::testing::AssertionResult grids_bitwise_equal(const std::vector<GridD>& a,
                                               const std::vector<GridD>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "layer count " << a.size()
                                         << " vs " << b.size();
  for (std::size_t l = 0; l < a.size(); ++l) {
    if (a[l].size() != b[l].size() ||
        std::memcmp(a[l].data(), b[l].data(), a[l].size() * sizeof(double)) !=
            0) {
      for (std::size_t k = 0; k < a[l].size(); ++k)
        if (std::memcmp(&a[l][k], &b[l][k], sizeof(double)) != 0)
          return ::testing::AssertionFailure()
                 << "layer " << l << " element " << k << ": " << a[l][k]
                 << " vs " << b[l][k];
      return ::testing::AssertionFailure() << "layer " << l << " shape";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CmpNetworkVjp, GradientMatchesTapeBitwise) {
  // The tape-free gradient (session VJP + flat-plane extraction, chaining,
  // Eq. 10a-c, calibration and merge adjoints) against the autograd tape:
  // Designs A, B and C, identity and fitted calibrations, a point where a
  // score term is clipped to zero, at 1 and 4 threads — value fields,
  // heights and gradient bitwise.
  SurrogateConfig cfg;  // production architecture: group norm, depth 3
  for (const char design : {'a', 'b', 'c'}) {
    const Layout layout = make_design(design, 12, 100.0, 3);
    const WindowExtraction ext = extract_windows(layout);
    auto surrogate = std::make_shared<CmpSurrogate>(cfg, 5);
    std::vector<GridD> x(ext.num_layers(), GridD(ext.rows, ext.cols, 0.0));
    Rng rng(static_cast<std::uint64_t>(design));
    for (auto& g : x)
      for (auto& v : g) v = rng.uniform(0.0, 0.3);
    // Scales at 10x the metrics keep every score term active (a fitted
    // calibration moves them by well under that); Eq. 10c's softplus sum is
    // positive, so a tiny beta clips its term.
    const CmpNetwork::Eval probe =
        CmpNetwork(surrogate, ext, ScoreCoefficients{}).evaluate(x, false);
    std::vector<GridD> unclipped_grad;
    for (const bool clipped : {false, true}) {
      ScoreCoefficients coeffs;
      coeffs.beta_sigma = 10.0 * probe.sigma;
      coeffs.beta_sigma_star = 10.0 * probe.sigma_star;
      coeffs.beta_ol = clipped ? 1e-9 : 10.0 * probe.outliers;
      for (const bool fitted : {false, true}) {
        CmpNetwork net(surrogate, ext, coeffs);
        if (fitted)
          net.set_calibration({0.1, 1.05}, {-0.2, 0.95}, {0.05, 1.02});
        const CmpNetwork::Eval ref =
            oracle::tape_evaluate(*surrogate, ext, net, x, true);
        // The case is live: a non-zero gradient, and the clipped Eq. 10c
        // term drops out of it.
        bool nonzero = false;
        for (const GridD& g : ref.grad)
          for (const double v : g) nonzero = nonzero || v != 0.0;
        EXPECT_TRUE(nonzero);
        if (!fitted && !clipped) unclipped_grad = ref.grad;
        if (!fitted && clipped) {
          EXPECT_FALSE(grids_bitwise_equal(ref.grad, unclipped_grad));
        }
        for (const int threads : {1, 4}) {
          runtime::set_thread_count(threads);
          const CmpNetwork::Eval got = net.evaluate(x, true);
          const CmpNetwork::Eval value = net.evaluate(x, false);
          SCOPED_TRACE(testing::Message()
                       << "design " << design << " clipped " << clipped
                       << " fitted " << fitted << " threads " << threads);
          EXPECT_EQ(got.s_plan, ref.s_plan);
          EXPECT_EQ(got.sigma, ref.sigma);
          EXPECT_EQ(got.sigma_star, ref.sigma_star);
          EXPECT_EQ(got.outliers, ref.outliers);
          EXPECT_EQ(value.s_plan, got.s_plan);
          EXPECT_TRUE(value.grad.empty());
          EXPECT_TRUE(grids_bitwise_equal(got.heights, ref.heights));
          EXPECT_TRUE(grids_bitwise_equal(value.heights, ref.heights));
          EXPECT_TRUE(grids_bitwise_equal(got.grad, ref.grad));
          EXPECT_TRUE(grids_bitwise_equal(net.predict_heights(x), ref.heights));
        }
        runtime::set_thread_count(0);
      }
    }
  }
}

TEST(CmpNetworkFast, EvaluateBatchMatchesSerialBitwise) {
  // Cross-candidate batching: evaluate_batch must return, per candidate,
  // exactly the Eval that evaluate(x, false) returns — the NMMSO move
  // batches and the PKB sweep rely on batched and serial evaluations being
  // interchangeable mid-optimization.
  const Layout layout = make_design('a', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  SurrogateConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 2;
  auto surrogate = std::make_shared<CmpSurrogate>(cfg, 7);
  ScoreCoefficients coeffs;
  coeffs.beta_sigma = 1000.0;
  coeffs.beta_sigma_star = 1e5;
  coeffs.beta_ol = 100.0;
  const CmpNetwork net(surrogate, ext, coeffs);

  Rng rng(21);
  for (const int B : {1, 2, 7, 32}) {
    std::vector<std::vector<GridD>> xs(
        static_cast<std::size_t>(B),
        std::vector<GridD>(3, GridD(8, 8, 0.0)));
    for (auto& x : xs)
      for (auto& g : x)
        for (auto& v : g) v = rng.uniform(0.0, 0.3);

    const std::vector<CmpNetwork::Eval> batched = net.evaluate_batch(xs);
    ASSERT_EQ(batched.size(), xs.size());
    for (int b = 0; b < B; ++b) {
      const CmpNetwork::Eval solo = net.evaluate(xs[static_cast<std::size_t>(b)],
                                                 false);
      const CmpNetwork::Eval& eb = batched[static_cast<std::size_t>(b)];
      EXPECT_EQ(eb.s_plan, solo.s_plan) << "B=" << B << " b=" << b;
      EXPECT_EQ(eb.sigma, solo.sigma);
      EXPECT_EQ(eb.sigma_star, solo.sigma_star);
      EXPECT_EQ(eb.outliers, solo.outliers);
      ASSERT_EQ(eb.heights.size(), solo.heights.size());
      for (std::size_t l = 0; l < eb.heights.size(); ++l)
        for (std::size_t i = 0; i < eb.heights[l].rows(); ++i)
          for (std::size_t j = 0; j < eb.heights[l].cols(); ++j)
            ASSERT_EQ(eb.heights[l](i, j), solo.heights[l](i, j))
                << "B=" << B << " b=" << b << " layer " << l;
    }
  }
}

TEST(SurrogateSessionCache, SharedAcrossNetworksAndKeyedByWeights) {
  clear_surrogate_inference_cache();
  const Layout layout = make_design('a', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  SurrogateConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 2;
  auto surrogate = std::make_shared<CmpSurrogate>(cfg, 7);
  ScoreCoefficients coeffs;

  // Repeated constructions over one frozen surrogate + plane size (the
  // fullchip tile loop) share a single compiled session.
  const CmpNetwork a(surrogate, ext, coeffs);
  const CmpNetwork b(surrogate, ext, coeffs);
  EXPECT_EQ(surrogate_inference_cache_size(), 1u);

  // Different weights (same architecture and plane size) must miss.
  auto other = std::make_shared<CmpSurrogate>(cfg, 8);
  const CmpNetwork c(other, ext, coeffs);
  EXPECT_EQ(surrogate_inference_cache_size(), 2u);

  clear_surrogate_inference_cache();
  EXPECT_EQ(surrogate_inference_cache_size(), 0u);
}

}  // namespace
}  // namespace neurfill
