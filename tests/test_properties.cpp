// Parameterized property sweeps (TEST_P) across the numerical substrates:
// convolution gradients over shape/stride/padding grids, DSH invariants over
// the process-parameter space, FFT round trips over sizes, box-QP KKT
// conditions over random problem instances, and simulator monotonicity over
// designs.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "cmp/dsh_model.hpp"
#include "cmp/simulator.hpp"
#include "common/fft.hpp"
#include "common/rng.hpp"
#include "fill/pd_model.hpp"
#include "fill/problem.hpp"
#include "geom/designs.hpp"
#include "opt/box_qp.hpp"
#include "tape/ops.hpp"

#include "gradcheck_util.hpp"

namespace neurfill {
namespace {

// ---------------------------------------------------------------- conv2d

struct ConvCase {
  int batch, cin, cout, hw, kernel, stride, pad;
};

class ConvGradP : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradP, AllInputsGradCheck) {
  const ConvCase c = GetParam();
  using nn::testing::expect_gradcheck_multi;
  using nn::testing::random_tensor;
  const auto fn = [&c](const std::vector<nn::Tensor>& in) {
    return nn::sum(nn::square(nn::conv2d(in[0], in[1], in[2], c.stride, c.pad)));
  };
  std::vector<nn::Tensor> in{
      random_tensor({c.batch, c.cin, c.hw, c.hw}, 11u + static_cast<unsigned>(c.hw)),
      random_tensor({c.cout, c.cin, c.kernel, c.kernel},
                    23u + static_cast<unsigned>(c.kernel)),
      random_tensor({c.cout}, 31u)};
  for (std::size_t i = 0; i < 3; ++i) expect_gradcheck_multi(fn, in, i);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradP,
    ::testing::Values(ConvCase{1, 1, 1, 4, 1, 1, 0},   // 1x1 conv
                      ConvCase{1, 2, 3, 5, 3, 1, 1},   // same-padding 3x3
                      ConvCase{2, 3, 2, 6, 3, 1, 0},   // valid conv, batch 2
                      ConvCase{1, 2, 2, 6, 3, 2, 1},   // strided
                      ConvCase{1, 1, 4, 7, 5, 1, 2},   // 5x5 kernel
                      ConvCase{3, 2, 1, 4, 2, 2, 0})); // even kernel, stride 2

// ---------------------------------------------------------------- DSH

class DshPropertyP
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(DshPropertyP, InvariantsHold) {
  const auto [rho, h, p] = GetParam();
  DshParams params;
  params.preston_k = 2.0;
  params.velocity = 1.5;
  const DshRates r = dsh_removal_rates(rho, h, p, params);
  // Rates are non-negative and up >= down (steps only shrink).
  EXPECT_GE(r.down, 0.0);
  EXPECT_GE(r.up, r.down - 1e-12);
  // Pressure scaling is exactly linear.
  const DshRates r2 = dsh_removal_rates(rho, h, 2.0 * p, params);
  EXPECT_NEAR(r2.up, 2.0 * r.up, 1e-9 * r.up);
  EXPECT_NEAR(r2.down, 2.0 * r.down, 1e-9 * std::max(r.down, 1e-12));
  // Monotone in density: denser windows polish slower (up rate).
  const DshRates denser =
      dsh_removal_rates(std::min(rho + 0.1, 1.0), h, p, params);
  EXPECT_LE(denser.up, r.up + 1e-12);
  // Monotone in step height: taller steps mean less down-area polishing.
  const DshRates taller = dsh_removal_rates(rho, h + 100.0, p, params);
  EXPECT_LE(taller.down, r.down + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, DshPropertyP,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),     // rho
                       ::testing::Values(0.0, 150.0, 2000.0), // h (A)
                       ::testing::Values(1.0, 5.0)));          // pressure

// ---------------------------------------------------------------- FFT

class FftSizeP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeP, RoundTripAndLinearity) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<std::complex<double>> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    b[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  // Round trip.
  auto ra = a;
  fft(ra, false);
  fft(ra, true);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(ra[i] - a[i]), 0.0, 1e-11);
  // Linearity: F(a + 2b) = F(a) + 2 F(b).
  std::vector<std::complex<double>> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = a[i] + 2.0 * b[i];
  auto fa = a, fb = b, fsum = sum;
  fft(fa, false);
  fft(fb, false);
  fft(fsum, false);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(fsum[i] - (fa[i] + 2.0 * fb[i])), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizeP,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 1024));

// ---------------------------------------------------------------- box QP

class BoxQpRandomP : public ::testing::TestWithParam<int> {};

TEST_P(BoxQpRandomP, KktResidualVanishes) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t n = 8 + static_cast<std::size_t>(rng.uniform_index(25));
  // Random SPD matrix A = M^T M + I.
  std::vector<double> M(n * n);
  for (auto& v : M) v = rng.uniform(-1, 1);
  std::vector<double> A(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) A[i * n + j] += M[k * n + i] * M[k * n + j];
      if (i == j) A[i * n + j] += 1.0;
    }
  const HessVec B = [&A, n](const VecD& v, VecD& out) {
    out.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) out[i] += A[i * n + j] * v[j];
  };
  VecD g(n);
  for (auto& v : g) v = rng.uniform(-3, 3);
  Box box;
  box.lo.assign(n, -0.4);
  box.hi.assign(n, 0.4);
  const BoxQpResult r = solve_box_qp(B, g, box);
  ASSERT_TRUE(box.contains(r.d, 1e-9));
  VecD Bd(n);
  B(r.d, Bd);
  for (std::size_t i = 0; i < n; ++i) {
    double pg = Bd[i] + g[i];
    if (r.d[i] <= box.lo[i] + 1e-9 && pg > 0.0) pg = 0.0;
    if (r.d[i] >= box.hi[i] - 1e-9 && pg < 0.0) pg = 0.0;
    EXPECT_NEAR(pg, 0.0, 2e-4) << "seed " << seed << " index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxQpRandomP, ::testing::Range(1, 9));

// ---------------------------------------------------------------- simulator

class SimMonotoneP : public ::testing::TestWithParam<char> {};

TEST_P(SimMonotoneP, FillNeverLowersFilledWindowHeight) {
  const char design = GetParam();
  const Layout layout = make_design(design, 10, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  CmpProcessParams pp;
  pp.polish_time_s = 20.0;
  CmpSimulator sim(pp);
  std::vector<GridD> x0(ext.num_layers(), GridD(ext.rows, ext.cols, 0.0));
  const auto h0 = sim.simulate_heights(ext, x0);
  // Fill the three windows with the largest slack on layer 1.
  std::vector<std::size_t> picks;
  for (int t = 0; t < 3; ++t) {
    std::size_t best = 0;
    double bs = -1.0;
    for (std::size_t k = 0; k < ext.layers[1].slack.size(); ++k) {
      bool used = false;
      for (const std::size_t p : picks) used = used || p == k;
      if (!used && ext.layers[1].slack[k] > bs) {
        bs = ext.layers[1].slack[k];
        best = k;
      }
    }
    picks.push_back(best);
  }
  std::vector<GridD> x1 = x0;
  for (const std::size_t k : picks) x1[1][k] = ext.layers[1].slack[k];
  const auto h1 = sim.simulate_heights(ext, x1);
  for (const std::size_t k : picks)
    EXPECT_GE(h1[1][k], h0[1][k] - 1e-9)
        << "design " << design << " window " << k;
}

TEST_P(SimMonotoneP, HeightsFiniteAndBounded) {
  const char design = GetParam();
  const Layout layout = make_design(design, 10, 100.0, 5);
  const WindowExtraction ext = extract_windows(layout);
  CmpSimulator sim;
  const auto res = sim.simulate(ext, {});
  for (const auto& r : res) {
    for (const double v : r.height) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_LT(std::fabs(v), 1e6);
    }
    for (const double v : r.dishing) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, sim.params().dish_coeff + 1e-9);
    }
    for (const double v : r.final_step) EXPECT_GE(v, -1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, SimMonotoneP,
                         ::testing::Values('a', 'b', 'c'));

// ---------------------------------------------------------------- PD model

class PdGradientP : public ::testing::TestWithParam<double> {};

TEST_P(PdGradientP, SubgradientMatchesForwardDifference) {
  const double fill_level = GetParam();
  const Layout layout = make_design('b', 8, 100.0, 7);
  const WindowExtraction ext = extract_windows(layout);
  CmpSimulator sim;
  const ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
  std::vector<GridD> x(ext.num_layers(), GridD(ext.rows, ext.cols, 0.0));
  for (std::size_t l = 0; l < x.size(); ++l)
    for (std::size_t k = 0; k < x[l].size(); ++k)
      x[l][k] = fill_level * ext.layers[l].slack[k];
  const PdScore base = pd_score_and_gradient(ext, x, coeffs);
  const double eps = 1e-7;
  for (const std::size_t k : {3UL, 17UL, 42UL}) {
    for (std::size_t l = 0; l < x.size(); ++l) {
      if (ext.layers[l].slack[k] < 1e-9) continue;
      std::vector<GridD> xp = x;
      xp[l][k] += eps;
      const PdScore up = pd_score_and_gradient(ext, xp, coeffs);
      const double numeric = (up.s_pd - base.s_pd) / eps;
      EXPECT_NEAR(base.grad[l][k], numeric,
                  1e-4 * std::fabs(numeric) + 1e-9)
          << "fill level " << fill_level << " l=" << l << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FillLevels, PdGradientP,
                         ::testing::Values(0.05, 0.3, 0.6, 0.95));

}  // namespace
}  // namespace neurfill
