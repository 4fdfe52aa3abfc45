#pragma once

// Autograd-tape oracle for CmpNetwork: the CMP neural network of Fig. 4
// built op by op on the nn autograd tape (CmpSurrogate::forward_heights,
// masked Eq. 10a-c terms, calibration, Eq. 5b merge) and differentiated by
// Tensor::backward.  CmpNetwork evaluates the same network tape-free — the
// compiled session forward plus hand-written adjoints — and the tests pin
// the two bitwise, value and gradient.
//
// The tape accumulates parameter gradients into the surrogate's weight
// buffers, so an oracle surrogate must not be one whose grad buffers a test
// inspects.

#include <utility>
#include <vector>

#include "fill/neurfill.hpp"
#include "fill/problem.hpp"
#include "nn/ops.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/features.hpp"

namespace neurfill::oracle {

inline CmpNetwork::Eval tape_evaluate(const CmpSurrogate& surrogate,
                                      const WindowExtraction& ext,
                                      const CmpNetwork& network,
                                      const std::vector<GridD>& x,
                                      bool with_grad) {
  using nn::Tensor;
  const std::vector<StaticLayerFeatures> feats = build_static_features(
      ext, surrogate.config().features, 1 << surrogate.config().unet.depth);
  const std::size_t rows = network.rows(), cols = network.cols();
  const int pr = feats[0].padded_rows, pc = feats[0].padded_cols;

  std::vector<Tensor> fills;
  for (const GridD& g : x) {
    std::vector<float> data(static_cast<std::size_t>(pr) * pc, 0.0f);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j)
        data[i * static_cast<std::size_t>(pc) + j] = static_cast<float>(g(i, j));
    fills.push_back(Tensor::from_data({1, 1, pr, pc}, std::move(data), with_grad));
  }
  const std::vector<Tensor> heights = surrogate.forward_heights(feats, fills);

  std::vector<float> mask_data(static_cast<std::size_t>(pr) * pc, 0.0f);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      mask_data[i * static_cast<std::size_t>(pc) + j] = 1.0f;
  const Tensor mask = Tensor::from_data({1, 1, pr, pc}, std::move(mask_data));
  const float count = static_cast<float>(rows * cols);

  Tensor sigma_total = Tensor::scalar(0.0f);
  Tensor sigma_star_total = Tensor::scalar(0.0f);
  Tensor ol_total = Tensor::scalar(0.0f);
  for (const Tensor& h : heights) {
    const Tensor hm = nn::mul(h, mask);
    const Tensor mean_h = nn::mul_scalar(nn::sum(hm), 1.0f / count);
    const Tensor dev = nn::mul(nn::sub(h, mean_h), mask);
    const Tensor var = nn::mul_scalar(nn::sum(nn::square(dev)), 1.0f / count);
    sigma_total = nn::add(sigma_total, var);
    const Tensor col_mean =
        nn::mul_scalar(nn::sum_axis(hm, 2), 1.0f / static_cast<float>(rows));
    const Tensor col_dev = nn::mul(nn::sub(h, col_mean), mask);
    sigma_star_total = nn::add(sigma_star_total, nn::sum(nn::abs_op(col_dev)));
    const Tensor sig_l = nn::sqrt_op(nn::add_scalar(var, 1e-6f));
    const Tensor threshold = nn::add(mean_h, nn::mul_scalar(sig_l, 3.0f));
    const Tensor smooth = nn::softplus(
        nn::sub(h, threshold),
        static_cast<float>(surrogate.config().outlier_eta));
    ol_total = nn::add(ol_total, nn::sum(nn::mul(smooth, mask)));
  }

  const auto apply_cal = [](const Tensor& t,
                            const CmpNetwork::MetricCalibration& c) {
    if (c.a == 0.0 && c.b == 1.0) return t;
    const Tensor log_t = nn::log_op(nn::add_scalar(t, 1e-6f));
    return nn::exp_op(nn::add_scalar(
        nn::mul_scalar(log_t, static_cast<float>(c.b)),
        static_cast<float>(c.a)));
  };
  sigma_total = apply_cal(sigma_total, network.sigma_calibration());
  sigma_star_total =
      apply_cal(sigma_star_total, network.sigma_star_calibration());
  ol_total = apply_cal(ol_total, network.outlier_calibration());

  const auto score_term = [](const Tensor& t, double alpha, double beta) {
    return nn::mul_scalar(
        nn::relu(nn::add_scalar(
            nn::mul_scalar(t, -1.0f / static_cast<float>(beta)), 1.0f)),
        static_cast<float>(alpha));
  };
  const ScoreCoefficients& k = network.coefficients();
  Tensor s_plan = nn::add(
      score_term(sigma_total, k.alpha_sigma, k.beta_sigma),
      nn::add(score_term(sigma_star_total, k.alpha_sigma_star,
                         k.beta_sigma_star),
              score_term(ol_total, k.alpha_ol, k.beta_ol)));

  CmpNetwork::Eval out;
  out.s_plan = s_plan.item();
  out.sigma = sigma_total.item();
  out.sigma_star = sigma_star_total.item();
  out.outliers = ol_total.item();
  for (const Tensor& h : heights)
    out.heights.push_back(
        crop_to_grid(h, static_cast<int>(rows), static_cast<int>(cols)));
  if (with_grad) {
    s_plan.backward();
    for (const Tensor& f : fills) {
      GridD g(rows, cols, 0.0);
      if (f.has_grad())
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = 0; j < cols; ++j)
            g(i, j) = f.grad()[i * static_cast<std::size_t>(pc) + j];
      out.grad.push_back(std::move(g));
    }
  }
  return out;
}

/// make_network_objective with the tape oracle in place of
/// CmpNetwork::evaluate: value -(S_plan + S_PD), gradient likewise.
inline ObjectiveFn tape_objective(const FillProblem& problem,
                                  const CmpSurrogate& surrogate,
                                  const CmpNetwork& network,
                                  long* eval_counter) {
  return [&problem, &surrogate, &network, eval_counter](
             const VecD& v, VecD* grad) -> double {
    if (eval_counter) ++*eval_counter;
    const std::vector<GridD> x = problem.unflatten(v);
    const CmpNetwork::Eval net = tape_evaluate(
        surrogate, problem.extraction(), network, x, grad != nullptr);
    const PdScore pd =
        pd_score_and_gradient(problem.extraction(), x, problem.coefficients());
    if (grad) {
      grad->assign(v.size(), 0.0);
      std::size_t k = 0;
      for (std::size_t l = 0; l < net.grad.size(); ++l)
        for (std::size_t w = 0; w < net.grad[l].size(); ++w, ++k)
          (*grad)[k] = -(net.grad[l][w] + pd.grad[l][w]);
    }
    return -(net.s_plan + pd.s_pd);
  };
}

}  // namespace neurfill::oracle
