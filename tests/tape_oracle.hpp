#pragma once

// Autograd-tape oracle for the surrogate: the CMP neural network of Fig. 4
// built op by op on the autograd tape (tests/tape) — the extraction layer,
// the reference UNet, the height post-processing and layer chaining, the
// masked Eq. 10a-c terms, calibration and the Eq. 5b merge — and
// differentiated by Tensor::backward, plus the pre-training loop on the
// tape (normalized-MSE loss with teacher forcing, Adam).  The program runs
// the same network and trainer through the compiled session and
// hand-written adjoints, and the tests pin the two bitwise: values, fill
// gradients, trained weights and optimizer moments.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "fill/neurfill.hpp"
#include "fill/problem.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/datagen.hpp"
#include "surrogate/features.hpp"
#include "surrogate/trainer.hpp"
#include "tape/ops.hpp"
#include "tape/optim.hpp"
#include "tape/unet.hpp"

namespace neurfill::oracle {

/// A tape UNet holding a copy of the surrogate's weights.
inline nn::UNet tape_unet(const CmpSurrogate& surrogate) {
  Rng rng(0);
  nn::UNet net(surrogate.config().unet, rng);
  nn::load_parameter_set(net, surrogate.parameters());
  return net;
}

/// Crops a padded [1,1,pr,pc] tensor's data back to rows x cols.
inline GridD crop_to_grid(const nn::Tensor& t, int rows, int cols) {
  GridD g(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  const int pc = t.dim(3);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      g(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          t.data()[i * pc + j];
  return g;
}

/// The extraction layer of Fig. 4: the network input [1, kInChannels, pr,
/// pc] of one layer from its static planes, the padded fill (which may
/// require grad) and the normalized incoming topography.
inline nn::Tensor assemble_layer_input(const StaticLayerFeatures& layer,
                                       const FeatureConstants& consts,
                                       const nn::Tensor& fill,
                                       const nn::Tensor& incoming) {
  using nn::Tensor;
  const int pr = layer.padded_rows, pc = layer.padded_cols;
  const std::vector<int> plane_shape{1, 1, pr, pc};
  const Tensor rho = Tensor::from_data(plane_shape, layer.wire_density);
  const Tensor perim0 = Tensor::from_data(plane_shape, layer.perimeter);
  const Tensor wnum0 = Tensor::from_data(plane_shape, layer.width_blend_num);
  const Tensor slack = Tensor::from_data(plane_shape, layer.slack);

  // DSH-model pattern update w.r.t. fill x: density' = rho + x; square
  // tiles of area x*wa add perimeter 4*x*wa/edge; the mean width blends the
  // dummies' tile width into the pattern.
  const Tensor density = nn::add(rho, fill);
  const double wa = consts.window_um * consts.window_um;
  const float dperim = static_cast<float>(
      4.0 * wa / consts.dummy_edge_um / consts.perimeter_norm);
  const Tensor perim = nn::add(perim0, nn::mul_scalar(fill, dperim));
  const float wdum = static_cast<float>(
      consts.dummy_edge_um / (consts.dummy_edge_um + consts.width_ref_um));
  const Tensor width =
      nn::div(nn::add(wnum0, nn::mul_scalar(fill, wdum)),
              nn::add_scalar(density, 1e-3f));
  // Global mean density, broadcast to a full plane.
  const Tensor global_plane =
      nn::mul(Tensor::ones(plane_shape), nn::mean(density));

  Tensor input = nn::concat_channels(density, perim);
  input = nn::concat_channels(input, width);
  input = nn::concat_channels(input, incoming);
  input = nn::concat_channels(input, slack);
  input = nn::concat_channels(input, global_plane);
  input = nn::concat_channels(input, Tensor::ones(plane_shape));
  return input;
}

/// The normalized incoming plane layer l+1 sees given layer l's heights
/// (Angstrom): the simulator's chaining rule.
inline nn::Tensor incoming_from_height(const CmpSurrogate& surrogate,
                                       const nn::Tensor& height_ang) {
  const SurrogateConfig& c = surrogate.config();
  return nn::mul_scalar(
      nn::sub(height_ang, nn::mean(height_ang)),
      static_cast<float>(c.topo_transfer / c.features.height_scale));
}

/// Per-layer heights in Angstrom, [1,1,pr,pc], chained through the incoming
/// topography like the simulator's layer loop, or — with
/// `incoming_override` — fed the given normalized incoming planes (teacher
/// forcing).
inline std::vector<nn::Tensor> forward_heights(
    const CmpSurrogate& surrogate, nn::UNet& net,
    const std::vector<StaticLayerFeatures>& layers,
    const std::vector<nn::Tensor>& fills,
    const std::vector<nn::Tensor>& incoming_override = {}) {
  using nn::Tensor;
  const auto& fc = surrogate.config().features;
  const int pr = layers[0].padded_rows, pc = layers[0].padded_cols;
  std::vector<Tensor> heights;
  Tensor incoming = Tensor::zeros({1, 1, pr, pc});  // normalized units
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (!incoming_override.empty()) incoming = incoming_override[l];
    const Tensor h_norm =
        net.forward(assemble_layer_input(layers[l], fc, fills[l], incoming));
    // Hard-centered (topography), then denormalized to Angstrom.
    const Tensor h_centered = nn::sub(h_norm, nn::mean(h_norm));
    const Tensor h_ang = nn::add_scalar(
        nn::mul_scalar(h_centered, static_cast<float>(fc.height_scale)),
        static_cast<float>(fc.height_offset));
    heights.push_back(h_ang);
    if (l + 1 < layers.size() && incoming_override.empty())
      incoming = incoming_from_height(surrogate, h_ang);
  }
  return heights;
}

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
  nn::UNet net = tape_unet(surrogate);
  const std::vector<Tensor> heights =
      forward_heights(surrogate, net, feats, fills);

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

/// The normalized-MSE loss of one sample against its simulator labels,
/// with teacher forcing: each layer's incoming topography is chained from
/// the simulator's height of the layer below.
inline nn::Tensor sample_loss(const CmpSurrogate& surrogate, nn::UNet& net,
                              const TrainingSample& sample) {
  using nn::Tensor;
  const auto& fc = surrogate.config().features;
  const auto feats = build_static_features(sample.ext, fc,
                                           1 << surrogate.config().unet.depth);
  const int pr = feats[0].padded_rows, pc = feats[0].padded_cols;
  std::vector<Tensor> fills, incoming;
  for (std::size_t l = 0; l < feats.size(); ++l) {
    std::vector<float> data(static_cast<std::size_t>(pr) * pc, 0.0f);
    for (std::size_t i = 0; i < sample.fill[l].rows(); ++i)
      for (std::size_t j = 0; j < sample.fill[l].cols(); ++j)
        data[i * static_cast<std::size_t>(pc) + j] =
            static_cast<float>(sample.fill[l](i, j));
    fills.push_back(Tensor::from_data({1, 1, pr, pc}, std::move(data)));
    incoming.push_back(
        l == 0 ? Tensor::zeros({1, 1, pr, pc})
               : incoming_from_height(
                     surrogate,
                     Tensor::from_data({1, 1, pr, pc},
                                       pad_replicate(sample.heights[l - 1], pr,
                                                     pc))));
  }
  const auto heights = forward_heights(surrogate, net, feats, fills, incoming);
  const float inv_scale = 1.0f / static_cast<float>(fc.height_scale);
  Tensor loss = Tensor::scalar(0.0f);
  for (std::size_t l = 0; l < heights.size(); ++l) {
    double mean_h = 0.0;
    for (const double v : sample.heights[l]) mean_h += v;
    mean_h /= static_cast<double>(sample.heights[l].size());
    GridD centered = sample.heights[l];
    for (auto& v : centered) v -= mean_h;
    std::vector<float> target = pad_replicate(centered, pr, pc);
    for (auto& v : target) v *= inv_scale;
    const Tensor t = Tensor::from_data({1, 1, pr, pc}, std::move(target));
    loss = nn::add(loss,
                   nn::mse_loss(nn::mul_scalar(heights[l], inv_scale), t));
  }
  return loss;
}

/// train_surrogate on the tape: the same height calibration, fixed dataset,
/// shuffle, per-sample backward, gradient accumulation and Adam steps,
/// without checkpoints.  Sets the surrogate's height normalization, trains
/// `net`'s weights and returns the optimizer state.
inline nn::Adam::State tape_train(CmpSurrogate& surrogate, nn::UNet& net,
                                  TrainingDataGenerator& datagen,
                                  const TrainOptions& options) {
  std::vector<double> values;
  for (const TrainingSample& s : datagen.generate_batch(
           static_cast<std::size_t>(options.calibration_samples),
           options.grid_rows, options.grid_cols))
    for (const auto& h : s.heights) {
      double mean_h = 0.0;
      for (const double v : h) mean_h += v;
      mean_h /= static_cast<double>(h.size());
      for (const double v : h) values.push_back(v - mean_h);
    }
  auto& fc = surrogate.mutable_config().features;
  fc.height_offset = 0.0;
  fc.height_scale = std::max(summarize(values).stddev * 3.0, 10.0);

  const std::vector<TrainingSample> dataset = datagen.generate_batch(
      static_cast<std::size_t>(options.dataset_size), options.grid_rows,
      options.grid_cols);
  Rng shuffle_rng(options.seed ^ 0x5EEDull);
  std::vector<std::size_t> order(dataset.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  nn::Adam opt(net.parameters(), options.learning_rate);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    opt.set_learning_rate(
        options.learning_rate *
        std::pow(options.lr_decay, static_cast<float>(epoch)));
    shuffle_rng.shuffle(order);
    int in_batch = 0;
    opt.zero_grad();
    for (const std::size_t i : order) {
      sample_loss(surrogate, net, dataset[i]).backward();
      if (++in_batch >= options.grad_accumulation) {
        opt.step();
        opt.zero_grad();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      opt.step();
      opt.zero_grad();
    }
  }
  return opt.export_state();
}

}  // namespace neurfill::oracle
