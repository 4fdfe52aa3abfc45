#include "surrogate/eval.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "surrogate/infer.hpp"

namespace neurfill {

AccuracyReport evaluate_surrogate_accuracy(const CmpSurrogate& surrogate,
                                           TrainingDataGenerator& datagen,
                                           int num_samples,
                                           std::size_t grid_rows,
                                           std::size_t grid_cols) {
  if (num_samples <= 0)
    throw std::invalid_argument("evaluate_surrogate_accuracy: no samples");
  AccuracyReport report;
  report.samples = num_samples;

  const std::size_t L = [&] {
    const TrainingSample probe = datagen.generate(grid_rows, grid_cols);
    return probe.ext.num_layers();
  }();
  // Per-window accumulated relative error (averaged over samples & layers).
  GridD window_err(grid_rows, grid_cols, 0.0);
  double total_err = 0.0;
  std::size_t total_count = 0;

  const int divisor = 1 << surrogate.config().unet.depth;
  std::unique_ptr<SurrogateInference> infer;  // compiled on the first sample
  for (int s = 0; s < num_samples; ++s) {
    const TrainingSample sample = datagen.generate(grid_rows, grid_cols);
    const auto feats =
        build_static_features(sample.ext, surrogate.config().features, divisor);
    if (!infer)
      infer = std::make_unique<SurrogateInference>(
          surrogate, feats[0].padded_rows, feats[0].padded_cols);
    std::vector<std::vector<float>> fill_planes(sample.fill.size());
    for (std::size_t l = 0; l < sample.fill.size(); ++l) {
      const int pr = feats[l].padded_rows, pc = feats[l].padded_cols;
      fill_planes[l].assign(static_cast<std::size_t>(pr) * pc, 0.0f);
      for (std::size_t i = 0; i < grid_rows; ++i)
        for (std::size_t j = 0; j < grid_cols; ++j)
          fill_planes[l][i * static_cast<std::size_t>(pc) + j] =
              static_cast<float>(sample.fill[l](i, j));
    }
    std::vector<const float*> fill_ptrs;
    fill_ptrs.reserve(fill_planes.size());
    for (const auto& p : fill_planes) fill_ptrs.push_back(p.data());
    std::vector<std::vector<float>> pred;
    infer->predict_heights(feats, fill_ptrs, pred);

    // The surrogate predicts centered topography, so compare against the
    // centered simulator profile.  Reference magnitude: the simulated
    // heights' peak-to-peak range per sample, the scale that matters for
    // planarity (the paper references absolute heights; our height origin
    // is arbitrary, so the range is the scale-free equivalent).
    std::vector<GridD> centered = sample.heights;
    double lo = 1e300, hi = -1e300;
    for (auto& h : centered) {
      double mean_h = 0.0;
      for (const double v : h) mean_h += v;
      mean_h /= static_cast<double>(h.size());
      for (auto& v : h) {
        v -= mean_h;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    const double ref = std::max(hi - lo, 1e-9);

    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t pc = static_cast<std::size_t>(feats[l].padded_cols);
      for (std::size_t i = 0; i < grid_rows; ++i) {
        for (std::size_t j = 0; j < grid_cols; ++j) {
          const double hp = pred[l][i * pc + j];
          const double e = std::fabs(hp - centered[l](i, j)) / ref;
          window_err(i, j) += e;
          total_err += e;
          ++total_count;
        }
      }
    }
  }

  report.mean_rel_error = total_err / static_cast<double>(total_count);
  report.below_threshold = 2.2 * report.mean_rel_error;
  const double per_window_norm = 1.0 / static_cast<double>(num_samples * L);
  std::size_t below = 0;
  for (auto& v : window_err) {
    v *= per_window_norm;
    report.max_window_rel_error = std::max(report.max_window_rel_error, v);
    if (v < report.below_threshold) ++below;
    report.histogram.add(v);
  }
  report.frac_windows_below =
      static_cast<double>(below) / static_cast<double>(window_err.size());
  return report;
}

}  // namespace neurfill
