#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fill/score_coeffs.hpp"
#include "layout/window_grid.hpp"
#include "nn/parameters.hpp"
#include "surrogate/features.hpp"

namespace neurfill {

class SurrogateInference;  // surrogate/infer.hpp
struct SurrogateRecord;

/// Configuration of the trained surrogate artifact.
struct SurrogateConfig {
  nn::UNetConfig unet;  ///< in_channels must equal FeatureConstants::kInChannels
  FeatureConstants features;
  double topo_transfer = 0.8;  ///< must match the simulator's layer chaining
  /// Sharpness (1/Angstrom) of the smooth outlier relaxation: the paper's
  /// Eq. 10c replaces the non-differentiable max(0, .) with a sigmoid; we
  /// use softplus with the same role (ablated in bench_ablation_eta).
  double outlier_eta = 0.05;

  SurrogateConfig() {
    unet.in_channels = FeatureConstants::kInChannels;
    unet.out_channels = 1;
    unet.base_channels = 8;
    unet.depth = 3;
    unet.use_group_norm = true;  // stabilizes the regression (see trainer)
  }
};

/// The trained CMP surrogate: the UNet's weights plus its
/// feature/normalization constants.  This is what pre-training produces and
/// what checkpoints store.  The network itself runs through
/// SurrogateInference (surrogate/infer.hpp): the extraction layer, the
/// compiled UNet, the hard-centering to topography and the layer chaining.
class CmpSurrogate {
 public:
  /// Initializes the weights from `seed` (nn::make_unet_parameters).
  CmpSurrogate(const SurrogateConfig& config, std::uint64_t seed);

  const SurrogateConfig& config() const { return config_; }
  SurrogateConfig& mutable_config() { return config_; }

  /// The UNet's weights: one flat, ordered, named parameter set, the only
  /// copy; compiled sessions read it in place.
  nn::ParameterSet& parameters() { return *params_; }
  const nn::ParameterSet& parameters() const { return *params_; }
  /// Shared ownership of the weights, for sessions that outlive the
  /// surrogate (the process-wide session cache).
  std::shared_ptr<const nn::ParameterSet> shared_parameters() const {
    return params_;
  }

 private:
  SurrogateConfig config_;
  std::shared_ptr<nn::ParameterSet> params_;
};

/// Saves/loads the surrogate as <path>.meta (text config) + <path>.weights
/// (CRC-checksummed NFCP container, written atomically).  Failures come
/// back as structured nf::Error values naming the file and, for weight
/// corruption, the failing section and expected-vs-actual checksum — tools
/// print error.to_string() and exit 1, no stack trace.
[[nodiscard]] Expected<void> save_surrogate(const CmpSurrogate& s,
                              const std::string& path_prefix);
[[nodiscard]] Expected<std::shared_ptr<CmpSurrogate>> load_surrogate(
    const std::string& path_prefix);

/// The CMP neural network of Fig. 4, bound to one extraction and one score
/// coefficient set: extraction layer -> pre-trained UNet -> objective layers
/// (Eqs. 10a-c) -> merging layer (Eq. 5b).  evaluate() runs the forward pass
/// for S_plan and, when requested, one backward propagation for
/// grad(S_plan) (Eq. 11) — the paper's 8134x-speedup path.  Both run
/// through the compiled SurrogateInference session; the values and
/// gradients are bitwise identical to the autograd formulation of the same
/// network, which stays the test oracle (tests/tape_oracle.hpp).  Const
/// members are thread-safe: no evaluation writes shared state.
class CmpNetwork {
 public:
  CmpNetwork(std::shared_ptr<const CmpSurrogate> surrogate,
             const WindowExtraction& ext, ScoreCoefficients coeffs);
  ~CmpNetwork();  // out-of-line: SurrogateInference is incomplete here

  struct Eval {
    double s_plan = 0.0;
    double sigma = 0.0;        ///< relaxed Eq. 1 value (A^2)
    double sigma_star = 0.0;   ///< relaxed Eq. 2 value (A)
    double outliers = 0.0;     ///< relaxed Eq. 3 value (A)
    std::vector<GridD> heights;  ///< predicted post-CMP heights (A)
    std::vector<GridD> grad;     ///< d S_plan / d x, filled when requested
  };

  /// S_plan and its relaxed terms at fill `x`; with `with_grad`, also
  /// d S_plan / d x from one session VJP per layer.  The value fields are
  /// bitwise identical with and without the gradient.
  Eval evaluate(const std::vector<GridD>& x, bool with_grad) const;

  /// Value-only evaluation of B candidate fill solutions in one call: the
  /// candidate density grids are assembled into one [B, C, H, W] stack per
  /// layer and the UNet runs a single batched session forward, then the
  /// objective terms (Eqs. 10a-c) fan back out per candidate.  Each
  /// returned Eval (gradients never filled) is byte-identical to
  /// evaluate(xs[b], false) at any thread count, so batched and serial
  /// evaluations mix freely inside one optimization.
  std::vector<Eval> evaluate_batch(const std::vector<std::vector<GridD>>& xs) const;

  /// Predicted heights only (a cheap forward; used by quality callbacks).
  std::vector<GridD> predict_heights(const std::vector<GridD>& x) const;

  /// Log-space power correction applied to a relaxed metric before scoring:
  /// corrected = exp(a) * raw^b.  A surrogate's predicted height field
  /// carries its own error variance, which biases the *absolute* sigma /
  /// sigma* / ol values (their gradients stay informative); anchoring this
  /// map on two true simulations (see calibrate_network) matches both
  /// anchors exactly and stays positive and monotone for any b > 0.
  /// Defaults are the identity (a = 0, b = 1).
  struct MetricCalibration {
    double a = 0.0;
    double b = 1.0;
  };
  void set_calibration(const MetricCalibration& sigma,
                       const MetricCalibration& sigma_star,
                       const MetricCalibration& outliers);
  const MetricCalibration& sigma_calibration() const { return cal_sigma_; }
  const MetricCalibration& sigma_star_calibration() const {
    return cal_sigma_star_;
  }
  const MetricCalibration& outlier_calibration() const { return cal_ol_; }

  const ScoreCoefficients& coefficients() const { return coeffs_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t num_layers() const { return static_.size(); }

 private:
  /// Forward values of one layer's objective terms that the gradient
  /// reuses: mean height, the three Eq. 10a-c sums, sqrt(var + 1e-6), the
  /// outlier threshold, and the per-column means of the line deviation.
  struct LayerTerms {
    float mean_h = 0.0f;
    float var = 0.0f;
    float star = 0.0f;
    float outliers = 0.0f;
    float sig = 0.0f;
    float threshold = 0.0f;
    std::vector<float> col_mean;
  };
  /// Objective terms (Eqs. 10a-c), calibration and merge (Eq. 5b) from one
  /// candidate's predicted height planes, in flat-plane arithmetic whose
  /// every float operation matches the autograd formulation; thread-safe
  /// (per-thread scratch) so evaluate_batch can score candidates
  /// concurrently.  `terms`, when non-null, receives the per-layer values
  /// the gradient needs.
  Eval score_height_planes(const std::vector<std::vector<float>>& heights,
                           std::vector<LayerTerms>* terms = nullptr) const;
  /// Fills out.grad: the merge, calibration and Eq. 10a-c adjoints, then
  /// SurrogateInference::layer_vjp top layer first, interleaved exactly as
  /// the autograd tape orders the contributions to each height adjoint.
  void add_gradient(const std::vector<std::vector<float>>& heights,
                    const std::vector<LayerTerms>& terms,
                    const SurrogateRecord& record, Eval& out) const;

  std::shared_ptr<const CmpSurrogate> surrogate_;
  std::vector<StaticLayerFeatures> static_;
  ScoreCoefficients coeffs_;
  std::size_t rows_ = 0, cols_ = 0;
  MetricCalibration cal_sigma_, cal_sigma_star_, cal_ol_;
  /// Compiled surrogate, shared through the process-wide session cache
  /// (surrogate/infer.hpp), so tile solves over the same surrogate and
  /// plane size reuse one compiled session.
  std::shared_ptr<const SurrogateInference> infer_;
};

}  // namespace neurfill
