#include "surrogate/cmp_network.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "nn/backend/backend.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/infer.hpp"

namespace neurfill {

CmpSurrogate::CmpSurrogate(const SurrogateConfig& config, std::uint64_t seed)
    : config_(config) {
  if (config.unet.in_channels != FeatureConstants::kInChannels)
    throw std::invalid_argument(
        "CmpSurrogate: UNet in_channels must match the feature planes");
  Rng rng(seed);
  params_ = std::make_shared<nn::ParameterSet>(
      nn::make_unet_parameters(config.unet, rng));
}

[[nodiscard]] Expected<void> save_surrogate(const CmpSurrogate& s,
                              const std::string& path_prefix) {
  const std::string meta_path = path_prefix + ".meta";
  std::ofstream meta(meta_path);
  if (!meta)
    return Error(ErrorCode::kIo, "surrogate.io",
                 "'" + meta_path + "': cannot open for writing");
  // Every number at max_digits10, so the reloaded surrogate is bitwise
  // the one that was saved (the stream default of 6 digits rounds a
  // trained height_scale).
  meta.precision(std::numeric_limits<double>::max_digits10);
  const SurrogateConfig& c = s.config();
  meta << "unet " << c.unet.in_channels << ' ' << c.unet.out_channels << ' '
       << c.unet.base_channels << ' ' << c.unet.depth << ' '
       << (c.unet.use_group_norm ? 1 : 0) << '\n';
  meta << "features " << c.features.window_um << ' '
       << c.features.dummy_edge_um << ' ' << c.features.perimeter_norm << ' '
       << c.features.width_ref_um << ' ' << c.features.height_scale << ' '
       << c.features.height_offset << '\n';
  meta << "chain " << c.topo_transfer << ' ' << c.outlier_eta << '\n';
  meta.flush();
  if (!meta)
    return Error(ErrorCode::kIo, "surrogate.io",
                 "'" + meta_path + "': write failed");
  return nn::save_parameters(s.parameters(), path_prefix + ".weights");
}

[[nodiscard]] Expected<std::shared_ptr<CmpSurrogate>> load_surrogate(
    const std::string& path_prefix) {
  const std::string meta_path = path_prefix + ".meta";
  std::ifstream meta(meta_path);
  if (!meta)
    return Error(ErrorCode::kNotFound, "surrogate.io",
                 "'" + meta_path + "': no such file");
  SurrogateConfig c;
  std::string kw;
  int use_norm = 0;
  if (!(meta >> kw >> c.unet.in_channels >> c.unet.out_channels >>
        c.unet.base_channels >> c.unet.depth >> use_norm) ||
      kw != "unet")
    return Error(ErrorCode::kCorrupt, "surrogate.io",
                 "'" + meta_path + "': bad meta (unet line)");
  c.unet.use_group_norm = use_norm != 0;
  if (!(meta >> kw >> c.features.window_um >> c.features.dummy_edge_um >>
        c.features.perimeter_norm >> c.features.width_ref_um >>
        c.features.height_scale >> c.features.height_offset) ||
      kw != "features")
    return Error(ErrorCode::kCorrupt, "surrogate.io",
                 "'" + meta_path + "': bad meta (features line)");
  if (!(meta >> kw >> c.topo_transfer >> c.outlier_eta) || kw != "chain")
    return Error(ErrorCode::kCorrupt, "surrogate.io",
                 "'" + meta_path + "': bad meta (chain line)");
  if (c.unet.in_channels != FeatureConstants::kInChannels)
    return Error(ErrorCode::kCorrupt, "surrogate.io",
                 "'" + meta_path + "': unet in_channels " +
                     std::to_string(c.unet.in_channels) + " != expected " +
                     std::to_string(FeatureConstants::kInChannels));
  auto s = std::make_shared<CmpSurrogate>(c, /*seed=*/0);
  Expected<void> weights =
      nn::load_parameters(s->parameters(), path_prefix + ".weights");
  if (!weights.ok()) return weights.error();
  return s;
}

CmpNetwork::CmpNetwork(std::shared_ptr<const CmpSurrogate> surrogate,
                       const WindowExtraction& ext, ScoreCoefficients coeffs)
    : surrogate_(std::move(surrogate)), coeffs_(std::move(coeffs)),
      rows_(ext.rows), cols_(ext.cols) {
  if (!surrogate_) throw std::invalid_argument("CmpNetwork: null surrogate");
  const int divisor = 1 << surrogate_->config().unet.depth;
  static_ = build_static_features(ext, surrogate_->config().features, divisor);
  // Graph-compile the UNet once for this extraction's padded plane.
  // Acquired through the process-wide session cache, so repeated
  // constructions over the same frozen surrogate and plane size (the
  // fullchip tile loop) share one compiled session and its pre-packed
  // weight panels.
  infer_ = acquire_surrogate_inference(*surrogate_, static_[0].padded_rows,
                                       static_[0].padded_cols);
}

CmpNetwork::~CmpNetwork() = default;

void CmpNetwork::set_calibration(const MetricCalibration& sigma,
                                 const MetricCalibration& sigma_star,
                                 const MetricCalibration& outliers) {
  cal_sigma_ = sigma;
  cal_sigma_star_ = sigma_star;
  cal_ol_ = outliers;
}

namespace {

/// Pads a fill grid into a flat padded plane (zeros outside the valid
/// region).
void fill_to_plane(const GridD& x, std::size_t rows, std::size_t cols, int pc,
                   std::vector<float>& plane) {
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      plane[i * static_cast<std::size_t>(pc) + j] =
          static_cast<float>(x(i, j));
}

/// Crops a padded flat plane back to rows x cols.
GridD crop_plane(const float* plane, std::size_t rows, std::size_t cols,
                 int pc) {
  GridD g(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      g(i, j) = plane[i * static_cast<std::size_t>(pc) + j];
  return g;
}

/// Validity mask over the padded plane: metrics are computed over the
/// un-padded rows x cols region.
void fill_mask(float* mask, std::size_t n, std::size_t rows, std::size_t cols,
               int pc) {
  std::memset(mask, 0, n * sizeof(float));
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      mask[i * static_cast<std::size_t>(pc) + j] = 1.0f;
}

/// Eq. 6 score term, relu(t * (-1/beta) + 1) * alpha, as single-rounding
/// steps.
float score_term(float t, double alpha, double beta) {
  const float scale = -1.0f / static_cast<float>(beta);
  const float scaled = t * scale;
  const float shifted = scaled + 1.0f;
  const float clipped = shifted > 0.0f ? shifted : 0.0f;
  return clipped * static_cast<float>(alpha);
}

/// d score_term / d t for a unit seed on the term.
float score_term_adjoint(float t, double alpha, double beta) {
  const float scale = -1.0f / static_cast<float>(beta);
  const float scaled = t * scale;
  const float shifted = scaled + 1.0f;
  const float d_clipped = 0.0f + 1.0f * static_cast<float>(alpha);
  const float d_shifted = 0.0f + d_clipped * (shifted > 0.0f ? 1.0f : 0.0f);
  const float d_scaled = 0.0f + d_shifted;
  return 0.0f + d_scaled * scale;
}

/// Simulator-anchored log-space correction exp(a) * (raw + eps)^b
/// (identity unless calibrated).
float apply_cal(float t, const CmpNetwork::MetricCalibration& c) {
  if (c.a == 0.0 && c.b == 1.0) return t;
  const float shifted = t + 1e-6f;
  const float log_t = std::log(shifted);
  const float scaled = log_t * static_cast<float>(c.b);
  const float biased = scaled + static_cast<float>(c.a);
  return std::exp(biased);
}

/// Adjoint of apply_cal: d(raw) from d(calibrated) at raw value `t`.
float cal_adjoint(float t, float d_out, const CmpNetwork::MetricCalibration& c) {
  if (c.a == 0.0 && c.b == 1.0) return d_out;
  const float shifted = t + 1e-6f;
  const float log_t = std::log(shifted);
  const float scaled = log_t * static_cast<float>(c.b);
  const float biased = scaled + static_cast<float>(c.a);
  const float d_biased = 0.0f + d_out * std::exp(biased);
  const float d_scaled = 0.0f + d_biased;
  const float d_log = 0.0f + d_scaled * static_cast<float>(c.b);
  const float d_shifted = 0.0f + d_log * (1.0f / shifted);
  return 0.0f + d_shifted;
}

/// Derivative of softplus(x; eta) = log(1 + exp(eta x)) / eta, in the
/// overflow-safe split form the autograd op uses.
float softplus_slope(float x, float eta) {
  const float z = eta * x;
  return z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                   : std::exp(z) / (1.0f + std::exp(z));
}

float sign_of(float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); }

}  // namespace

CmpNetwork::Eval CmpNetwork::evaluate(const std::vector<GridD>& x,
                                      bool with_grad) const {
  if (x.size() != static_.size())
    throw std::invalid_argument("CmpNetwork::evaluate: layer count mismatch");
  const int pc = static_[0].padded_cols;
  const std::size_t n = static_cast<std::size_t>(static_[0].padded_rows) * pc;

  std::vector<std::vector<float>> fills(x.size());
  std::vector<const float*> fill_ptrs;
  fill_ptrs.reserve(x.size());
  for (std::size_t l = 0; l < x.size(); ++l) {
    fills[l].assign(n, 0.0f);
    fill_to_plane(x[l], rows_, cols_, pc, fills[l]);
    fill_ptrs.push_back(fills[l].data());
  }
  std::vector<std::vector<float>> heights;
  if (!with_grad) {
    infer_->predict_heights(static_, fill_ptrs, heights);
    return score_height_planes(heights);
  }
  // Per-thread forward record and term values: concurrent gradient
  // evaluations on one network never share state, and repeated ones reuse
  // the buffers.
  static thread_local SurrogateRecord tls_record;
  static thread_local std::vector<LayerTerms> tls_terms;
  infer_->predict_heights(static_, fill_ptrs, heights, &tls_record);
  Eval out = score_height_planes(heights, &tls_terms);
  add_gradient(heights, tls_terms, tls_record, out);
  return out;
}

CmpNetwork::Eval CmpNetwork::score_height_planes(
    const std::vector<std::vector<float>>& heights,
    std::vector<LayerTerms>* terms) const {
  const int pr = static_[0].padded_rows, pc = static_[0].padded_cols;
  const std::size_t n = static_cast<std::size_t>(pr) * pc;
  const std::int64_t n64 = static_cast<std::int64_t>(n);
  nn::Backend& be = nn::backend();

  // Per-thread scratch: evaluate_batch scores candidates concurrently, and
  // repeated calls must not allocate in steady state.  The mask is rebuilt
  // each call (cheap, and rows_/cols_ differ between network instances).
  // Every chained multiply-add is a backend kernel call or split into
  // single-operation statements, so no re-association or fused
  // multiply-add changes the rounding relative to the op-by-op autograd
  // formulation (tests/test_inference.cpp pins the bitwise equality).
  static thread_local AlignedBuffer<float> tls_score;
  float* scratch = tls_score.ensure(3 * n + static_cast<std::size_t>(pc));
  float* mask = scratch;
  float* hm = scratch + n;
  float* work = scratch + 2 * n;
  float* col = scratch + 3 * n;
  fill_mask(mask, n, rows_, cols_, pc);
  const float count = static_cast<float>(rows_ * cols_);
  const float inv_count = 1.0f / count;
  const float inv_rows = 1.0f / static_cast<float>(rows_);
  const float eta = static_cast<float>(surrogate_->config().outlier_eta);
  if (terms != nullptr) terms->resize(heights.size());

  float sigma_total = 0.0f, sigma_star_total = 0.0f, ol_total = 0.0f;
  for (std::size_t l = 0; l < heights.size(); ++l) {
    const float* h = heights[l].data();
    be.binary_map(nn::BinaryKind::kMul, h, mask, hm, n64);
    const float mean_h =
        static_cast<float>(be.reduce_sum(hm, n64)) * inv_count;
    // var = sum(((h - mean) * mask)^2) / count
    for (std::size_t i = 0; i < n; ++i) work[i] = h[i] - mean_h;
    be.binary_map(nn::BinaryKind::kMul, work, mask, work, n64);
    be.unary_map(nn::UnaryKind::kSquare, 0.0f, work, work, n64);
    const float var =
        static_cast<float>(be.reduce_sum(work, n64)) * inv_count;
    sigma_total = sigma_total + var;
    // Line deviation: per-column mean over the valid rows (sum_axis is a
    // serial double accumulation per column, in row order).
    for (int j = 0; j < pc; ++j) {
      double acc = 0.0;
      for (int i = 0; i < pr; ++i)
        acc += static_cast<double>(
            hm[static_cast<std::size_t>(i) * pc + static_cast<std::size_t>(j)]);
      col[static_cast<std::size_t>(j)] = static_cast<float>(acc) * inv_rows;
    }
    for (int i = 0; i < pr; ++i)
      for (int j = 0; j < pc; ++j) {
        const std::size_t k =
            static_cast<std::size_t>(i) * pc + static_cast<std::size_t>(j);
        work[k] = h[k] - col[static_cast<std::size_t>(j)];
      }
    be.binary_map(nn::BinaryKind::kMul, work, mask, work, n64);
    be.unary_map(nn::UnaryKind::kAbs, 0.0f, work, work, n64);
    const float star = static_cast<float>(be.reduce_sum(work, n64));
    sigma_star_total = sigma_star_total + star;
    // Outliers: smooth max(0, H - (mean + 3*sigma_l)).
    const float var_eps = var + 1e-6f;
    const float sig_l = std::sqrt(var_eps);
    const float three_sig = sig_l * 3.0f;
    const float threshold = mean_h + three_sig;
    for (std::size_t i = 0; i < n; ++i) work[i] = h[i] - threshold;
    be.unary_map(nn::UnaryKind::kSoftplus, eta, work, work, n64);
    be.binary_map(nn::BinaryKind::kMul, work, mask, work, n64);
    const float outliers = static_cast<float>(be.reduce_sum(work, n64));
    ol_total = ol_total + outliers;
    if (terms != nullptr) {
      LayerTerms& t = (*terms)[l];
      t.mean_h = mean_h;
      t.var = var;
      t.star = star;
      t.outliers = outliers;
      t.sig = sig_l;
      t.threshold = threshold;
      t.col_mean.assign(col, col + pc);
    }
  }

  Eval out;
  out.sigma = apply_cal(sigma_total, cal_sigma_);
  out.sigma_star = apply_cal(sigma_star_total, cal_sigma_star_);
  out.outliers = apply_cal(ol_total, cal_ol_);
  // Merging layer (Eq. 5b) with the Eq. 6 score function.
  const float term_sigma = score_term(static_cast<float>(out.sigma),
                                      coeffs_.alpha_sigma, coeffs_.beta_sigma);
  const float term_star =
      score_term(static_cast<float>(out.sigma_star), coeffs_.alpha_sigma_star,
                 coeffs_.beta_sigma_star);
  const float term_ol = score_term(static_cast<float>(out.outliers),
                                   coeffs_.alpha_ol, coeffs_.beta_ol);
  const float tail = term_star + term_ol;  // add(term_star, term_ol)
  out.s_plan = term_sigma + tail;
  out.heights.reserve(heights.size());
  for (const std::vector<float>& height : heights)
    out.heights.push_back(crop_plane(height.data(), rows_, cols_, pc));
  return out;
}

void CmpNetwork::add_gradient(const std::vector<std::vector<float>>& heights,
                              const std::vector<LayerTerms>& terms,
                              const SurrogateRecord& record, Eval& out) const {
  // The adjoint of score_height_planes, then the surrogate's layer adjoints,
  // in the autograd tape's order.  The tape seeds d S_plan = 1 and walks its
  // nodes in reverse topological order; for this graph that is: the merge
  // and calibration; every layer's outlier terms (Eq. 10c); every layer's
  // line-deviation terms (Eq. 10b); then, top layer first, the layer's
  // variance terms (Eq. 10a) followed by its network pass — whose chaining
  // adjoint feeds the height adjoint of the layer below before that layer's
  // variance terms are added.  Each node's grad starts at zero and its
  // consumers add in that order (`0.0f + v` is the first addition; scalar
  // adjoints of broadcast operands accumulate serially in flat order), so
  // every float matches the tape's.
  const int pr = static_[0].padded_rows, pc = static_[0].padded_cols;
  const std::size_t n = static_cast<std::size_t>(pr) * pc;
  const std::size_t L = heights.size();
  static thread_local AlignedBuffer<float> tls_adjoint;
  float* scratch = tls_adjoint.ensure((2 * L + 2) * n + 2 * L + pc);
  float* mask = scratch;
  float* d_fill = mask + n;
  float* d_heights = d_fill + n;    // [L][n]
  float* d_hm = d_heights + L * n;  // [L][n], the masked-height adjoint
  float* d_mean = d_hm + L * n;     // [L]
  float* d_var = d_mean + L;        // [L]
  float* d_col = d_var + L;         // [pc]
  fill_mask(mask, n, rows_, cols_, pc);
  const float count = static_cast<float>(rows_ * cols_);
  const float inv_count = 1.0f / count;
  const float inv_rows = 1.0f / static_cast<float>(rows_);
  const float eta = static_cast<float>(surrogate_->config().outlier_eta);

  // Merge and calibration: adjoints of the raw per-chip totals (summed in
  // layer order, as score_height_planes did), which the layer sums pass on
  // unchanged to every layer's term.
  float sigma_raw = 0.0f, star_raw = 0.0f, ol_raw = 0.0f;
  for (const LayerTerms& t : terms) {
    sigma_raw = sigma_raw + t.var;
    star_raw = star_raw + t.star;
    ol_raw = ol_raw + t.outliers;
  }
  const float d_sigma = cal_adjoint(
      sigma_raw,
      score_term_adjoint(static_cast<float>(out.sigma), coeffs_.alpha_sigma,
                         coeffs_.beta_sigma),
      cal_sigma_);
  const float d_star = cal_adjoint(
      star_raw,
      score_term_adjoint(static_cast<float>(out.sigma_star),
                         coeffs_.alpha_sigma_star, coeffs_.beta_sigma_star),
      cal_sigma_star_);
  const float d_ol = cal_adjoint(
      ol_raw,
      score_term_adjoint(static_cast<float>(out.outliers), coeffs_.alpha_ol,
                         coeffs_.beta_ol),
      cal_ol_);

  // Eq. 10c, every layer: sum(softplus(h - threshold) * mask) with
  // threshold = mean_h + 3 * sqrt(var + 1e-6).  Starts each height adjoint
  // and the mean/variance adjoints.
  for (std::size_t l = 0; l < L; ++l) {
    const float* h = heights[l].data();
    const LayerTerms& t = terms[l];
    float* d_h = d_heights + l * n;
    const float d_sum = 0.0f + d_ol;
    float d_threshold = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      const float d_masked = 0.0f + d_sum;
      const float d_soft = 0.0f + d_masked * mask[i];
      const float d_excess =
          0.0f + d_soft * softplus_slope(h[i] - t.threshold, eta);
      d_h[i] = 0.0f + d_excess;
      d_threshold += d_excess * -1.0f;
    }
    d_mean[l] = 0.0f + d_threshold;
    const float d_three_sig = 0.0f + d_threshold;
    const float d_sig = 0.0f + d_three_sig * 3.0f;
    const float d_var_eps = 0.0f + d_sig * (0.5f / t.sig);
    d_var[l] = 0.0f + d_var_eps;
  }
  // Eq. 10b, every layer: sum(|(h - col_mean) * mask|) with col_mean the
  // per-column mean of h * mask over the valid rows.  Starts the
  // masked-height adjoint.
  for (std::size_t l = 0; l < L; ++l) {
    const float* h = heights[l].data();
    const LayerTerms& t = terms[l];
    float* d_h = d_heights + l * n;
    const float d_sum = 0.0f + d_star;
    std::memset(d_col, 0, static_cast<std::size_t>(pc) * sizeof(float));
    for (int i = 0; i < pr; ++i)
      for (int j = 0; j < pc; ++j) {
        const std::size_t k =
            static_cast<std::size_t>(i) * pc + static_cast<std::size_t>(j);
        const float d_abs = 0.0f + d_sum;
        const float dev = (h[k] - t.col_mean[static_cast<std::size_t>(j)]) *
                          mask[k];
        const float d_dev = 0.0f + d_abs * sign_of(dev);
        const float d_centered = 0.0f + d_dev * mask[k];
        d_h[k] += d_centered;
        d_col[j] += d_centered * -1.0f;
      }
    for (int j = 0; j < pc; ++j) d_col[j] = 0.0f + d_col[j] * inv_rows;
    float* d_masked = d_hm + l * n;
    for (int i = 0; i < pr; ++i)
      for (int j = 0; j < pc; ++j)
        d_masked[static_cast<std::size_t>(i) * pc + static_cast<std::size_t>(j)] =
            0.0f + d_col[j];
  }
  // Eq. 10a and the network pass, top layer first: sum(((h - mean_h) *
  // mask)^2) / count with mean_h = sum(h * mask) / count.  The layer above
  // has already added its chaining adjoint into d_h.
  out.grad.assign(L, GridD());
  for (std::size_t l = L; l-- > 0;) {
    const float* h = heights[l].data();
    const LayerTerms& t = terms[l];
    float* d_h = d_heights + l * n;
    float* d_masked = d_hm + l * n;
    const float d_sq_sum = 0.0f + (d_var[l] + d_sigma) * inv_count;
    float d_mean_h = d_mean[l];
    for (std::size_t k = 0; k < n; ++k) {
      const float d_sq = 0.0f + d_sq_sum;
      const float dev = (h[k] - t.mean_h) * mask[k];
      const float d_dev = 0.0f + d_sq * (2.0f * dev);
      const float d_centered = 0.0f + d_dev * mask[k];
      d_h[k] += d_centered;
      d_mean_h += d_centered * -1.0f;
    }
    const float d_masked_sum = 0.0f + d_mean_h * inv_count;
    for (std::size_t k = 0; k < n; ++k) {
      d_masked[k] += d_masked_sum;
      d_h[k] += d_masked[k] * mask[k];
    }
    infer_->layer_vjp(l, record, d_h, d_fill, l > 0 ? d_h - n : nullptr);
    out.grad[l] = crop_plane(d_fill, rows_, cols_, pc);
  }
}

std::vector<CmpNetwork::Eval> CmpNetwork::evaluate_batch(
    const std::vector<std::vector<GridD>>& xs) const {
  std::vector<Eval> out(xs.size());
  if (xs.empty()) return out;
  for (const std::vector<GridD>& x : xs)
    if (x.size() != static_.size())
      throw std::invalid_argument(
          "CmpNetwork::evaluate_batch: layer count mismatch");

  const int pc = static_[0].padded_cols;
  const std::size_t n =
      static_cast<std::size_t>(static_[0].padded_rows) * pc;
  const std::size_t B = xs.size();
  const std::size_t L = static_.size();

  std::vector<std::vector<float>> planes(B * L);
  std::vector<std::vector<const float*>> fill_ptrs(B);
  for (std::size_t b = 0; b < B; ++b) {
    fill_ptrs[b].reserve(L);
    for (std::size_t l = 0; l < L; ++l) {
      std::vector<float>& plane = planes[b * L + l];
      plane.assign(n, 0.0f);
      fill_to_plane(xs[b][l], rows_, cols_, pc, plane);
      fill_ptrs[b].push_back(plane.data());
    }
  }

  // One batched session run per layer for all candidates; each candidate's
  // height planes are byte-identical to a solo predict_heights.
  std::vector<std::vector<std::vector<float>>> heights;
  infer_->predict_heights_batch(static_, fill_ptrs, heights);

  // Candidates score independently (per-thread scratch); roughly 20 ns per
  // plane element across the metric passes.
  const std::size_t grain = runtime::grain_for_cost(
      20.0 * static_cast<double>(L) * static_cast<double>(n), B);
  runtime::parallel_for(grain, B, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b)
      out[b] = score_height_planes(heights[b]);
  });
  return out;
}

std::vector<GridD> CmpNetwork::predict_heights(
    const std::vector<GridD>& x) const {
  const int pc = static_[0].padded_cols;
  const std::size_t n = static_cast<std::size_t>(static_[0].padded_rows) * pc;
  std::vector<std::vector<float>> fills(x.size());
  std::vector<const float*> fill_ptrs;
  fill_ptrs.reserve(x.size());
  for (std::size_t l = 0; l < x.size(); ++l) {
    fills[l].assign(n, 0.0f);
    fill_to_plane(x[l], rows_, cols_, pc, fills[l]);
    fill_ptrs.push_back(fills[l].data());
  }
  std::vector<std::vector<float>> heights;
  infer_->predict_heights(static_, fill_ptrs, heights);
  std::vector<GridD> out;
  out.reserve(heights.size());
  for (const std::vector<float>& h : heights)
    out.push_back(crop_plane(h.data(), rows_, cols_, pc));
  return out;
}

}  // namespace neurfill
