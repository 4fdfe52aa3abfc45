#include "surrogate/infer.hpp"

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "nn/backend/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace neurfill {

namespace {

/// Extraction-layer constants derived once per call; float-cast exactly as
/// the autograd reference (tests/tape_oracle.hpp) casts them.
struct ExtractConsts {
  float inv_n;
  float dperim;
  float wdum;
  float height_scale;
  float height_offset;
  float chain_k;
};

ExtractConsts make_consts(const FeatureConstants& fc, double topo_transfer,
                          std::size_t n) {
  ExtractConsts c;
  // mean() multiplies the blocked-double sum by a float reciprocal; keep
  // the identical two-step rounding.
  c.inv_n = 1.0f / static_cast<float>(static_cast<std::int64_t>(n));
  c.dperim = static_cast<float>(4.0 * fc.window_um * fc.window_um /
                                fc.dummy_edge_um / fc.perimeter_norm);
  c.wdum = static_cast<float>(fc.dummy_edge_um /
                              (fc.dummy_edge_um + fc.width_ref_um));
  c.height_scale = static_cast<float>(fc.height_scale);
  c.height_offset = static_cast<float>(fc.height_offset);
  c.chain_k = static_cast<float>(topo_transfer / fc.height_scale);
  return c;
}

/// Extraction layer for ONE candidate layer: fills the 7 feature planes of
/// `input` from the static features, the candidate fill, and the chained
/// incoming plane.  Chained elementwise steps go
/// through the backend maps with materialized intermediates — the same
/// kernels, in the same order, as the autograd ops, so each plane is
/// rounded identically (no re-association or fused-multiply-add
/// differences between the paths).  `tmp` is one n-float scratch plane.
/// When `width_terms` is non-null it receives the width channel's
/// numerator and denominator planes (2n floats) for the adjoint.
void assemble_input_planes(nn::Backend& be, const StaticLayerFeatures& layer,
                           const float* fill, const float* incoming,
                           float* input, float* tmp, std::size_t n,
                           const ExtractConsts& c,
                           float* width_terms = nullptr) {
  const std::int64_t n64 = static_cast<std::int64_t>(n);
  float* density = input;
  float* perim = input + n;
  float* width = input + 2 * n;
  float* chan_incoming = input + 3 * n;
  float* chan_slack = input + 4 * n;
  float* global_plane = input + 5 * n;
  float* pressure = input + 6 * n;
  // density = rho + fill
  be.binary_map(nn::BinaryKind::kAdd, layer.wire_density.data(), fill, density,
                n64);
  // perim = perim0 + fill * dperim
  be.unary_map(nn::UnaryKind::kMulScalar, c.dperim, fill, perim, n64);
  be.binary_map(nn::BinaryKind::kAdd, layer.perimeter.data(), perim, perim,
                n64);
  // width = (wnum0 + fill * wdum) / (density + 1e-3)
  be.unary_map(nn::UnaryKind::kMulScalar, c.wdum, fill, width, n64);
  be.binary_map(nn::BinaryKind::kAdd, layer.width_blend_num.data(), width,
                width, n64);
  be.unary_map(nn::UnaryKind::kAddScalar, 1e-3f, density, tmp, n64);
  if (width_terms != nullptr) {
    std::memcpy(width_terms, width, n * sizeof(float));
    std::memcpy(width_terms + n, tmp, n * sizeof(float));
  }
  be.binary_map(nn::BinaryKind::kDiv, width, tmp, width, n64);
  std::memcpy(chan_incoming, incoming, n * sizeof(float));
  std::memcpy(chan_slack, layer.slack.data(), n * sizeof(float));
  // Global mean density, broadcast (ones * mean is exactly the mean).
  const float global_mean =
      static_cast<float>(be.reduce_sum(density, n64)) * c.inv_n;
  for (std::size_t i = 0; i < n; ++i) global_plane[i] = global_mean;
  for (std::size_t i = 0; i < n; ++i) pressure[i] = 1.0f;
}

/// The next layer's incoming plane from a layer's heights (Angstrom), the
/// simulator's chaining rule in normalized units:
/// incoming_{l+1} = (h_ang - mean(h_ang)) * topo_transfer/scale.
void chain_incoming(nn::Backend& be, const float* h_ang, float* incoming,
                    std::size_t n, const ExtractConsts& c) {
  const std::int64_t n64 = static_cast<std::int64_t>(n);
  const float mean_ang = static_cast<float>(be.reduce_sum(h_ang, n64)) * c.inv_n;
  for (std::size_t i = 0; i < n; ++i) incoming[i] = h_ang[i] - mean_ang;
  be.unary_map(nn::UnaryKind::kMulScalar, c.chain_k, incoming, incoming, n64);
}

/// Hard-center and denormalize one candidate's network output to Angstrom,
/// then — when `incoming` is non-null — chain the next layer's incoming
/// plane from it.  Hard-centering makes the surrogate regress topography:
/// every planarity objective (Eqs. 1-3) and the chaining are invariant to
/// a layer's mean height.
void postprocess_heights(nn::Backend& be, const float* h_norm, float* h_ang,
                         float* incoming, std::size_t n,
                         const ExtractConsts& c) {
  const std::int64_t n64 = static_cast<std::int64_t>(n);
  const float mean_h = static_cast<float>(be.reduce_sum(h_norm, n64)) * c.inv_n;
  for (std::size_t i = 0; i < n; ++i) h_ang[i] = h_norm[i] - mean_h;
  be.unary_map(nn::UnaryKind::kMulScalar, c.height_scale, h_ang, h_ang, n64);
  be.unary_map(nn::UnaryKind::kAddScalar, c.height_offset, h_ang, h_ang, n64);
  if (incoming != nullptr) chain_incoming(be, h_ang, incoming, n, c);
}

}  // namespace

nn::InferenceOptions SurrogateInference::fill_options(int max_batch) {
  return nn::InferenceOptions{/*reuse_buffers=*/true, /*fuse=*/true,
                              /*prepack_weights=*/true,
                              /*max_batch=*/max_batch};
}

SurrogateInference::SurrogateInference(const CmpSurrogate& surrogate,
                                       int padded_rows, int padded_cols,
                                       nn::InferenceOptions options)
    : features_(surrogate.config().features),
      topo_transfer_(surrogate.config().topo_transfer),
      session_(surrogate.config().unet, surrogate.shared_parameters(),
               padded_rows, padded_cols, options),
      rows_(padded_rows),
      cols_(padded_cols) {
  if (surrogate.config().unet.in_channels != FeatureConstants::kInChannels)
    throw std::invalid_argument(
        "SurrogateInference: UNet in_channels must match the feature planes");
}

void SurrogateInference::predict_heights(
    const std::vector<StaticLayerFeatures>& layers,
    const std::vector<const float*>& fills,
    std::vector<std::vector<float>>& heights, SurrogateRecord* record,
    const std::vector<const float*>* labels) const {
  if (layers.empty() || layers.size() != fills.size())
    throw std::invalid_argument("predict_heights: layer/fill mismatch");
  if (labels != nullptr &&
      (record == nullptr || labels->size() != layers.size()))
    throw std::invalid_argument(
        "predict_heights: teacher forcing needs a record and a label per layer");
  const std::size_t n =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  const ExtractConsts c = make_consts(features_, topo_transfer_, n);

  // Grow-only per-thread scratch: the 7-channel input plane, the network
  // output, the chained incoming plane, and one temporary.
  static thread_local AlignedBuffer<float> tls_scratch;
  float* scratch = tls_scratch.ensure((FeatureConstants::kInChannels + 3) * n);
  float* input = scratch;
  float* h_norm = scratch + FeatureConstants::kInChannels * n;
  float* incoming = h_norm + n;
  float* tmp = incoming + n;
  std::memset(incoming, 0, n * sizeof(float));  // bottom layer sees a plane

  heights.resize(layers.size());  // re-used capacity on repeated calls
  float* width_terms = nullptr;
  if (record != nullptr) {
    if (record->layers.size() < layers.size())
      record->layers.resize(layers.size());
    width_terms = record->width_terms.ensure(2 * n * layers.size());
  }
  nn::Backend& be = nn::backend();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const StaticLayerFeatures& layer = layers[l];
    NF_CHECK(layer.padded_rows == rows_ && layer.padded_cols == cols_,
             "SurrogateInference: layer %zu padded to %dx%d, session compiled "
             "for %dx%d",
             l, layer.padded_rows, layer.padded_cols, rows_, cols_);
    assemble_input_planes(be, layer, fills[l], incoming, input, tmp, n, c,
                          record ? width_terms + 2 * n * l : nullptr);

    if (record != nullptr)
      session_.run_saving(input, h_norm, record->layers[l],
                          /*training=*/labels != nullptr);
    else
      session_.run(input, h_norm, /*batch=*/1);

    std::vector<float>& h_ang = heights[l];
    h_ang.resize(n);
    const bool chain = l + 1 < layers.size();
    postprocess_heights(be, h_norm, h_ang.data(),
                        chain && labels == nullptr ? incoming : nullptr, n, c);
    if (chain && labels != nullptr)
      chain_incoming(be, (*labels)[l], incoming, n, c);
  }
}

void SurrogateInference::layer_vjp(std::size_t l,
                                   const SurrogateRecord& record,
                                   const float* d_height, float* d_fill,
                                   float* d_prev_height,
                                   float* d_params) const {
  NF_CHECK(l < record.layers.size(), "layer_vjp: layer %zu not recorded", l);
  NF_CHECK(d_fill == nullptr || l == 0 || d_prev_height != nullptr,
           "layer_vjp: layer %zu needs the layer below's height adjoint", l);
  const std::size_t n =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  const ExtractConsts c = make_consts(features_, topo_transfer_, n);
  static thread_local AlignedBuffer<float> tls_adjoint;
  float* d_norm = tls_adjoint.ensure((FeatureConstants::kInChannels + 1) * n);
  float* d_input = d_norm + n;

  // Each adjoint below is written as the tape computes it: a node's grad
  // buffer starts at zero and every consumer adds its contribution, in
  // reverse topological order.  `0.0f + v` is that first accumulation
  // (it turns a -0 contribution into +0); scalar adjoints of broadcast
  // operands accumulate serially in flat index order.

  // h_ang = (h_norm - mean(h_norm)) * scale + offset.
  float d_mean = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d_scaled = 0.0f + d_height[i];
    const float d_centered = 0.0f + d_scaled * c.height_scale;
    d_norm[i] = 0.0f + d_centered;
    d_mean += d_centered * -1.0f;
  }
  const float d_norm_sum = 0.0f + d_mean * c.inv_n;
  for (std::size_t i = 0; i < n; ++i) d_norm[i] += d_norm_sum;

  session_.vjp(record.layers[l], d_norm, d_fill ? d_input : nullptr,
               d_params);
  if (d_fill == nullptr) return;

  // Extraction layer.  The channel planes' adjoints arrive through the
  // concat chain (each a zero-seeded copy); consumers run global-mean
  // channel, incoming channel, width, then density and perimeter.
  const float* d_density_ch = d_input;
  const float* d_perim_ch = d_input + n;
  const float* d_width_ch = d_input + 2 * n;
  const float* d_incoming_ch = d_input + 3 * n;
  const float* d_global_ch = d_input + 5 * n;
  // Channel 5: ones * mean(density).
  float d_global = 0.0f;
  for (std::size_t i = 0; i < n; ++i) d_global += 0.0f + d_global_ch[i];
  const float d_density_sum = 0.0f + d_global * c.inv_n;
  // Channel 3: incoming = (h_prev - mean(h_prev)) * chain_k.
  if (l > 0) {
    float d_prev_mean = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      const float d_centered = 0.0f + (0.0f + d_incoming_ch[i]) * c.chain_k;
      d_prev_height[i] += d_centered;
      d_prev_mean += d_centered * -1.0f;
    }
    const float d_prev_sum = 0.0f + d_prev_mean * c.inv_n;
    for (std::size_t i = 0; i < n; ++i) d_prev_height[i] += d_prev_sum;
  }
  // Channels 2, 0, 1: width = (wnum0 + fill * wdum) / (density + 1e-3),
  // density = rho + fill, perimeter = perim0 + fill * dperim.
  const float* num = record.width_terms.data() + 2 * n * l;
  const float* den = num + n;
  for (std::size_t i = 0; i < n; ++i) {
    const float d_width = 0.0f + d_width_ch[i];
    const float d_num = 0.0f + d_width * (1.0f / den[i]);
    const float d_den = 0.0f + d_width * (-num[i] / (den[i] * den[i]));
    float d_density = 0.0f + d_density_sum;
    d_density += d_den;
    const float d_fill_width = 0.0f + d_num;
    float d_x = 0.0f + d_fill_width * c.wdum;
    d_density += 0.0f + d_density_ch[i];
    const float d_fill_perim = 0.0f + (0.0f + d_perim_ch[i]);
    d_x += d_fill_perim * c.dperim;
    d_x += d_density;
    d_fill[i] = d_x;
  }
}

void SurrogateInference::predict_heights_batch(
    const std::vector<StaticLayerFeatures>& layers,
    const std::vector<std::vector<const float*>>& fills,
    std::vector<std::vector<std::vector<float>>>& heights) const {
  heights.resize(fills.size());
  if (fills.empty()) return;
  if (layers.empty())
    throw std::invalid_argument("predict_heights_batch: no layers");
  for (const auto& candidate : fills)
    if (candidate.size() != layers.size())
      throw std::invalid_argument("predict_heights_batch: layer/fill mismatch");
  NF_TRACE_SPAN("surrogate.predict_batch");

  const std::size_t B = fills.size();
  const std::size_t n =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  const std::size_t in_stride = FeatureConstants::kInChannels * n;
  const ExtractConsts c = make_consts(features_, topo_transfer_, n);

  // Caller-thread scratch: [B, C, n] input stack, [B, n] network output,
  // [B, n] chained incoming planes.  The per-candidate `tmp` plane lives in
  // worker-thread scratch inside the loops below, because candidates are
  // processed concurrently.
  static thread_local AlignedBuffer<float> tls_batch_scratch;
  float* scratch =
      tls_batch_scratch.ensure(B * (in_stride + 2 * n));
  float* input_all = scratch;
  float* h_norm_all = scratch + B * in_stride;
  float* incoming_all = h_norm_all + B * n;
  std::memset(incoming_all, 0, B * n * sizeof(float));

  for (std::size_t b = 0; b < B; ++b) heights[b].resize(layers.size());

  nn::Backend& be = nn::backend();
  // Extraction costs ~10 ns per element across the seven channel passes.
  const std::size_t cand_grain =
      runtime::grain_for_cost(10.0 * static_cast<double>(n), B);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const StaticLayerFeatures& layer = layers[l];
    NF_CHECK(layer.padded_rows == rows_ && layer.padded_cols == cols_,
             "SurrogateInference: layer %zu padded to %dx%d, session compiled "
             "for %dx%d",
             l, layer.padded_rows, layer.padded_cols, rows_, cols_);
    // Candidates are independent within a layer: extraction writes disjoint
    // [C, n] slices of the batched input, with the identical kernel
    // sequence a solo predict_heights would run on that candidate — so the
    // outer decomposition never changes any candidate's bytes.
    runtime::parallel_for(cand_grain, B, [&, l](std::size_t b0,
                                                std::size_t b1) {
      static thread_local AlignedBuffer<float> tls_tmp;
      float* tmp = tls_tmp.ensure(n);
      for (std::size_t b = b0; b < b1; ++b)
        assemble_input_planes(be, layer, fills[b][l], incoming_all + b * n,
                              input_all + b * in_stride, tmp, n, c);
    });

    // One batched UNet forward for all candidates; batch-B output is
    // byte-identical to B batch-1 runs sample for sample (session
    // contract, pinned by tests/test_inference.cpp).
    session_.run(input_all, h_norm_all, static_cast<int>(B));

    const bool chain = l + 1 < layers.size();
    runtime::parallel_for(cand_grain, B, [&, l, chain](std::size_t b0,
                                                       std::size_t b1) {
      for (std::size_t b = b0; b < b1; ++b) {
        std::vector<float>& h_ang = heights[b][l];
        h_ang.resize(n);
        postprocess_heights(be, h_norm_all + b * n, h_ang.data(),
                            chain ? incoming_all + b * n : nullptr, n, c);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Session cache
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(const void* bytes, std::size_t len, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t double_bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Every input that shapes a compiled session, flattened to integers; the
/// lexicographic std::map order is the cache order.
std::vector<std::uint64_t> make_cache_key(const CmpSurrogate& surrogate,
                                          int padded_rows, int padded_cols,
                                          int max_batch) {
  const SurrogateConfig& cfg = surrogate.config();
  std::uint64_t wh = 1469598103934665603ull;  // FNV offset basis
  const nn::ParameterSet& params = surrogate.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::int64_t numel = static_cast<std::int64_t>(params.spec(i).numel);
    wh = fnv1a(&numel, sizeof(numel), wh);
    wh = fnv1a(params.data(i), static_cast<std::size_t>(numel) * sizeof(float),
               wh);
  }
  return {
      wh,
      static_cast<std::uint64_t>(cfg.unet.in_channels),
      static_cast<std::uint64_t>(cfg.unet.out_channels),
      static_cast<std::uint64_t>(cfg.unet.base_channels),
      static_cast<std::uint64_t>(cfg.unet.depth),
      static_cast<std::uint64_t>(cfg.unet.use_group_norm ? 1 : 0),
      double_bits(cfg.features.window_um),
      double_bits(cfg.features.dummy_edge_um),
      double_bits(cfg.features.perimeter_norm),
      double_bits(cfg.features.width_ref_um),
      double_bits(cfg.features.height_scale),
      double_bits(cfg.features.height_offset),
      double_bits(cfg.topo_transfer),
      static_cast<std::uint64_t>(padded_rows),
      static_cast<std::uint64_t>(padded_cols),
      static_cast<std::uint64_t>(max_batch),
  };
}

struct SessionCache {
  std::mutex mu;
  std::map<std::vector<std::uint64_t>, std::shared_ptr<const SurrogateInference>>
      entries;
};

SessionCache& session_cache() {
  static SessionCache cache;  // never destroyed before last user in practice
  return cache;
}

}  // namespace

std::shared_ptr<const SurrogateInference> acquire_surrogate_inference(
    const CmpSurrogate& surrogate, int padded_rows, int padded_cols,
    int max_batch) {
  std::vector<std::uint64_t> key =
      make_cache_key(surrogate, padded_rows, padded_cols, max_batch);
  SessionCache& cache = session_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      NF_COUNTER_ADD("surrogate.session_cache_hits", 1);
      return it->second;
    }
  }
  // Compile outside the lock: tile solves run concurrently and compilation
  // (weight packing, arena planning) is the expensive part.  Two threads
  // racing on a cold key both compile; the first insert wins the map and
  // the loser's session just serves its own caller — identical bytes either
  // way, since compilation is a pure function of the key.
  auto session = std::make_shared<const SurrogateInference>(
      surrogate, padded_rows, padded_cols,
      SurrogateInference::fill_options(max_batch));
  NF_COUNTER_ADD("surrogate.session_cache_misses", 1);
  std::lock_guard<std::mutex> lock(cache.mu);
  auto [it, inserted] = cache.entries.emplace(std::move(key), std::move(session));
  return it->second;
}

std::size_t surrogate_inference_cache_size() {
  SessionCache& cache = session_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.entries.size();
}

void clear_surrogate_inference_cache() {
  SessionCache& cache = session_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
}

}  // namespace neurfill
