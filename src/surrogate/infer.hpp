#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "nn/infer/session.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/features.hpp"

namespace neurfill {

/// What a recorded SurrogateInference::predict_heights pass keeps for
/// layer_vjp(): per layer, the session's saved activations and the width
/// channel's numerator and denominator planes.  Caller-owned and grow-only,
/// like the session's SavedActivations, so one record per thread serves
/// every evaluation.
struct SurrogateRecord {
  std::vector<nn::InferenceSession::SavedActivations> layers;
  AlignedBuffer<float> width_terms;  ///< [layer][numerator|denominator][n]
};

/// The surrogate network of Fig. 4 over flat planes: the extraction-layer
/// arithmetic (density / perimeter / width / global-mean planes) runs as
/// backend elementwise kernels, the UNet runs through a graph-compiled
/// nn::InferenceSession, and the height post-processing and layer chaining
/// follow.  A forward pass allocates nothing in steady state, and every
/// float operation replicates the op-by-op rounding of the autograd
/// reference (tests/tape_oracle.hpp), so heights and adjoints are bitwise
/// identical to it (pinned by tests/test_inference.cpp and
/// tests/test_surrogate.cpp).
///
/// One instance is bound to one padded plane size; CmpNetwork builds one
/// per extraction, tools build one per chip (or per tile), the trainer one
/// per training plane size.
class SurrogateInference {
 public:
  /// Largest candidate batch the compiled session plans its arena for up
  /// front (predict_heights_batch still accepts bigger batches; the arena
  /// then grows once).  Sized for one NMMSO move batch.
  static constexpr int kDefaultMaxBatch = 32;

  /// The options a fill compiles with: fused blocks, a reused arena planned
  /// for `max_batch` candidates, and weights pre-packed at compile time.
  static nn::InferenceOptions fill_options(int max_batch = kDefaultMaxBatch);

  /// Compiles the surrogate's UNet for padded_rows x padded_cols planes
  /// (must be divisible by 2^depth).  Holds shared ownership of the
  /// parameter set.  With prepacked weights (the fill options) the weights
  /// are snapshotted at compile time — rebuild after weight updates;
  /// without, every pass reads them in place (the trainer's session).
  SurrogateInference(const CmpSurrogate& surrogate, int padded_rows,
                     int padded_cols,
                     nn::InferenceOptions options = fill_options());

  int padded_rows() const { return rows_; }
  int padded_cols() const { return cols_; }

  /// Per-layer post-CMP heights in Angstrom, chained through the incoming
  /// topography like the simulator's layer loop.  `fills[l]` is the padded
  /// fill plane (padded_rows x padded_cols, row-major); `heights` is
  /// resized to one plane per layer.  With a `record`, the pass also keeps
  /// what layer_vjp() needs (same heights).  With `labels` (teacher
  /// forcing, for pre-training), layer l's incoming topography is chained
  /// from labels[l - 1] — the simulator's height plane of the layer below,
  /// padded, in Angstrom — instead of the network's own prediction, so
  /// early-training noise in one layer does not corrupt the next layer's
  /// input; the record is then a training record, which layer_vjp() can
  /// take parameter adjoints from.
  void predict_heights(const std::vector<StaticLayerFeatures>& layers,
                       const std::vector<const float*>& fills,
                       std::vector<std::vector<float>>& heights,
                       SurrogateRecord* record = nullptr,
                       const std::vector<const float*>* labels = nullptr) const;

  /// Adjoint of layer `l` of a recorded predict_heights pass, for layers
  /// walked top first.  `d_height` is the layer's complete height adjoint
  /// (padded plane, Angstrom).  Runs the hard-centering/denormalization
  /// adjoint, the session VJP and the extraction-layer adjoint, writes the
  /// fill adjoint to `d_fill` (padded plane, overwritten) and, for l > 0,
  /// accumulates the chaining adjoint into `d_prev_height` (layer l-1's
  /// height adjoint, which the caller completes before its own call).
  /// With `d_params` (a training record), the layer's parameter adjoints
  /// are accumulated into it, laid out like the surrogate's parameter set;
  /// a null `d_fill` skips the input adjoints (the fill and chaining ones),
  /// which a teacher-forced pass has no use for.  Every step accumulates in
  /// the autograd tape's order, so the fill gradient and the parameter
  /// adjoints are bitwise identical to the tape's.  Thread-safe.
  void layer_vjp(std::size_t l, const SurrogateRecord& record,
                 const float* d_height, float* d_fill, float* d_prev_height,
                 float* d_params = nullptr) const;

  /// Batched predict_heights over B candidate fill solutions that share the
  /// static layer features: `fills[b][l]` is candidate b's padded fill
  /// plane for layer l, `heights[b][l]` its height plane.  Per layer, the B
  /// candidate feature stacks are assembled into one [B, C, H, W] input and
  /// the UNet runs once at batch B; extraction and the post-processing
  /// chain run per candidate slice with the identical kernel sequence, so
  /// every candidate's heights are byte-identical to a predict_heights call
  /// on that candidate alone (pinned by tests/test_inference.cpp).  The
  /// layer loop stays serial — layer l+1's incoming topography chains from
  /// layer l — batching is across candidates within a layer.
  void predict_heights_batch(
      const std::vector<StaticLayerFeatures>& layers,
      const std::vector<std::vector<const float*>>& fills,
      std::vector<std::vector<std::vector<float>>>& heights) const;

  /// The compiled UNet (batched NCHW entry point for tools and tests).
  const nn::InferenceSession& session() const { return session_; }

 private:
  FeatureConstants features_;
  double topo_transfer_ = 0.8;
  nn::InferenceSession session_;
  int rows_ = 0, cols_ = 0;
};

/// Process-wide cache of compiled SurrogateInference sessions, keyed by the
/// surrogate's architecture + extraction constants, a hash of its parameter
/// bytes, the padded plane size, and max_batch.  Compiling a session packs
/// every constant conv weight panel, which is pure overhead to repeat when
/// the fullchip driver solves hundreds of equally-sized tiles against one
/// frozen surrogate — with the cache they all share one compiled session
/// (sessions are immutable and thread-safe, so sharing is free).  Thread-
/// safe; a weight update changes the hash and naturally misses.  Emits
/// surrogate.session_cache_hits / surrogate.session_cache_misses counters.
std::shared_ptr<const SurrogateInference> acquire_surrogate_inference(
    const CmpSurrogate& surrogate, int padded_rows, int padded_cols,
    int max_batch = SurrogateInference::kDefaultMaxBatch);

/// Number of cached sessions (tests/diagnostics).
std::size_t surrogate_inference_cache_size();

/// Drops every cached session (tests; in-flight shared_ptrs stay valid).
void clear_surrogate_inference_cache();

}  // namespace neurfill
