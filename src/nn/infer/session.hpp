#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "nn/backend/backend.hpp"
#include "nn/tensor.hpp"
#include "nn/unet.hpp"

// Tape-free inference engine (docs/inference.md).  An InferenceSession
// compiles a UNet into a static, topologically ordered op graph once —
// fused conv+groupnorm+activation blocks, pool/upsample/concat nodes, and
// a liveness-planned arena of reused activation buffers — then executes
// forward passes with zero steady-state allocation.  Results are bitwise
// identical to the autograd module evaluation at any thread count (pinned
// by tests/test_inference.cpp), because every kernel reproduces the same
// accumulation orders through the same compute backend.
//
// This directory is lint-enforced tape-free: nf_lint's infer-no-autograd
// rule forbids the tape API surface here, so the engine can never silently
// regress into building autograd state.

namespace neurfill::nn {

struct InferenceOptions {
  /// Reuse activation buffers once their last consumer has executed
  /// (liveness-planned arena).  Off gives every value a private block —
  /// the aliasing-free reference the arena planner is tested against.
  bool reuse_buffers = true;
  /// Execute conv blocks through the fused conv+groupnorm+activation
  /// kernel.  Off runs the unfused backend kernel chain in place — the
  /// fusion-free reference path.
  bool fuse = true;
  /// Pre-pack constant conv weight panels at compile time through the
  /// backend (Backend::conv_weight_pack), hoisting the GEMM's per-call A
  /// packing out of every forward.  Results are bitwise identical either
  /// way; off keeps the pack-per-call reference path.
  bool prepack_weights = true;
  /// Plan the per-thread arena for at least this batch size on the first
  /// run(), so a session that alternates batch sizes up to `max_batch`
  /// reaches zero steady-state allocation immediately instead of growing
  /// on the first large batch.  Larger run() batches still work (the arena
  /// grows once).  Clamped to >= 1.
  int max_batch = 1;
};

class InferenceSession {
 public:
  /// Compiles `net` for inputs of spatial extent height x width (each must
  /// be positive and divisible by 2^depth).  Parameter storage is shared
  /// with (and kept alive independently of) `net`.  Weights are treated as
  /// constant from compile time on: layers with a backend packed form are
  /// snapshotted into pre-packed panels here (InferenceOptions::
  /// prepack_weights), so mutating parameters after construction is
  /// unsupported — rebuild the session after weight updates.
  InferenceSession(const UNet& net, int height, int width,
                   InferenceOptions options = {});

  /// One batched NCHW pass: `input` is [batch, in_channels, H, W],
  /// `output` is [batch, out_channels, H, W], both caller-owned and
  /// non-overlapping.  Thread-safe (per-thread arena) and deterministic:
  /// the result is bitwise identical at any thread count, and a batch-B
  /// call equals B batch-1 calls sample for sample.  Steady state performs
  /// no allocation: the arena is a grow-only thread_local buffer.
  void run(const float* input, float* output, int batch = 1) const;

  /// What run_saving() keeps for vjp(): every node value, the
  /// pre-normalization conv output and group statistics of each normalized
  /// block, and the argmax indices of each pool.  Caller-owned, so several
  /// passes can be pending at once (one per surrogate layer) and concurrent
  /// callers never share one; grow-only, so reuse allocates nothing.
  struct SavedActivations {
    AlignedBuffer<float> values;
    AlignedBuffer<double> stats;
    AlignedBuffer<std::int64_t> argmax;
  };

  /// Batch-1 run() that also records `saved` for a later vjp().  `output`
  /// is bitwise identical to run()'s: normalized blocks execute as the
  /// unfused conv -> group_norm -> activation chain, which the fused kernel
  /// is pinned equal to.
  void run_saving(const float* input, float* output,
                  SavedActivations& saved) const;

  /// Vector-Jacobian product with respect to the input, weights held
  /// constant: writes d_input = (d output / d input)^T d_output for the
  /// pass recorded in `saved` (in_channels x H x W floats, overwritten).
  /// Walks the graph in reverse through the data-gradient convolution (no
  /// weight or bias gradients), group-norm, ReLU, pool, upsample and concat
  /// adjoints, accumulating each value's adjoint in the order the autograd
  /// tape does — so d_input is bitwise identical to the tape's input
  /// gradient, at any thread count (pinned by tests/test_inference.cpp).
  /// Thread-safe; steady state allocates nothing.
  void vjp(const SavedActivations& saved, const float* d_output,
           float* d_input) const;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int height() const { return height_; }
  int width() const { return width_; }
  /// Arena footprint per batch sample, in floats (introspection/tests).
  std::size_t arena_floats_per_sample() const { return arena_floats_; }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct ValueSpec {
    int channels = 0;
    int height = 0;
    int width = 0;
    bool external = false;    ///< the session input, not arena-backed
    std::size_t offset = 0;   ///< per-sample float offset into the arena
    /// Private float offset in SavedActivations::values, and of the value's
    /// adjoint in the VJP scratch (same layout).
    std::size_t saved_offset = 0;
  };

  struct ConvBlockSpec {
    Conv2dGeom geom;            ///< batch filled in at run time
    const float* weight = nullptr;
    const float* bias = nullptr;
    const float* gamma = nullptr;
    const float* beta = nullptr;
    int groups = 0;             ///< 0: no normalization
    float eps = 0.0f;
    ActKind act = ActKind::kNone;
    float slope = 0.0f;
    /// Offset of this block's pre-packed weight panel in packed_weights_,
    /// or -1 when the layer has no packed form (or prepacking is off).
    std::ptrdiff_t packed_offset = -1;
  };

  struct Node {
    enum class Kind { kConvBlock, kMaxPool, kUpsample, kConcat };
    Kind kind = Kind::kConvBlock;
    int in0 = -1;
    int in1 = -1;  ///< kConcat only (second operand)
    int out = -1;
    ConvBlockSpec conv;  ///< kConvBlock only
    /// SavedActivations offsets: the pre-normalization output (floats) and
    /// the mean/istd pairs (doubles) of a normalized kConvBlock, or the
    /// argmax indices of a kMaxPool.
    std::size_t saved_prenorm = 0;
    std::size_t saved_stats = 0;
    std::size_t saved_argmax = 0;
  };

  int add_value(int channels, int height, int width);
  int add_conv_block(const void* conv_module, const void* norm_module,
                     ActKind act, int in_id);
  void plan_arena(bool reuse);
  void plan_saved();
  void prepack_weights();
  float* value_ptr(int vid, float* arena, int batch) const;
  /// Runs the node list.  Without `saved`, values live in the arena at
  /// batch `batch`; with it (batch 1), every value gets its private slot in
  /// saved->values and the backward operands are recorded alongside.
  void execute(const float* input, float* output, int batch, float* arena,
               SavedActivations* saved) const;

  std::vector<ValueSpec> values_;
  std::vector<Node> nodes_;
  std::vector<Tensor> keep_;  ///< shares ownership of the parameter storage
  /// Compile-time weight panels (Backend::conv_weight_pack), one region per
  /// conv block with a packed form; valid only on the backend that was
  /// active at compile time (run() passes them only through that backend's
  /// packed entry point, which ignores panels it did not produce).
  AlignedBuffer<float> packed_weights_;
  Backend* pack_backend_ = nullptr;  ///< backend the panels were packed on
  std::size_t arena_floats_ = 0;
  std::size_t saved_value_floats_ = 0;  ///< values part of the saved layout
  std::size_t saved_floats_ = 0;        ///< + pre-normalization outputs
  std::size_t saved_stats_ = 0;
  std::size_t saved_argmax_ = 0;
  std::size_t max_block_floats_ = 0;    ///< largest conv block output
  int out_value_ = -1;
  int in_channels_ = 0;
  int out_channels_ = 0;
  int height_ = 0;
  int width_ = 0;
  bool fuse_ = true;
  int max_batch_ = 1;
};

}  // namespace neurfill::nn
