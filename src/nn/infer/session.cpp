#include "nn/infer/session.hpp"

#include <cstring>
#include <string>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Graph compilation + execution for the network engine.  The compiler
// mirrors the evaluation order of the reference UNet exactly (encoder
// blocks with skips and 2x2 pools, bottleneck, upsample+conv / concat /
// double-conv decoder stages, 1x1 head) so the planned graph computes the
// same floats through the same backend kernels — bitwise, not just within
// tolerance.  See docs/inference.md for the arena-planning and fusion
// rules; tests/test_inference.cpp pins the equivalences.
//
// NOTE: this translation unit must stay free of the autograd tape API —
// nf_lint's infer-no-autograd rule enforces it.

namespace neurfill::nn {

namespace {

/// Per-sample float footprint of a value, rounded up to 16 floats so every
/// arena offset stays 64-byte aligned (offsets scale by the batch size at
/// run time, which preserves the alignment).
std::size_t aligned_floats(int channels, int height, int width) {
  const std::size_t raw = static_cast<std::size_t>(channels) *
                          static_cast<std::size_t>(height) *
                          static_cast<std::size_t>(width);
  return (raw + 15u) & ~static_cast<std::size_t>(15u);
}

/// Offset planner over one walk of the graph, shared by the forward arena
/// and the VJP's adjoint scratch: a slot is taken when its value (or
/// adjoint) comes alive and given back when it dies.  Best fit over the
/// free list: smallest adequate block, ties to the lowest offset; the
/// remainder is split off and stays free.  Blocks are not coalesced — the
/// graph is compiled once and the UNet's release pattern (same sizes recur
/// every stage) reuses split blocks exactly, so coalescing would buy
/// nothing for permanent planning cost.  Without reuse every slot is
/// private: the aliasing-free reference.
class SlotPlanner {
 public:
  explicit SlotPlanner(bool reuse) : reuse_(reuse) {}

  std::size_t take(std::size_t need) {
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].size < need) continue;
      if (best == free_.size() || free_[i].size < free_[best].size ||
          (free_[i].size == free_[best].size &&
           free_[i].offset < free_[best].offset)) {
        best = i;
      }
    }
    if (best != free_.size()) {
      const std::size_t offset = free_[best].offset;
      if (free_[best].size > need) {
        free_[best].offset += need;
        free_[best].size -= need;
      } else {
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
      }
      return offset;
    }
    const std::size_t offset = top_;
    top_ += need;
    return offset;
  }

  void give_back(std::size_t offset, std::size_t size) {
    if (reuse_) free_.push_back({offset, size});
  }

  std::size_t top() const { return top_; }

 private:
  struct Block {
    std::size_t offset;
    std::size_t size;
  };
  bool reuse_;
  std::vector<Block> free_;
  std::size_t top_ = 0;
};

}  // namespace

int InferenceSession::add_value(int channels, int height, int width) {
  NF_CHECK(channels > 0 && height > 0 && width > 0,
           "InferenceSession: bad value shape %dx%dx%d", channels, height,
           width);
  ValueSpec v;
  v.channels = channels;
  v.height = height;
  v.width = width;
  values_.push_back(v);
  return static_cast<int>(values_.size()) - 1;
}

int InferenceSession::add_conv_block(const std::string& conv,
                                     const std::string& norm, ActKind act,
                                     int in_id) {
  const ParameterSet& p = *params_;
  const ValueSpec& in = values_[in_id];
  const auto tensor = [&p](const std::string& name,
                           std::size_t rank) -> const ParameterSpec& {
    const std::size_t i = p.find(name);
    NF_CHECK(i < p.size(), "InferenceSession: missing parameter %s",
             name.c_str());
    NF_CHECK(p.spec(i).shape.size() == rank,
             "InferenceSession: parameter %s is not %zu-D", name.c_str(),
             rank);
    return p.spec(i);
  };

  const ParameterSpec& w = tensor(conv + ".weight", 4);
  NF_CHECK(w.shape[1] == in.channels,
           "InferenceSession: conv expects %d input channels, value has %d",
           w.shape[1], in.channels);
  Conv2dGeom g;
  g.batch = 1;  // patched to the actual batch at run time
  g.in_channels = in.channels;
  g.height = in.height;
  g.width = in.width;
  g.out_channels = w.shape[0];
  g.kernel_h = w.shape[2];
  g.kernel_w = w.shape[3];
  g.stride = 1;
  g.padding = g.kernel_h / 2;  // "same" convs: 3x3 pad 1, the 1x1 head pad 0
  g.out_height = (in.height + 2 * g.padding - g.kernel_h) / g.stride + 1;
  g.out_width = (in.width + 2 * g.padding - g.kernel_w) / g.stride + 1;
  NF_CHECK(g.out_height > 0 && g.out_width > 0,
           "InferenceSession: conv output collapsed to %dx%d", g.out_height,
           g.out_width);

  Node node;
  node.kind = Node::Kind::kConvBlock;
  node.in0 = in_id;
  node.out = add_value(g.out_channels, g.out_height, g.out_width);
  node.conv.geom = g;
  node.conv.weight = w.offset;
  const ParameterSpec& b = tensor(conv + ".bias", 1);
  NF_CHECK(b.shape[0] == g.out_channels,
           "InferenceSession: %s.bias has %d entries, expected %d",
           conv.c_str(), b.shape[0], g.out_channels);
  node.conv.bias = b.offset;
  node.conv.act = act;
  node.conv.slope = 0.0f;
  if (!norm.empty()) {
    const int groups = norm_groups(g.out_channels);
    const ParameterSpec& gamma = tensor(norm + ".gamma", 1);
    const ParameterSpec& beta = tensor(norm + ".beta", 1);
    NF_CHECK(gamma.shape[0] == g.out_channels &&
                 beta.shape[0] == g.out_channels,
             "InferenceSession: %s has the wrong channel count", norm.c_str());
    node.conv.groups = groups;
    node.conv.eps = 1e-5f;  // GroupNorm's eps (GroupNormGeom default)
    node.conv.gamma = gamma.offset;
    node.conv.beta = beta.offset;
  }
  nodes_.push_back(node);
  return node.out;
}

InferenceSession::InferenceSession(const UNetConfig& cfg,
                                   std::shared_ptr<const ParameterSet> params,
                                   int height, int width,
                                   InferenceOptions options)
    : params_(std::move(params)),
      fuse_(options.fuse),
      max_batch_(options.max_batch > 1 ? options.max_batch : 1) {
  NF_CHECK(params_ != nullptr, "InferenceSession: null parameter set");
  NF_CHECK(height > 0 && width > 0, "InferenceSession: bad extent %dx%d",
           height, width);
  const int div = 1 << cfg.depth;
  NF_CHECK(height % div == 0 && width % div == 0,
           "InferenceSession: %dx%d not divisible by 2^depth = %d", height,
           width, div);
  in_channels_ = cfg.in_channels;
  out_channels_ = cfg.out_channels;
  height_ = height;
  width_ = width;

  // A double conv evaluates conv1 -> [norm1] -> relu -> conv2 -> [norm2] ->
  // relu; each half is one fused block.
  auto double_conv = [&](const std::string& prefix, int v) {
    const bool gn = cfg.use_group_norm;
    v = add_conv_block(prefix + ".conv1", gn ? prefix + ".norm1" : "",
                       ActKind::kRelu, v);
    return add_conv_block(prefix + ".conv2", gn ? prefix + ".norm2" : "",
                          ActKind::kRelu, v);
  };

  int v = add_value(cfg.in_channels, height, width);
  values_[v].external = true;

  std::vector<int> skips;
  for (int d = 0; d < cfg.depth; ++d) {
    v = double_conv("enc" + std::to_string(d), v);
    skips.push_back(v);
    const ValueSpec spec = values_[v];
    Node pool;
    pool.kind = Node::Kind::kMaxPool;
    pool.in0 = v;
    pool.out = add_value(spec.channels, spec.height / 2, spec.width / 2);
    nodes_.push_back(pool);
    v = pool.out;
  }
  v = double_conv("bottleneck", v);
  for (int d = cfg.depth - 1; d >= 0; --d) {
    const ValueSpec spec = values_[v];
    Node up;
    up.kind = Node::Kind::kUpsample;
    up.in0 = v;
    up.out = add_value(spec.channels, spec.height * 2, spec.width * 2);
    nodes_.push_back(up);
    // Post-upsample 3x3 conv halves the channels; no norm, no activation.
    v = add_conv_block("up" + std::to_string(d), "", ActKind::kNone, up.out);
    // concat(skip, v) — skip first, matching the module evaluation.
    const ValueSpec& a = values_[skips[d]];
    const ValueSpec& b = values_[v];
    NF_CHECK(a.height == b.height && a.width == b.width,
             "InferenceSession: concat extent mismatch at stage %d", d);
    Node cat;
    cat.kind = Node::Kind::kConcat;
    cat.in0 = skips[d];
    cat.in1 = v;
    cat.out = add_value(a.channels + b.channels, a.height, a.width);
    nodes_.push_back(cat);
    v = double_conv("dec" + std::to_string(d), cat.out);
  }
  v = add_conv_block("head", "", ActKind::kNone, v);
  out_value_ = v;
  NF_CHECK(values_[out_value_].channels == cfg.out_channels,
           "InferenceSession: head produced %d channels, expected %d",
           values_[out_value_].channels, cfg.out_channels);

  plan_arena(options.reuse_buffers);
  plan_adjoints(options.reuse_buffers);
  plan_saved();
  if (options.prepack_weights) prepack_weights();
}

void InferenceSession::plan_saved() {
  // The recorded pass keeps only what vjp() reads: each normalized block's
  // pre-normalization output and statistics, each ReLU block's mask, each
  // pool's argmax, and for training records each conv block's input.  The
  // adjoint scratch is planned by plan_adjoints(); vjp() appends two
  // block-sized planes to it for the activation and normalization
  // adjoints.
  for (Node& node : nodes_) {
    const ValueSpec& out = values_[node.out];
    const std::size_t numel = static_cast<std::size_t>(out.channels) *
                              static_cast<std::size_t>(out.height) *
                              static_cast<std::size_t>(out.width);
    if (node.kind == Node::Kind::kConvBlock) {
      const std::size_t floats =
          aligned_floats(out.channels, out.height, out.width);
      if (floats > max_block_floats_) max_block_floats_ = floats;
      if (node.conv.groups > 0) {
        node.saved_prenorm = saved_floats_;
        saved_floats_ += floats;
        node.saved_stats = saved_stats_;
        saved_stats_ += 2 * static_cast<std::size_t>(node.conv.groups);
      }
      if (node.conv.act == ActKind::kRelu) {
        node.saved_mask = saved_mask_bytes_;
        saved_mask_bytes_ += numel;
      }
      const ValueSpec& in = values_[node.in0];
      node.saved_input = saved_input_floats_;
      saved_input_floats_ += aligned_floats(in.channels, in.height, in.width);
    } else if (node.kind == Node::Kind::kMaxPool) {
      node.saved_argmax = saved_argmax_;
      saved_argmax_ += numel;
    }
  }
}

std::size_t InferenceSession::saved_bytes() const {
  return saved_floats_ * sizeof(float) + saved_stats_ * sizeof(double) +
         saved_mask_bytes_ + saved_argmax_ * sizeof(std::int64_t);
}

void InferenceSession::prepack_weights() {
  // Snapshot every conv block with a backend packed form into one panel
  // buffer.  Runs once at compile time on the then-active backend; run()
  // only hands the panels to that backend's packed entry point, whose
  // contract makes them bitwise-neutral (same decomposition, same bytes the
  // in-loop packer would have produced).
  Backend& be = backend();
  std::size_t total = 0;
  std::vector<std::size_t> sizes(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind != Node::Kind::kConvBlock) continue;
    sizes[i] = be.conv_weight_pack_floats(nodes_[i].conv.geom);
    total += sizes[i];
  }
  if (total == 0) return;
  pack_backend_ = &be;
  float* base = packed_weights_.ensure(total);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (sizes[i] == 0) continue;
    be.conv_weight_pack(nodes_[i].conv.geom,
                        params_->data() + nodes_[i].conv.weight,
                        base + offset);
    nodes_[i].conv.packed_offset = static_cast<std::ptrdiff_t>(offset);
    offset += sizes[i];
  }
}

void InferenceSession::plan_arena(bool reuse) {
  // Liveness: a value is dead after its last consuming node; the session
  // output survives to the final copy-out.
  const std::size_t n_nodes = nodes_.size();
  std::vector<std::size_t> last_use(values_.size(), 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    last_use[nodes_[i].in0] = i;
    if (nodes_[i].in1 >= 0) last_use[nodes_[i].in1] = i;
  }
  last_use[out_value_] = n_nodes;

  SlotPlanner planner(reuse);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const Node& node = nodes_[i];
    ValueSpec& out = values_[node.out];
    // Allocate the output BEFORE releasing dying inputs: kernels never run
    // in place across a node, so the output block must not alias an input
    // even when that input dies at this node.
    out.offset = planner.take(aligned_floats(out.channels, out.height,
                                             out.width));
    const int ins[2] = {node.in0, node.in1};
    for (int k = 0; k < 2; ++k) {
      const int vid = ins[k];
      if (vid < 0 || values_[vid].external) continue;
      if (k == 1 && node.in1 == node.in0) continue;  // consumed twice
      if (last_use[vid] == i) {
        const ValueSpec& spec = values_[vid];
        planner.give_back(spec.offset, aligned_floats(spec.channels,
                                                      spec.height, spec.width));
      }
    }
  }
  arena_floats_ = planner.top();
}

void InferenceSession::plan_adjoints(bool reuse) {
  // The reverse walk's liveness: a value's adjoint is first written by its
  // last consumer (the first node the walk meets) and last read by its
  // producer, after which it is dead.  The same planner as the arena, over
  // reverse node order: each node takes its inputs' slots (zeroed by vjp()
  // when taken, as the tape zero-seeds its grad buffers) before giving
  // back its output's, because a node reads its output adjoint while it
  // accumulates into its inputs'.
  SlotPlanner planner(reuse);
  std::vector<bool> taken(values_.size(), false);
  const auto floats = [this](int vid) {
    const ValueSpec& v = values_[vid];
    return aligned_floats(v.channels, v.height, v.width);
  };
  values_[out_value_].adj_offset = planner.take(floats(out_value_));
  taken[out_value_] = true;
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    Node& node = *it;
    const int ins[2] = {node.in0, node.in1};
    bool* zero[2] = {&node.zero_adj0, &node.zero_adj1};
    for (int k = 0; k < 2; ++k) {
      const int vid = ins[k];
      if (vid < 0 || values_[vid].external || taken[vid]) continue;
      taken[vid] = true;
      values_[vid].adj_offset = planner.take(floats(vid));
      *zero[k] = true;
    }
    NF_CHECK(taken[node.out], "InferenceSession: value %d is never consumed",
             node.out);
    planner.give_back(values_[node.out].adj_offset, floats(node.out));
  }
  adj_floats_ = planner.top();
}

float* InferenceSession::value_ptr(int vid, float* arena, int batch) const {
  return arena + values_[vid].offset * static_cast<std::size_t>(batch);
}

float* InferenceSession::thread_arena(int batch) const {
  // Grow-only per-thread arena: zero allocation in steady state, and
  // concurrent passes on different threads never share activations.  The
  // arena is sized for max(batch, max_batch_) so a session planned for a
  // batch ceiling never reallocates when the batch varies below it; the
  // high-water tracker feeds the gauge and the grow-event counter that the
  // zero-steady-state-allocation test pins.
  static thread_local AlignedBuffer<float> tls_arena;
  static thread_local std::size_t tls_arena_high_water = 0;
  const int plan_batch = batch > max_batch_ ? batch : max_batch_;
  const std::size_t need =
      arena_floats_ * static_cast<std::size_t>(plan_batch);
  if (need > tls_arena_high_water) {
    tls_arena_high_water = need;
    NF_COUNTER_ADD("infer.arena_grow_events", 1);
    NF_GAUGE_SET("infer.arena_high_water_bytes",
                 static_cast<double>(need * sizeof(float)));
  }
  return tls_arena.ensure(need);
}

void InferenceSession::run(const float* input, float* output,
                           int batch) const {
  NF_CHECK(batch >= 1, "InferenceSession::run: batch must be >= 1, got %d",
           batch);
  NF_CHECK(input != nullptr && output != nullptr,
           "InferenceSession::run: null buffer");
  NF_GAUGE_SET("infer.batch", batch);
  NF_COUNTER_ADD("infer.samples", batch);
  if (batch > 1) NF_COUNTER_ADD("infer.batched_runs", 1);
  execute(input, output, batch, thread_arena(batch), nullptr);
}

void InferenceSession::run_saving(const float* input, float* output,
                                  SavedActivations& saved,
                                  bool training) const {
  NF_CHECK(input != nullptr && output != nullptr,
           "InferenceSession::run_saving: null buffer");
  NF_COUNTER_ADD("infer.samples", 1);
  saved.prenorm.ensure(saved_floats_);
  saved.stats.ensure(saved_stats_);
  saved.relu_mask.ensure(saved_mask_bytes_);
  saved.argmax.ensure(saved_argmax_);
  if (training) saved.conv_input.ensure(saved_input_floats_);
  saved.training = training;
  execute(input, output, 1, thread_arena(1), &saved);
}

void InferenceSession::execute(const float* input, float* output, int batch,
                               float* arena, SavedActivations* saved) const {
  NF_TRACE_SPAN("nn.infer_run");
  const auto at = [&](int vid) -> float* {
    return value_ptr(vid, arena, batch);
  };
  Backend& be = backend();
  // Panels belong to the backend that packed them; after a backend swap the
  // session silently falls back to the pack-per-call path (same results).
  const float* packs =
      (&be == pack_backend_) ? packed_weights_.data() : nullptr;
  const float* P = params_->data();
  for (const Node& node : nodes_) {
    const ValueSpec& in_spec = values_[node.in0];
    const float* in0 = in_spec.external ? input : at(node.in0);
    float* out = at(node.out);
    switch (node.kind) {
      case Node::Kind::kConvBlock: {
        const ConvBlockSpec& c = node.conv;
        Conv2dGeom g = c.geom;
        g.batch = batch;
        const float* pw = (packs != nullptr && c.packed_offset >= 0)
                              ? packs + c.packed_offset
                              : nullptr;
        const bool keep_norm_input = saved != nullptr && c.groups > 0;
        const std::int64_t numel = static_cast<std::int64_t>(batch) *
                                   g.out_channels * g.out_height *
                                   g.out_width;
        const float* weight = P + c.weight;
        const float* bias = P + c.bias;
        const float* gamma = c.groups > 0 ? P + c.gamma : nullptr;
        const float* beta = c.groups > 0 ? P + c.beta : nullptr;
        if (saved != nullptr && saved->training)
          std::memcpy(saved->conv_input.data() + node.saved_input, in0,
                      static_cast<std::size_t>(in_spec.channels) *
                          in_spec.height * in_spec.width * sizeof(float));
        if (fuse_ && !keep_norm_input) {
          be.conv2d_gn_act_fwd_packed(g, c.groups, c.eps, c.act, c.slope, in0,
                                      weight, pw, bias, gamma, beta, out);
        } else {
          // The unfused chain, bitwise equal to the fused kernel: the
          // fusion-free reference (fuse = false), and a recorded normalized
          // block, whose adjoint needs the group norm's input and
          // statistics that the fused kernel never materializes.
          float* conv_out =
              keep_norm_input ? saved->prenorm.data() + node.saved_prenorm
                              : out;
          double* stats = keep_norm_input
                              ? saved->stats.data() + node.saved_stats
                              : nullptr;
          if (fuse_)
            be.conv2d_gn_act_fwd_packed(g, 0, c.eps, ActKind::kNone, 0.0f,
                                        in0, weight, pw, bias, nullptr,
                                        nullptr, conv_out);
          else
            be.conv2d_fwd(g, in0, weight, bias, conv_out);
          if (c.groups > 0) {
            GroupNormGeom ng;
            ng.batch = batch;
            ng.channels = g.out_channels;
            ng.height = g.out_height;
            ng.width = g.out_width;
            ng.groups = c.groups;
            ng.eps = c.eps;
            be.group_norm_fwd(ng, conv_out, gamma, beta, out, stats,
                              stats != nullptr ? stats + c.groups : nullptr);
          }
          if (c.act == ActKind::kRelu)
            be.unary_map(UnaryKind::kRelu, 0.0f, out, out, numel);
          else if (c.act == ActKind::kLeakyRelu)
            be.unary_map(UnaryKind::kLeakyRelu, c.slope, out, out, numel);
        }
        if (saved != nullptr && c.act == ActKind::kRelu) {
          // ReLU's mask from its output: y > 0 exactly when the input was.
          std::uint8_t* mask = saved->relu_mask.data() + node.saved_mask;
          for (std::int64_t i = 0; i < numel; ++i) mask[i] = out[i] > 0.0f;
        }
        break;
      }
      case Node::Kind::kMaxPool:
        be.maxpool2x2_fwd(
            static_cast<std::int64_t>(batch) * in_spec.channels,
            in_spec.height, in_spec.width, in0, out,
            saved != nullptr ? saved->argmax.data() + node.saved_argmax
                             : nullptr);
        break;
      case Node::Kind::kUpsample:
        be.upsample2x_fwd(static_cast<std::int64_t>(batch) * in_spec.channels,
                          in_spec.height, in_spec.width, in0, out);
        break;
      case Node::Kind::kConcat: {
        const ValueSpec& b_spec = values_[node.in1];
        const float* in1 = b_spec.external ? input : at(node.in1);
        be.concat_channels_fwd(
            batch, in_spec.channels, b_spec.channels,
            static_cast<std::int64_t>(in_spec.height) * in_spec.width, in0,
            in1, out);
        break;
      }
    }
  }

  const ValueSpec& out_spec = values_[out_value_];
  const std::size_t out_floats = static_cast<std::size_t>(batch) *
                                 static_cast<std::size_t>(out_spec.channels) *
                                 out_spec.height * out_spec.width;
  std::memcpy(output, at(out_value_), out_floats * sizeof(float));
}

void InferenceSession::vjp(const SavedActivations& saved,
                           const float* d_output, float* d_input,
                           float* d_params) const {
  NF_CHECK(d_output != nullptr, "InferenceSession::vjp: null buffer");
  NF_CHECK(d_params == nullptr || saved.training,
           "InferenceSession::vjp: parameter adjoints need a training record");
  NF_TRACE_SPAN("nn.infer_vjp");
  // Per-thread adjoint scratch: the liveness-planned value slots, then
  // the activation and normalization adjoints of the block in flight.  A
  // value's slot is zeroed when the walk takes it and every consumer
  // accumulates into it, exactly as the tape's grad buffers do — including
  // the +0 a zero-seeded accumulation gives a -0 contribution.
  static thread_local AlignedBuffer<float> tls_adjoint;
  float* adj = tls_adjoint.ensure(adj_floats_ + 2 * max_block_floats_);
  float* d_act = adj + adj_floats_;
  float* d_pre = d_act + max_block_floats_;
  if (d_input != nullptr)
    std::memset(d_input, 0,
                static_cast<std::size_t>(in_channels_) * height_ * width_ *
                    sizeof(float));
  const auto adj_of = [&](int vid) -> float* {
    return values_[vid].external ? d_input : adj + values_[vid].adj_offset;
  };
  const auto numel_of = [this](int vid) {
    const ValueSpec& v = values_[vid];
    return static_cast<std::size_t>(v.channels) * v.height * v.width;
  };
  std::memcpy(adj_of(out_value_), d_output,
              numel_of(out_value_) * sizeof(float));

  Backend& be = backend();
  const float* P = params_->data();
  // Reverse node order is a reverse topological order of the graph.  The
  // only values with two consumers are the encoder skips (pool, concat);
  // their adjoint is the sum of two contributions onto zero, which is
  // order-independent in IEEE arithmetic — the later consumer (concat)
  // still goes first, as on the tape.  Each parameter is read by exactly
  // one block, so its adjoint takes one contribution per pass, in the
  // order the caller runs the passes.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    const Node& node = *it;
    const ValueSpec& in_spec = values_[node.in0];
    if (node.zero_adj0)
      std::memset(adj_of(node.in0), 0, numel_of(node.in0) * sizeof(float));
    if (node.zero_adj1)
      std::memset(adj_of(node.in1), 0, numel_of(node.in1) * sizeof(float));
    const float* dy = adj_of(node.out);
    switch (node.kind) {
      case Node::Kind::kConvBlock: {
        const ConvBlockSpec& c = node.conv;
        const Conv2dGeom& g = c.geom;  // compiled at batch 1
        const std::size_t numel = static_cast<std::size_t>(g.out_channels) *
                                  g.out_height * g.out_width;
        NF_CHECK(c.act != ActKind::kLeakyRelu,
                 "InferenceSession::vjp: leaky ReLU blocks unsupported");
        if (c.act == ActKind::kRelu) {
          const std::uint8_t* mask = saved.relu_mask.data() + node.saved_mask;
          for (std::size_t i = 0; i < numel; ++i)
            d_act[i] = 0.0f + dy[i] * (mask[i] != 0 ? 1.0f : 0.0f);
          dy = d_act;
        }
        if (c.groups > 0) {
          GroupNormGeom ng;
          ng.batch = 1;
          ng.channels = g.out_channels;
          ng.height = g.out_height;
          ng.width = g.out_width;
          ng.groups = c.groups;
          ng.eps = c.eps;
          const double* stats = saved.stats.data() + node.saved_stats;
          std::memset(d_pre, 0, numel * sizeof(float));
          be.group_norm_bwd(ng, saved.prenorm.data() + node.saved_prenorm,
                            stats, stats + c.groups, P + c.gamma, dy, d_pre,
                            d_params ? d_params + c.gamma : nullptr,
                            d_params ? d_params + c.beta : nullptr);
          dy = d_pre;
        }
        be.conv2d_bwd(
            g, d_params ? saved.conv_input.data() + node.saved_input : nullptr,
            P + c.weight, dy, adj_of(node.in0),
            d_params ? d_params + c.weight : nullptr,
            d_params ? d_params + c.bias : nullptr);
        break;
      }
      case Node::Kind::kMaxPool: {
        const ValueSpec& out = values_[node.out];
        be.maxpool2x2_bwd(static_cast<std::int64_t>(out.channels) *
                              out.height * out.width,
                          saved.argmax.data() + node.saved_argmax, dy,
                          adj_of(node.in0));
        break;
      }
      case Node::Kind::kUpsample:
        be.upsample2x_bwd(in_spec.channels, in_spec.height, in_spec.width, dy,
                          adj_of(node.in0));
        break;
      case Node::Kind::kConcat: {
        const std::size_t na = numel_of(node.in0);
        const std::size_t nb = numel_of(node.in1);
        float* da = adj_of(node.in0);
        for (std::size_t i = 0; i < na; ++i) da[i] += dy[i];
        float* db = adj_of(node.in1);
        for (std::size_t i = 0; i < nb; ++i) db[i] += dy[na + i];
        break;
      }
    }
  }
}

}  // namespace neurfill::nn
