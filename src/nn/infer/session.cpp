#include "nn/infer/session.hpp"

#include <cstring>
#include <map>
#include <string>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "nn/module.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Graph compilation + execution for the tape-free inference fast path.
// The compiler mirrors the module evaluation order of UNet exactly (encoder
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

int InferenceSession::add_conv_block(const void* conv_module,
                                     const void* norm_module, ActKind act,
                                     int in_id) {
  const auto* conv = static_cast<const Conv2d*>(conv_module);
  const auto* norm = static_cast<const GroupNorm*>(norm_module);
  const ValueSpec& in = values_[in_id];

  const Tensor& w = conv->weight();
  NF_CHECK(w.ndim() == 4, "InferenceSession: conv weight must be 4-D");
  NF_CHECK(w.dim(1) == in.channels,
           "InferenceSession: conv expects %d input channels, value has %d",
           w.dim(1), in.channels);

  Conv2dGeom g;
  g.batch = 1;  // patched to the actual batch at run time
  g.in_channels = in.channels;
  g.height = in.height;
  g.width = in.width;
  g.out_channels = w.dim(0);
  g.kernel_h = w.dim(2);
  g.kernel_w = w.dim(3);
  g.stride = conv->stride();
  g.padding = conv->padding();
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
  node.conv.weight = w.data();
  node.conv.act = act;
  node.conv.slope = 0.0f;
  keep_.push_back(w);
  if (conv->bias().defined()) {
    node.conv.bias = conv->bias().data();
    keep_.push_back(conv->bias());
  }
  if (norm != nullptr) {
    NF_CHECK(norm->groups() > 0 && g.out_channels % norm->groups() == 0,
             "InferenceSession: %d channels not divisible into %d groups",
             g.out_channels, norm->groups());
    node.conv.groups = norm->groups();
    node.conv.eps = 1e-5f;  // GroupNorm's module eps (ops.hpp default)
    node.conv.gamma = norm->gamma().data();
    node.conv.beta = norm->beta().data();
    keep_.push_back(norm->gamma());
    keep_.push_back(norm->beta());
  }
  nodes_.push_back(node);
  return node.out;
}

InferenceSession::InferenceSession(const UNet& net, int height, int width,
                                   InferenceOptions options)
    : fuse_(options.fuse),
      max_batch_(options.max_batch > 1 ? options.max_batch : 1) {
  const UNetConfig& cfg = net.config();
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

  // Index the module tree by dotted path.  (std::map keeps iteration — and
  // any failure messages — deterministic.)
  std::map<std::string, const Module*> index;
  for (const auto& entry : net.named_modules())
    index.emplace(entry.first, entry.second);
  auto conv_at = [&index](const std::string& name) -> const Conv2d* {
    auto it = index.find(name);
    NF_CHECK(it != index.end(), "InferenceSession: missing module %s",
             name.c_str());
    const auto* conv = dynamic_cast<const Conv2d*>(it->second);
    NF_CHECK(conv != nullptr, "InferenceSession: %s is not a Conv2d",
             name.c_str());
    return conv;
  };
  auto gn_at = [&index](const std::string& name) -> const GroupNorm* {
    auto it = index.find(name);
    if (it == index.end()) return nullptr;  // norm disabled in this net
    const auto* norm = dynamic_cast<const GroupNorm*>(it->second);
    NF_CHECK(norm != nullptr, "InferenceSession: %s is not a GroupNorm",
             name.c_str());
    return norm;
  };
  // DoubleConv evaluates conv1 -> [norm1] -> relu -> conv2 -> [norm2] ->
  // relu; each half is one fused block.
  auto double_conv = [&](const std::string& prefix, int v) {
    v = add_conv_block(conv_at(prefix + ".conv1"), gn_at(prefix + ".norm1"),
                       ActKind::kRelu, v);
    return add_conv_block(conv_at(prefix + ".conv2"), gn_at(prefix + ".norm2"),
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
    v = add_conv_block(conv_at("up" + std::to_string(d)), nullptr,
                       ActKind::kNone, up.out);
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
  v = add_conv_block(conv_at("head"), nullptr, ActKind::kNone, v);
  out_value_ = v;
  NF_CHECK(values_[out_value_].channels == cfg.out_channels,
           "InferenceSession: head produced %d channels, expected %d",
           values_[out_value_].channels, cfg.out_channels);

  plan_arena(options.reuse_buffers);
  plan_saved();
  if (options.prepack_weights) prepack_weights();
}

void InferenceSession::plan_saved() {
  // The recorded pass keeps only what vjp() reads: each normalized block's
  // pre-normalization output and statistics, each ReLU block's mask, each
  // pool's argmax.  The adjoint scratch of vjp() gives every value a slot
  // (a value's adjoint is complete only once all its consumers have run)
  // and appends two block-sized planes for the activation and
  // normalization adjoints.
  std::size_t top = 0;
  for (ValueSpec& v : values_) {
    if (v.external) continue;
    v.adj_offset = top;
    top += aligned_floats(v.channels, v.height, v.width);
  }
  adj_floats_ = top;
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
    } else if (node.kind == Node::Kind::kMaxPool) {
      node.saved_argmax = saved_argmax_;
      saved_argmax_ += numel;
    }
  }
}

std::size_t InferenceSession::saved_bytes() const {
  return saved_floats_ * sizeof(float) + saved_stats_ * sizeof(double) +
         saved_mask_bytes_ +
         saved_argmax_ * sizeof(std::int64_t);
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
    be.conv_weight_pack(nodes_[i].conv.geom, nodes_[i].conv.weight,
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

  struct Block {
    std::size_t offset;
    std::size_t size;
  };
  std::vector<Block> free_list;
  std::size_t top = 0;

  // Best fit over the free list: smallest adequate block, ties to the
  // lowest offset; the remainder is split off and stays free.  Blocks are
  // not coalesced — the graph is compiled once and the UNet's release
  // pattern (same sizes recur every stage) reuses split blocks exactly, so
  // coalescing would buy nothing for permanent planning cost.
  auto alloc = [&](std::size_t need) -> std::size_t {
    if (reuse) {
      std::size_t best = free_list.size();
      for (std::size_t i = 0; i < free_list.size(); ++i) {
        if (free_list[i].size < need) continue;
        if (best == free_list.size() ||
            free_list[i].size < free_list[best].size ||
            (free_list[i].size == free_list[best].size &&
             free_list[i].offset < free_list[best].offset)) {
          best = i;
        }
      }
      if (best != free_list.size()) {
        const std::size_t offset = free_list[best].offset;
        if (free_list[best].size > need) {
          free_list[best].offset += need;
          free_list[best].size -= need;
        } else {
          free_list.erase(free_list.begin() + static_cast<std::ptrdiff_t>(best));
        }
        return offset;
      }
    }
    const std::size_t offset = top;
    top += need;
    return offset;
  };

  for (std::size_t i = 0; i < n_nodes; ++i) {
    const Node& node = nodes_[i];
    ValueSpec& out = values_[node.out];
    // Allocate the output BEFORE releasing dying inputs: kernels never run
    // in place across a node, so the output block must not alias an input
    // even when that input dies at this node.
    out.offset =
        alloc(aligned_floats(out.channels, out.height, out.width));
    if (!reuse) continue;
    const int ins[2] = {node.in0, node.in1};
    for (int k = 0; k < 2; ++k) {
      const int vid = ins[k];
      if (vid < 0 || values_[vid].external) continue;
      if (k == 1 && node.in1 == node.in0) continue;  // consumed twice
      if (last_use[vid] == i) {
        const ValueSpec& spec = values_[vid];
        free_list.push_back(
            {spec.offset,
             aligned_floats(spec.channels, spec.height, spec.width)});
      }
    }
  }
  arena_floats_ = top;
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
                                  SavedActivations& saved) const {
  NF_CHECK(input != nullptr && output != nullptr,
           "InferenceSession::run_saving: null buffer");
  NF_COUNTER_ADD("infer.samples", 1);
  saved.prenorm.ensure(saved_floats_);
  saved.stats.ensure(saved_stats_);
  saved.relu_mask.ensure(saved_mask_bytes_);
  saved.argmax.ensure(saved_argmax_);
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
        if (fuse_ && !keep_norm_input) {
          be.conv2d_gn_act_fwd_packed(g, c.groups, c.eps, c.act, c.slope, in0,
                                      c.weight, pw, c.bias, c.gamma, c.beta,
                                      out);
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
                                        in0, c.weight, pw, c.bias, nullptr,
                                        nullptr, conv_out);
          else
            be.conv2d_fwd(g, in0, c.weight, c.bias, conv_out);
          if (c.groups > 0) {
            GroupNormGeom ng;
            ng.batch = batch;
            ng.channels = g.out_channels;
            ng.height = g.out_height;
            ng.width = g.out_width;
            ng.groups = c.groups;
            ng.eps = c.eps;
            be.group_norm_fwd(ng, conv_out, c.gamma, c.beta, out, stats,
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
                           const float* d_output, float* d_input) const {
  NF_CHECK(d_output != nullptr && d_input != nullptr,
           "InferenceSession::vjp: null buffer");
  NF_TRACE_SPAN("nn.infer_vjp");
  // Per-thread adjoint scratch: one slot per value, then
  // the activation and normalization adjoints of the block in flight.  All
  // value adjoints start at zero and every consumer accumulates into them,
  // exactly as the tape's grad buffers do — including the +0 a zero-seeded
  // accumulation gives a -0 contribution.
  static thread_local AlignedBuffer<float> tls_adjoint;
  float* adj = tls_adjoint.ensure(adj_floats_ + 2 * max_block_floats_);
  std::memset(adj, 0, adj_floats_ * sizeof(float));
  float* d_act = adj + adj_floats_;
  float* d_pre = d_act + max_block_floats_;
  const std::size_t in_floats = static_cast<std::size_t>(in_channels_) *
                                static_cast<std::size_t>(height_) * width_;
  std::memset(d_input, 0, in_floats * sizeof(float));
  const auto adj_of = [&](int vid) -> float* {
    return values_[vid].external ? d_input : adj + values_[vid].adj_offset;
  };
  const ValueSpec& out_spec = values_[out_value_];
  std::memcpy(adj_of(out_value_), d_output,
              static_cast<std::size_t>(out_spec.channels) * out_spec.height *
                  out_spec.width * sizeof(float));

  Backend& be = backend();
  // Reverse node order is a reverse topological order of the graph.  The
  // only values with two consumers are the encoder skips (pool, concat);
  // their adjoint is the sum of two contributions onto zero, which is
  // order-independent in IEEE arithmetic — the later consumer (concat)
  // still goes first, as on the tape.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    const Node& node = *it;
    const ValueSpec& in_spec = values_[node.in0];
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
                            stats, stats + c.groups, c.gamma, dy, d_pre,
                            nullptr, nullptr);
          dy = d_pre;
        }
        be.conv2d_bwd(g, nullptr, c.weight, dy, adj_of(node.in0), nullptr,
                      nullptr);
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
        const ValueSpec& b_spec = values_[node.in1];
        const std::size_t plane =
            static_cast<std::size_t>(in_spec.height) * in_spec.width;
        const std::size_t na = static_cast<std::size_t>(in_spec.channels) * plane;
        const std::size_t nb = static_cast<std::size_t>(b_spec.channels) * plane;
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
