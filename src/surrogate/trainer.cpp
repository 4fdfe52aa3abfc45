#include "surrogate/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/checkpoint.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "nn/backend/backend.hpp"
#include "obs/trace.hpp"
#include "surrogate/infer.hpp"

namespace neurfill {

namespace {

/// One sample's padded planes: the fills, the simulator's heights (the
/// teacher-forcing labels) and the regression targets.
struct SamplePlanes {
  std::vector<StaticLayerFeatures> feats;
  std::vector<std::vector<float>> fills, labels, targets;
};

SamplePlanes sample_planes(const CmpSurrogate& surrogate,
                           const TrainingSample& sample) {
  const auto& fc = surrogate.config().features;
  SamplePlanes p;
  p.feats = build_static_features(sample.ext, fc,
                                  1 << surrogate.config().unet.depth);
  const float inv_scale = 1.0f / static_cast<float>(fc.height_scale);
  const std::size_t L = p.feats.size();
  p.fills.resize(L);
  p.labels.resize(L);
  p.targets.resize(L);
  for (std::size_t l = 0; l < L; ++l) {
    const int pr = p.feats[l].padded_rows, pc = p.feats[l].padded_cols;
    p.fills[l].assign(static_cast<std::size_t>(pr) * pc, 0.0f);
    for (std::size_t i = 0; i < sample.fill[l].rows(); ++i)
      for (std::size_t j = 0; j < sample.fill[l].cols(); ++j)
        p.fills[l][i * static_cast<std::size_t>(pc) + j] =
            static_cast<float>(sample.fill[l](i, j));
    p.labels[l] = pad_replicate(sample.heights[l], pr, pc);
    // Targets: *centered* simulator heights (the surrogate regresses
    // topography), replicated into the padding so the border pixels see a
    // consistent regression target, in normalized units.
    double mean_h = 0.0;
    for (const double v : sample.heights[l]) mean_h += v;
    mean_h /= static_cast<double>(sample.heights[l].size());
    GridD centered = sample.heights[l];
    for (auto& v : centered) v -= mean_h;
    p.targets[l] = pad_replicate(centered, pr, pc);
    for (auto& v : p.targets[l]) v *= inv_scale;
  }
  return p;
}

/// One training step's worth of network work on a sample: the
/// teacher-forced pass (each layer's incoming topography comes from the
/// *simulator's* lower-layer heights, so early-training noise in one
/// layer's prediction does not corrupt the next layer's input), the
/// normalized-MSE loss summed over layers, and — top layer first, as the
/// autograd tape orders them — each layer's parameter adjoints, accumulated
/// into `d_params`.  Every float operation is the tape's, so the loss and
/// the adjoints are bitwise the reference trainer's
/// (tests/tape_oracle.hpp).  Returns the loss.
double train_sample(const SurrogateInference& infer, const SamplePlanes& p,
                    float height_scale, SurrogateRecord& record,
                    float* d_params) {
  const std::size_t L = p.feats.size();
  const std::size_t n = p.fills[0].size();
  const std::int64_t n64 = static_cast<std::int64_t>(n);
  std::vector<const float*> fill_ptrs, label_ptrs;
  for (std::size_t l = 0; l < L; ++l) {
    fill_ptrs.push_back(p.fills[l].data());
    label_ptrs.push_back(p.labels[l].data());
  }
  std::vector<std::vector<float>> heights;
  infer.predict_heights(p.feats, fill_ptrs, heights, &record, &label_ptrs);

  // loss = sum_l mean(((h_l / scale) - target_l)^2), then its adjoint:
  // d mean = 1 per layer, d sum = 1/n, d square = 2 (pred - target), and
  // the 1/scale of the normalization, each a zero-seeded accumulation.
  nn::Backend& be = nn::backend();
  const float inv_scale = 1.0f / height_scale;
  const float inv_n = 1.0f / static_cast<float>(n64);
  std::vector<float> diff(n), sq(n), d_heights(L * n);
  float loss = 0.0f;
  for (std::size_t l = 0; l < L; ++l) {
    be.unary_map(nn::UnaryKind::kMulScalar, inv_scale, heights[l].data(),
                 diff.data(), n64);
    be.binary_map(nn::BinaryKind::kSub, diff.data(), p.targets[l].data(),
                  diff.data(), n64);
    be.unary_map(nn::UnaryKind::kSquare, 0.0f, diff.data(), sq.data(), n64);
    loss = loss + static_cast<float>(be.reduce_sum(sq.data(), n64)) * inv_n;
    float* d_h = d_heights.data() + l * n;
    const float d_sum = 0.0f + 1.0f * inv_n;
    for (std::size_t i = 0; i < n; ++i) {
      const float d_sq = 0.0f + d_sum;
      const float d_diff = 0.0f + d_sq * (2.0f * diff[i]);
      const float d_pred = 0.0f + d_diff * 1.0f;
      d_h[i] = 0.0f + d_pred * inv_scale;
    }
  }
  for (std::size_t l = L; l-- > 0;)
    infer.layer_vjp(l, record, d_heights.data() + l * n, nullptr, nullptr,
                    d_params);
  return static_cast<double>(loss);
}

/// Adam [Kingma & Ba 2015] with bias correction on the flat parameter
/// buffer; the moments are laid out like the parameter set.
struct Adam {
  static constexpr float kBeta1 = 0.9f;
  static constexpr float kBeta2 = 0.999f;
  static constexpr float kEps = 1e-8f;

  std::int64_t t = 0;
  std::vector<float> m, v;

  explicit Adam(std::size_t n) : m(n, 0.0f), v(n, 0.0f) {}

  void step(float* params, const float* d_params, float lr) {
    ++t;
    const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t));
    for (std::size_t k = 0; k < m.size(); ++k) {
      const float g = d_params[k];
      m[k] = kBeta1 * m[k] + (1.0f - kBeta1) * g;
      v[k] = kBeta2 * v[k] + (1.0f - kBeta2) * g * g;
      const double mhat = static_cast<double>(m[k]) / bc1;
      const double vhat = static_cast<double>(v[k]) / bc2;
      params[k] -= static_cast<float>(
          static_cast<double>(lr) * mhat /
          (std::sqrt(vhat) + static_cast<double>(kEps)));
    }
  }
};

constexpr std::uint32_t kTrainStateVersion = 1;

/// Writes `<prefix>.train`: the optimizer/shuffle/progress state that,
/// together with the `<prefix>` surrogate checkpoint, lets a later run
/// resume after the last completed epoch (docs/robustness.md).  Failures
/// are logged and swallowed — a missed checkpoint must not kill training.
void save_train_state(const std::string& prefix, const TrainOptions& options,
                      const TrainStats& stats, int epochs_done,
                      const nn::ParameterSet& params, const Adam& opt,
                      const Rng& shuffle_rng,
                      const std::vector<std::size_t>& order,
                      const FeatureConstants& fc) {
  CheckpointWriter w;
  ByteWriter meta;
  meta.u32(kTrainStateVersion);
  meta.u32(static_cast<std::uint32_t>(epochs_done));
  meta.i64(stats.samples_seen);
  meta.u32(static_cast<std::uint32_t>(std::max(options.dataset_size, 0)));
  meta.u64(options.seed);
  meta.f64(fc.height_offset);
  meta.f64(fc.height_scale);
  w.add_section("meta", meta.take());
  ByteWriter el;
  el.f64_vec(stats.epoch_loss);
  w.add_section("epoch_loss", el.take());
  // The moments persist one vector per parameter tensor, in set order.
  ByteWriter ad;
  ad.i64(opt.t);
  ad.u32(static_cast<std::uint32_t>(params.size()));
  for (const std::vector<float>* moment : {&opt.m, &opt.v})
    for (const nn::ParameterSpec& spec : params.specs()) {
      const float* first = moment->data() + spec.offset;
      ad.f32_vec(std::vector<float>(first, first + spec.numel));
    }
  w.add_section("adam", ad.take());
  ByteWriter rw;
  const Rng::State rs = shuffle_rng.state();
  for (int i = 0; i < 4; ++i) rw.u64(rs.s[i]);
  rw.u32(rs.has_cached_normal ? 1u : 0u);
  rw.f64(rs.cached_normal);
  w.add_section("rng", rw.take());
  // The epoch shuffle permutes `order` in place, so each epoch's order is
  // the composition of every shuffle before it.  The RNG state alone cannot
  // reproduce that from a fresh identity order — persist the array itself.
  ByteWriter ow;
  ow.u64(order.size());
  for (std::size_t idx : order) ow.u64(idx);
  w.add_section("order", ow.take());
  Expected<void> res = w.commit(prefix + ".train");
  if (!res.ok())
    LOG_WARN("training state checkpoint failed: %s",
             res.error().to_string().c_str());
}

/// Restores training state from `<prefix>.train` + `<prefix>.weights`.
/// Returns the epoch to start from (0 = fresh start).  Every failure mode
/// (missing file, CRC mismatch, option mismatch, layout drift) degrades to
/// a warning and a from-scratch run — resume is an optimization, never a
/// correctness gate.
int resume_train_state(const std::string& prefix, const TrainOptions& options,
                       CmpSurrogate& surrogate, Adam& opt,
                       Rng& shuffle_rng, std::vector<std::size_t>& order,
                       TrainStats& stats) {
  const std::string path = prefix + ".train";
  Expected<CheckpointReader> reader = CheckpointReader::open(path);
  if (!reader.ok()) {
    if (reader.error().code == ErrorCode::kNotFound)
      LOG_INFO("no training checkpoint at '%s', starting fresh", path.c_str());
    else
      LOG_WARN("ignoring training checkpoint: %s",
               reader.error().to_string().c_str());
    return 0;
  }
  for (const char* name : {"meta", "epoch_loss", "adam", "rng", "order"}) {
    if (!reader->has_section(name)) {
      LOG_WARN("training checkpoint '%s' missing section '%s', starting fresh",
               path.c_str(), name);
      return 0;
    }
  }
  ByteReader meta(**reader->section("meta"));
  const std::uint32_t version = meta.u32();
  const int epochs_done = static_cast<int>(meta.u32());
  const std::int64_t samples_seen = meta.i64();
  const int dataset_size = static_cast<int>(meta.u32());
  const std::uint64_t seed = meta.u64();
  const double height_offset = meta.f64();
  const double height_scale = meta.f64();
  if (!meta.ok() || !meta.at_end() || version != kTrainStateVersion) {
    LOG_WARN("training checkpoint '%s' has incompatible meta, starting fresh",
             path.c_str());
    return 0;
  }
  if (dataset_size != options.dataset_size || seed != options.seed) {
    LOG_WARN(
        "training checkpoint '%s' was written with dataset_size=%d seed=%llu "
        "(current: %d/%llu), starting fresh",
        path.c_str(), dataset_size, static_cast<unsigned long long>(seed),
        options.dataset_size, static_cast<unsigned long long>(options.seed));
    return 0;
  }
  ByteReader el(**reader->section("epoch_loss"));
  std::vector<double> epoch_loss = el.f64_vec();
  const nn::ParameterSet& params = surrogate.parameters();
  ByteReader ad(**reader->section("adam"));
  Adam st(params.numel());
  st.t = ad.i64();
  bool adam_valid = ad.u32() == params.size();
  for (std::vector<float>* moment : {&st.m, &st.v})
    for (const nn::ParameterSpec& spec : params.specs()) {
      if (!adam_valid) break;
      const std::vector<float> tensor = ad.f32_vec();
      adam_valid = tensor.size() == spec.numel;
      if (adam_valid)
        std::copy(tensor.begin(), tensor.end(),
                  moment->begin() + static_cast<std::ptrdiff_t>(spec.offset));
    }
  ByteReader rw(**reader->section("rng"));
  Rng::State rs;
  for (int i = 0; i < 4; ++i) rs.s[i] = rw.u64();
  rs.has_cached_normal = rw.u32() != 0;
  rs.cached_normal = rw.f64();
  ByteReader ow(**reader->section("order"));
  const std::uint64_t order_n = ow.u64();
  std::vector<std::size_t> saved_order;
  bool order_valid = order_n == order.size();
  if (order_valid) {
    saved_order.reserve(order.size());
    for (std::uint64_t i = 0; i < order_n; ++i) {
      const std::uint64_t idx = ow.u64();
      if (idx >= order_n) order_valid = false;
      saved_order.push_back(static_cast<std::size_t>(idx));
    }
  }
  if (!el.ok() || !ad.ok() || !ad.at_end() || !rw.ok() || !rw.at_end() ||
      !ow.ok() || !ow.at_end() || !order_valid ||
      epoch_loss.size() != static_cast<std::size_t>(epochs_done)) {
    LOG_WARN("training checkpoint '%s' has malformed sections, starting fresh",
             path.c_str());
    return 0;
  }
  if (!adam_valid) {
    LOG_WARN(
        "training checkpoint '%s' optimizer state does not match the model, "
        "starting fresh",
        path.c_str());
    return 0;
  }
  Expected<void> weights =
      nn::load_parameters(surrogate.parameters(), prefix + ".weights");
  if (!weights.ok()) {
    LOG_WARN("cannot restore surrogate weights for resume (%s), starting fresh",
             weights.error().to_string().c_str());
    return 0;
  }
  opt = std::move(st);
  shuffle_rng.set_state(rs);
  order = std::move(saved_order);
  auto& fc = surrogate.mutable_config().features;
  fc.height_offset = height_offset;
  fc.height_scale = height_scale;
  stats.epoch_loss = std::move(epoch_loss);
  stats.samples_seen = static_cast<int>(samples_seen);
  LOG_INFO("resuming training from '%s' after %d completed epoch(s)",
           path.c_str(), epochs_done);
  return epochs_done;
}

}  // namespace

TrainStats train_surrogate(CmpSurrogate& surrogate,
                           TrainingDataGenerator& datagen,
                           const TrainOptions& options) {
  NF_TRACE_SPAN("train.run");
  TrainStats stats;

  // Calibrate the height normalization from a few samples so the regression
  // target is O(1).
  {
    std::vector<double> values;
    const std::vector<TrainingSample> calib = datagen.generate_batch(
        static_cast<std::size_t>(std::max(options.calibration_samples, 0)),
        options.grid_rows, options.grid_cols);
    for (const TrainingSample& s : calib) {
      for (const auto& h : s.heights) {
        double mean_h = 0.0;
        for (const double v : h) mean_h += v;
        mean_h /= static_cast<double>(h.size());
        for (const double v : h) values.push_back(v - mean_h);
      }
    }
    const Summary sum = summarize(values);
    auto& fc = surrogate.mutable_config().features;
    fc.height_offset = 0.0;  // the surrogate predicts centered topography
    fc.height_scale = std::max(sum.stddev * 3.0, 10.0);
    LOG_INFO("surrogate calibration: offset=%.1fA scale=%.1fA", fc.height_offset,
             fc.height_scale);
  }

  // Optional fixed dataset (the paper's regime); otherwise pure online.
  // Batched so the CMP simulations labelling the samples run in parallel.
  std::vector<TrainingSample> dataset = datagen.generate_batch(
      static_cast<std::size_t>(std::max(options.dataset_size, 0)),
      options.grid_rows, options.grid_cols);
  Rng shuffle_rng(options.seed ^ 0x5EEDull);
  std::vector<std::size_t> order(dataset.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  nn::ParameterSet& params = surrogate.parameters();
  Adam opt(params.numel());
  std::vector<float> d_params(params.numel(), 0.0f);

  int start_epoch = 0;
  if (options.resume) {
    if (options.checkpoint_prefix.empty()) {
      LOG_WARN("resume requested without checkpoint_prefix, starting fresh");
    } else if (options.dataset_size <= 0) {
      // Online samples are consumed from the datagen stream, so a resumed
      // run cannot replay them; only the fixed-dataset regime is resumable.
      LOG_WARN("resume is only supported with dataset_size > 0, starting fresh");
    } else {
      start_epoch = resume_train_state(options.checkpoint_prefix, options,
                                       surrogate, opt, shuffle_rng, order,
                                       stats);
    }
  }
  stats.start_epoch = start_epoch;

  // The training session reads the weights in place (no prepacked panels),
  // so every Adam step is visible to the next pass; it is compiled on the
  // first sample, after calibration and resume have fixed the height
  // normalization it bakes in.
  nn::InferenceOptions session_options;
  session_options.prepack_weights = false;
  std::unique_ptr<SurrogateInference> infer;
  SurrogateRecord record;
  const auto adam_step = [&](float lr) {
    opt.step(params.data(), d_params.data(), lr);
    std::fill(d_params.begin(), d_params.end(), 0.0f);
  };

  bool stopped = false;
  for (int epoch = start_epoch; epoch < options.epochs && !stopped; ++epoch) {
    obs::SpanTimer epoch_timer("train.epoch");
    const float lr = options.learning_rate *
                     std::pow(options.lr_decay, static_cast<float>(epoch));
    if (!dataset.empty()) shuffle_rng.shuffle(order);
    double epoch_loss = 0.0;
    int in_batch = 0;
    const int steps = dataset.empty() ? options.samples_per_epoch
                                      : static_cast<int>(dataset.size());
    for (int i = 0; i < steps; ++i) {
      if (options.interrupt &&
          options.interrupt->load(std::memory_order_relaxed)) {
        stats.interrupted = true;
        stopped = true;
        break;
      }
      if (options.deadline.expired()) {
        stats.timed_out = true;
        stopped = true;
        break;
      }
      const TrainingSample sample =
          dataset.empty()
              ? datagen.generate(options.grid_rows, options.grid_cols)
              : dataset[order[static_cast<std::size_t>(i)]];
      {
        NF_TRACE_SPAN("train.sample");
        const SamplePlanes planes = sample_planes(surrogate, sample);
        const auto& fc = surrogate.config().features;
        if (!infer)
          infer = std::make_unique<SurrogateInference>(
              surrogate, planes.feats[0].padded_rows,
              planes.feats[0].padded_cols, session_options);
        epoch_loss += train_sample(*infer, planes,
                                   static_cast<float>(fc.height_scale), record,
                                   d_params.data());
      }
      ++stats.samples_seen;
      NF_COUNTER_ADD("train.samples", 1);
      if (++in_batch >= options.grad_accumulation) {
        adam_step(lr);
        in_batch = 0;
      }
    }
    // A partially run epoch is discarded: the checkpoint pair on disk still
    // describes the last *completed* epoch, which is what resume replays.
    if (stopped) break;
    if (in_batch > 0) adam_step(lr);
    epoch_loss /= static_cast<double>(std::max(steps, 1));
    stats.epoch_loss.push_back(epoch_loss);
    NF_COUNTER_ADD("train.epochs", 1);
    NF_GAUGE_SET("train.epoch_loss", epoch_loss);
    NF_GAUGE_SET("train.epoch_time_s", epoch_timer.stop_seconds());
    if (options.verbose)
      LOG_INFO("epoch %d/%d: loss=%.5f", epoch + 1, options.epochs, epoch_loss);
    if (!options.checkpoint_prefix.empty()) {
      Expected<void> saved = save_surrogate(surrogate, options.checkpoint_prefix);
      if (!saved.ok()) {
        LOG_WARN("surrogate checkpoint failed: %s",
                 saved.error().to_string().c_str());
      } else {
        save_train_state(options.checkpoint_prefix, options, stats, epoch + 1,
                         params, opt, shuffle_rng, order,
                         surrogate.config().features);
      }
    }
  }
  stats.final_loss = stats.epoch_loss.empty() ? 0.0 : stats.epoch_loss.back();
  return stats;
}

}  // namespace neurfill
