// Tests for the surrogate package: feature extraction layer, CMP network
// forward/backward, training-data generation, trainer and checkpointing.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "common/checkpoint.hpp"
#include "common/rng.hpp"
#include "fill/problem.hpp"
#include "geom/designs.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/datagen.hpp"
#include "surrogate/eval.hpp"
#include "surrogate/trainer.hpp"
#include "tape_oracle.hpp"

namespace neurfill {
namespace {

CmpProcessParams fast_params() {
  CmpProcessParams p;
  p.polish_time_s = 10.0;
  p.dt_s = 1.0;
  return p;
}

SurrogateConfig tiny_config() {
  SurrogateConfig c;
  c.unet.base_channels = 4;
  c.unet.depth = 2;
  return c;
}

TEST(Features, PadReplicateEdges) {
  GridD g(2, 3, 0.0);
  g(0, 0) = 1.0;
  g(1, 2) = 5.0;
  const auto padded = pad_replicate(g, 4, 4);
  ASSERT_EQ(padded.size(), 16u);
  EXPECT_FLOAT_EQ(padded[0], 1.0f);
  // Column 3 replicates column 2; rows 2,3 replicate row 1.
  EXPECT_FLOAT_EQ(padded[1 * 4 + 3], 5.0f);
  EXPECT_FLOAT_EQ(padded[3 * 4 + 3], 5.0f);
  EXPECT_FLOAT_EQ(padded[3 * 4 + 0], static_cast<float>(g(1, 0)));
  EXPECT_THROW(pad_replicate(g, 1, 4), std::invalid_argument);
}

TEST(Features, CropRoundTrip) {
  GridD g(3, 3, 0.0);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) g(i, j) = static_cast<double>(i * 3 + j);
  const auto padded = pad_replicate(g, 4, 4);
  const nn::Tensor t = nn::Tensor::from_data({1, 1, 4, 4}, padded);
  const GridD back = oracle::crop_to_grid(t, 3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(back(i, j), g(i, j), 1e-6);
}

TEST(Features, StaticPlanesPaddedToDivisor) {
  const Layout layout = make_design_a(1000.0, 2, 2);
  const WindowExtraction ext = extract_windows(layout);
  FeatureConstants fc;
  const auto feats = build_static_features(ext, fc, 4);
  ASSERT_EQ(feats.size(), 2u);
  EXPECT_EQ(feats[0].rows, 10);
  EXPECT_EQ(feats[0].padded_rows, 12);  // next multiple of 4
  EXPECT_EQ(feats[0].wire_density.size(), 12u * 12u);
}

TEST(Features, AssembleLayerInputChannels) {
  const Layout layout = make_design('b', 8, 100.0, 2);
  const WindowExtraction ext = extract_windows(layout);
  FeatureConstants fc;
  const auto feats = build_static_features(ext, fc, 4);
  const int pr = feats[0].padded_rows, pc = feats[0].padded_cols;
  const nn::Tensor fill = nn::Tensor::zeros({1, 1, pr, pc});
  const nn::Tensor incoming = nn::Tensor::zeros({1, 1, pr, pc});
  const nn::Tensor in =
      oracle::assemble_layer_input(feats[0], fc, fill, incoming);
  EXPECT_EQ(in.shape(),
            (std::vector<int>{1, FeatureConstants::kInChannels, pr, pc}));
  // Channel 0 equals the static density when fill is zero.
  for (int k = 0; k < pr * pc; ++k)
    EXPECT_FLOAT_EQ(in.data()[k], feats[0].wire_density[static_cast<std::size_t>(k)]);
  // Last channel is the constant pressure plane.
  const std::int64_t off =
      static_cast<std::int64_t>(FeatureConstants::kInChannels - 1) * pr * pc;
  EXPECT_FLOAT_EQ(in.data()[off], 1.0f);
}

TEST(Features, FillRaisesDensityChannel) {
  const Layout layout = make_design('b', 8, 100.0, 2);
  const WindowExtraction ext = extract_windows(layout);
  FeatureConstants fc;
  const auto feats = build_static_features(ext, fc, 4);
  const int pr = feats[0].padded_rows, pc = feats[0].padded_cols;
  nn::Tensor fill = nn::Tensor::zeros({1, 1, pr, pc});
  fill.data()[5] = 0.2f;
  const nn::Tensor in = oracle::assemble_layer_input(
      feats[0], fc, fill, nn::Tensor::zeros({1, 1, pr, pc}));
  EXPECT_NEAR(in.data()[5], feats[0].wire_density[5] + 0.2f, 1e-6);
}

TEST(CmpNetworkTest, EvaluateShapesAndDeterminism) {
  const Layout layout = make_design('a', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  auto surrogate = std::make_shared<CmpSurrogate>(tiny_config(), 1);
  ScoreCoefficients coeffs;
  coeffs.beta_sigma = 1000.0;
  coeffs.beta_sigma_star = 1e5;
  coeffs.beta_ol = 100.0;
  CmpNetwork net(surrogate, ext, coeffs);
  std::vector<GridD> x(3, GridD(8, 8, 0.0));
  const auto e1 = net.evaluate(x, false);
  const auto e2 = net.evaluate(x, false);
  EXPECT_EQ(e1.s_plan, e2.s_plan);
  ASSERT_EQ(e1.heights.size(), 3u);
  EXPECT_EQ(e1.heights[0].rows(), 8u);
  EXPECT_TRUE(e1.grad.empty());
  const auto e3 = net.evaluate(x, true);
  ASSERT_EQ(e3.grad.size(), 3u);
  EXPECT_EQ(e3.grad[0].rows(), 8u);
}

TEST(CmpNetworkTest, GradientMatchesFiniteDifference) {
  // The headline property: backward propagation through extraction layer +
  // UNet + objective layers equals the numerical gradient of S_plan.
  const Layout layout = make_design_a(800.0, 2, 3);
  const WindowExtraction ext = extract_windows(layout);
  auto surrogate = std::make_shared<CmpSurrogate>(tiny_config(), 3);
  ScoreCoefficients coeffs;
  coeffs.beta_sigma = 5e4;
  coeffs.beta_sigma_star = 5e5;
  coeffs.beta_ol = 5e3;
  CmpNetwork net(surrogate, ext, coeffs);

  std::vector<GridD> x(2, GridD(8, 8, 0.0));
  for (std::size_t l = 0; l < 2; ++l)
    for (std::size_t k = 0; k < 64; ++k)
      x[l][k] = 0.3 * ext.layers[l].slack[k];
  const auto base = net.evaluate(x, true);

  // A randomly initialized ReLU UNet is piecewise linear, so per-coordinate
  // finite differences land on kinks; the robust property is the
  // *directional* derivative along random directions, which averages the
  // kink noise out.
  // eps trades kink error (shrinks with eps) against float32 cancellation
  // (grows as eps -> 0); 5e-4 sits in the convergence window (verified by an
  // eps sweep: numeric crosses the analytic value there).
  Rng rng(99);
  const double eps = 5e-4;
  double rel_err_sum = 0.0;
  const int trials = 6;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<GridD> dir(2, GridD(8, 8, 0.0));
    double analytic_dd = 0.0;
    for (std::size_t l = 0; l < 2; ++l)
      for (std::size_t k = 0; k < 64; ++k) {
        dir[l][k] = rng.uniform(-1.0, 1.0);
        analytic_dd += base.grad[l][k] * dir[l][k];
      }
    std::vector<GridD> xp = x, xm = x;
    for (std::size_t l = 0; l < 2; ++l)
      for (std::size_t k = 0; k < 64; ++k) {
        xp[l][k] += eps * dir[l][k];
        xm[l][k] -= eps * dir[l][k];
      }
    const double numeric_dd =
        (net.evaluate(xp, false).s_plan - net.evaluate(xm, false).s_plan) /
        (2.0 * eps);
    // Individual directions can straddle kinks; the aggregate relative error
    // over several random directions is the trustworthy statistic.
    rel_err_sum += std::fabs(analytic_dd - numeric_dd) /
                   std::max({std::fabs(numeric_dd), std::fabs(analytic_dd),
                             1e-2});
    // Sign must always agree (a wrong-sign gradient would break SQP).
    EXPECT_GT(analytic_dd * numeric_dd, 0.0) << "direction trial " << trial;
  }
  EXPECT_LT(rel_err_sum / trials, 0.3);
}

TEST(Datagen, SampleShapesAndFeasibility) {
  const Layout a = make_design('a', 16, 100.0, 3);
  const Layout b = make_design('b', 16, 100.0, 3);
  std::vector<WindowExtraction> sources{extract_windows(a), extract_windows(b)};
  TrainingDataGenerator gen(std::move(sources), CmpSimulator(fast_params()), 5,
                            4);
  const TrainingSample s = gen.generate(8, 12);
  EXPECT_EQ(s.ext.rows, 8u);
  EXPECT_EQ(s.ext.cols, 12u);
  ASSERT_EQ(s.fill.size(), 3u);
  ASSERT_EQ(s.heights.size(), 3u);
  for (std::size_t l = 0; l < 3; ++l)
    for (std::size_t k = 0; k < s.fill[l].size(); ++k) {
      EXPECT_GE(s.fill[l][k], 0.0);
      EXPECT_LE(s.fill[l][k], s.ext.layers[l].slack[k] + 1e-12);
    }
}

TEST(Datagen, DeterministicForSeed) {
  const Layout a = make_design('a', 16, 100.0, 3);
  std::vector<WindowExtraction> s1{extract_windows(a)};
  std::vector<WindowExtraction> s2{extract_windows(a)};
  TrainingDataGenerator g1(std::move(s1), CmpSimulator(fast_params()), 9, 4);
  TrainingDataGenerator g2(std::move(s2), CmpSimulator(fast_params()), 9, 4);
  const TrainingSample x1 = g1.generate(8, 8);
  const TrainingSample x2 = g2.generate(8, 8);
  EXPECT_EQ(x1.ext.layers[0].wire_density, x2.ext.layers[0].wire_density);
  EXPECT_EQ(x1.fill[1], x2.fill[1]);
  EXPECT_EQ(x1.heights[2], x2.heights[2]);
}

TEST(Datagen, RejectsBadConfig) {
  EXPECT_THROW(TrainingDataGenerator({}, CmpSimulator(fast_params()), 1),
               std::invalid_argument);
  const Layout a = make_design_a(800.0, 2, 1);
  const Layout b3 = make_design_b(800.0, 3, 1);
  std::vector<WindowExtraction> mixed{extract_windows(a),
                                      extract_windows(b3)};
  EXPECT_THROW(
      TrainingDataGenerator(std::move(mixed), CmpSimulator(fast_params()), 1),
      std::invalid_argument);
}

TEST(Trainer, LossDecreases) {
  const Layout a = make_design('a', 16, 100.0, 3);
  TrainingDataGenerator gen({extract_windows(a)}, CmpSimulator(fast_params()),
                            11, 4);
  CmpSurrogate surrogate(tiny_config(), 7);
  TrainOptions opt;
  opt.epochs = 3;
  opt.samples_per_epoch = 12;
  opt.grid_rows = opt.grid_cols = 16;
  opt.learning_rate = 3e-3f;
  opt.seed = 2;
  const TrainStats stats = train_surrogate(surrogate, gen, opt);
  ASSERT_EQ(stats.epoch_loss.size(), 3u);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
  EXPECT_EQ(stats.samples_seen, 36);
}

// A run interrupted after epoch 2 and resumed must land on exactly the same
// weights as an uninterrupted run: the `.train` checkpoint carries the Adam
// moments, the shuffle-RNG state, and the in-place-permuted sample order
// (the RNG state alone cannot reproduce the composed shuffles).
TEST(Trainer, ResumeMatchesUninterruptedBitwise) {
  const Layout a = make_design('a', 16, 100.0, 3);
  TrainOptions opt;
  opt.dataset_size = 6;
  opt.grid_rows = opt.grid_cols = 16;
  opt.learning_rate = 3e-3f;
  opt.calibration_samples = 2;
  opt.seed = 2;
  const std::string full = ::testing::TempDir() + "nf_train_full";
  const std::string part = ::testing::TempDir() + "nf_train_part";
  const auto run = [&](const std::string& prefix, int epochs, bool resume) {
    TrainingDataGenerator gen({extract_windows(a)},
                              CmpSimulator(fast_params()), 11, 4);
    CmpSurrogate surrogate(tiny_config(), 7);
    opt.epochs = epochs;
    opt.checkpoint_prefix = prefix;
    opt.resume = resume;
    return train_surrogate(surrogate, gen, opt);
  };
  run(full, 4, false);                              // uninterrupted reference
  run(part, 2, false);                              // "interrupted" after 2
  const TrainStats resumed = run(part, 4, true);    // resume to 4
  EXPECT_EQ(resumed.start_epoch, 2);
  const auto slurp = [](const std::string& p) {
    std::ifstream f(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  };
  const std::string ref = slurp(full + ".weights");
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(ref, slurp(part + ".weights"));
  EXPECT_EQ(slurp(full + ".train"), slurp(part + ".train"));
  for (const char* ext : {".weights", ".meta", ".train"}) {
    std::remove((full + ext).c_str());
    std::remove((part + ext).c_str());
  }
}

::testing::AssertionResult floats_bitwise_equal(const float* a, const float* b,
                                                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

TEST(CmpSurrogateTest, InitialWeightsMatchTapeUNet) {
  // The flat parameter set draws the RNG in the module tree's order (the
  // 0.1 head damping included), names and orders its tensors as the tape
  // UNet's named_parameters(), with and without group norm.
  for (const bool gn : {true, false}) {
    SurrogateConfig cfg = tiny_config();
    cfg.unet.use_group_norm = gn;
    const CmpSurrogate s(cfg, 7);
    Rng rng(7);
    const nn::UNet net(cfg.unet, rng);
    const nn::ParameterSet tape = nn::to_parameter_set(net);
    ASSERT_EQ(s.parameters().size(), tape.size());
    for (std::size_t i = 0; i < tape.size(); ++i) {
      EXPECT_EQ(s.parameters().spec(i).name, tape.spec(i).name);
      EXPECT_EQ(s.parameters().spec(i).shape, tape.spec(i).shape);
    }
    ASSERT_EQ(s.parameters().numel(), tape.numel());
    EXPECT_TRUE(floats_bitwise_equal(s.parameters().data(), tape.data(),
                                     tape.numel()));
  }
}

TEST(Trainer, StepMatchesTapeBitwise) {
  // Several Adam steps with group norm on, two samples per step and a
  // partial step at the end of each epoch: the session trainer (one
  // teacher-forced pass and one reverse pass with parameter adjoints per
  // sample, Adam on the flat buffers) must land on the tape trainer's
  // weights and moments bitwise, at 1 and 4 threads.
  const Layout a = make_design('a', 16, 100.0, 3);
  TrainOptions opt;
  opt.dataset_size = 5;
  opt.epochs = 2;
  opt.grad_accumulation = 2;
  opt.grid_rows = opt.grid_cols = 16;
  opt.learning_rate = 3e-3f;
  opt.calibration_samples = 2;
  opt.seed = 2;
  const SurrogateConfig cfg = tiny_config();
  ASSERT_TRUE(cfg.unet.use_group_norm);

  CmpSurrogate reference(cfg, 7);
  nn::UNet net = oracle::tape_unet(reference);
  TrainingDataGenerator tape_gen({extract_windows(a)},
                                 CmpSimulator(fast_params()), 11, 4);
  const nn::Adam::State tape_state =
      oracle::tape_train(reference, net, tape_gen, opt);
  const nn::ParameterSet tape_weights = nn::to_parameter_set(net);

  const std::string prefix = ::testing::TempDir() + "nf_train_vs_tape";
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    TrainingDataGenerator gen({extract_windows(a)},
                              CmpSimulator(fast_params()), 11, 4);
    CmpSurrogate surrogate(cfg, 7);
    TrainOptions run = opt;
    run.checkpoint_prefix = prefix;
    train_surrogate(surrogate, gen, run);
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    EXPECT_EQ(surrogate.config().features.height_scale,
              reference.config().features.height_scale);
    EXPECT_TRUE(floats_bitwise_equal(surrogate.parameters().data(),
                                     tape_weights.data(),
                                     tape_weights.numel()));
    // The moments, as the `.train` checkpoint stores them: one vector per
    // parameter tensor, first moments then second.
    Expected<CheckpointReader> reader =
        CheckpointReader::open(prefix + ".train");
    ASSERT_TRUE(reader.ok());
    ByteReader ad(**reader->section("adam"));
    EXPECT_EQ(ad.i64(), tape_state.t);
    ASSERT_EQ(ad.u32(), tape_state.m.size());
    for (const auto* moments : {&tape_state.m, &tape_state.v})
      for (const std::vector<float>& ref : *moments) {
        const std::vector<float> got = ad.f32_vec();
        ASSERT_EQ(got.size(), ref.size());
        EXPECT_TRUE(floats_bitwise_equal(got.data(), ref.data(), ref.size()));
      }
    EXPECT_TRUE(ad.ok() && ad.at_end());
    for (const char* ext : {".weights", ".meta", ".train"})
      std::remove((prefix + ext).c_str());
  }
  runtime::set_thread_count(0);
}

TEST(SurrogateIo, CommittedWeightsResaveByteIdentical) {
  // The flat parameter set keeps the NFCP weights format: section names,
  // order, shapes and payloads of the committed artifact survive a
  // load/save round trip byte for byte.
  const std::string committed = NF_REPO_ROOT "/data/unet_cmp";
  auto loaded = load_surrogate(committed);
  ASSERT_TRUE(loaded.ok()) << "missing data/unet_cmp.{meta,weights}";
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "nf_resave_test").string();
  ASSERT_TRUE(save_surrogate(**loaded, prefix).ok());
  const auto slurp = [](const std::string& p) {
    std::ifstream f(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  };
  const std::string ref = slurp(committed + ".weights");
  ASSERT_FALSE(ref.empty());
  EXPECT_TRUE(ref == slurp(prefix + ".weights"));
  std::remove((prefix + ".meta").c_str());
  std::remove((prefix + ".weights").c_str());
}

TEST(SurrogateIo, SaveLoadRoundTrip) {
  CmpSurrogate s(tiny_config(), 13);
  s.mutable_config().features.height_offset = 123.5;
  s.mutable_config().features.height_scale = 456.25;
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "nf_surrogate_test").string();
  ASSERT_TRUE(save_surrogate(s, prefix).ok());
  auto loaded_res = load_surrogate(prefix);
  ASSERT_TRUE(loaded_res.ok());
  const std::shared_ptr<CmpSurrogate> loaded = *loaded_res;
  EXPECT_EQ(loaded->config().features.height_offset, 123.5);
  EXPECT_EQ(loaded->config().features.height_scale, 456.25);
  EXPECT_EQ(loaded->config().unet.base_channels, 4);
  // Identical forward behaviour.
  const Layout layout = make_design_a(800.0, 2, 1);
  const WindowExtraction ext = extract_windows(layout);
  ScoreCoefficients c;
  c.beta_sigma = c.beta_sigma_star = c.beta_ol = 1e6;
  CmpNetwork n1(std::make_shared<CmpSurrogate>(std::move(s)), ext, c);
  CmpNetwork n2(loaded, ext, c);
  const std::vector<GridD> x(2, GridD(8, 8, 0.05));
  EXPECT_EQ(n1.evaluate(x, false).s_plan, n2.evaluate(x, false).s_plan);
  std::remove((prefix + ".meta").c_str());
  std::remove((prefix + ".weights").c_str());
}

TEST(SurrogateIo, MetaNumbersRoundTripAtFullPrecision) {
  // A trained height_scale carries 17 significant digits; the reloaded
  // surrogate must hold exactly the saved values, not a 6-digit rounding.
  CmpSurrogate s(tiny_config(), 14);
  SurrogateConfig& c = s.mutable_config();
  c.features.height_scale = 207.24483490863716;
  c.features.height_offset = -0.1234567890123456789;
  c.features.window_um = 100.0 / 3.0;
  c.topo_transfer = 0.8 + 1e-13;
  c.outlier_eta = 1.0 / 7.0;
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "nf_surrogate_meta_test")
          .string();
  ASSERT_TRUE(save_surrogate(s, prefix).ok());
  auto loaded = load_surrogate(prefix);
  ASSERT_TRUE(loaded.ok());
  const SurrogateConfig& r = (*loaded)->config();
  EXPECT_EQ(r.features.height_scale, c.features.height_scale);
  EXPECT_EQ(r.features.height_offset, c.features.height_offset);
  EXPECT_EQ(r.features.window_um, c.features.window_um);
  EXPECT_EQ(r.topo_transfer, c.topo_transfer);
  EXPECT_EQ(r.outlier_eta, c.outlier_eta);
  std::remove((prefix + ".meta").c_str());
  std::remove((prefix + ".weights").c_str());
}

TEST(SurrogateEval, ReportFieldsConsistent) {
  const Layout a = make_design_a(1600.0, 2, 17);
  TrainingDataGenerator gen({extract_windows(a)}, CmpSimulator(fast_params()),
                            17, 4);
  SurrogateConfig cfg = tiny_config();
  CmpSurrogate surrogate(cfg, 23);
  const AccuracyReport rep =
      evaluate_surrogate_accuracy(surrogate, gen, 3, 8, 8);
  EXPECT_EQ(rep.samples, 3);
  EXPECT_GE(rep.mean_rel_error, 0.0);
  EXPECT_GE(rep.max_window_rel_error, rep.mean_rel_error * 0.5);
  EXPECT_GE(rep.frac_windows_below, 0.0);
  EXPECT_LE(rep.frac_windows_below, 1.0);
  EXPECT_EQ(rep.histogram.total(), 64u);
}

}  // namespace
}  // namespace neurfill
