// Tests for the tensor/autograd core (tests/tape), modules, Adam, and the
// flat parameter set's checkpoints.

#include <cstdio>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/parameters.hpp"
#include "tape/module.hpp"
#include "tape/ops.hpp"
#include "tape/optim.hpp"
#include "tape/unet.hpp"

#include "gradcheck_util.hpp"

namespace neurfill::nn {
namespace {

using testing::random_tensor;

TEST(Tensor, FactoriesAndItem) {
  EXPECT_EQ(Tensor::zeros({2, 3}).numel(), 6);
  EXPECT_FLOAT_EQ(Tensor::ones({2}).data()[1], 1.0f);
  EXPECT_FLOAT_EQ(Tensor::full({3}, 2.5f).data()[2], 2.5f);
  EXPECT_FLOAT_EQ(Tensor::scalar(4.0f).item(), 4.0f);
  EXPECT_THROW(Tensor::ones({2}).item(), std::logic_error);
  EXPECT_THROW(Tensor({0, 2}), std::invalid_argument);
  EXPECT_THROW(Tensor::from_data({2}, {1.0f}), std::invalid_argument);
}

TEST(Tensor, BackwardSimpleChain) {
  Tensor x = Tensor::from_data({3}, {1.0f, 2.0f, 3.0f}, true);
  Tensor y = sum(mul_scalar(square(x), 2.0f));  // y = 2*sum(x^2)
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 8.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 12.0f);
}

TEST(Tensor, GradAccumulatesAcrossBackwards) {
  Tensor x = Tensor::from_data({1}, {3.0f}, true);
  sum(square(x)).backward();
  sum(square(x)).backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);  // 2*3 twice
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Tensor, BackwardRequiresScalarRoot) {
  Tensor x = Tensor::ones({2}, true);
  Tensor y = mul_scalar(x, 2.0f);
  EXPECT_THROW(y.backward(), std::logic_error);
}

TEST(Tensor, DetachCutsTape) {
  Tensor x = Tensor::from_data({2}, {1.0f, 2.0f}, true);
  Tensor y = square(x).detach();
  EXPECT_FALSE(y.requires_grad());
  Tensor z = sum(mul(square(x), Tensor::from_data({2}, {1.0f, 1.0f})));
  z.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(Tensor, NoGradGraphWhenInputsDontRequire) {
  Tensor x = Tensor::ones({4});
  Tensor y = relu(x);
  EXPECT_FALSE(y.requires_grad());
}

TEST(Module, ParameterRegistryHierarchical) {
  Rng rng(1);
  DoubleConv block(3, 8, rng);
  const auto params = block.named_parameters();
  // 2 convs (w+b) + 2 norms (gamma+beta) = 8 parameters.
  EXPECT_EQ(params.size(), 8u);
  EXPECT_EQ(params[0].first, "conv1.weight");
  for (const auto& [name, t] : params) EXPECT_TRUE(t.requires_grad());
  EXPECT_GT(block.parameter_count(), 0);
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(2);
  Conv2d conv(2, 2, 3, 1, 1, rng);
  Tensor x = random_tensor({1, 2, 4, 4}, 3);
  sum(square(conv.forward(x))).backward();
  bool any_nonzero = false;
  for (auto t : conv.parameters())
    for (std::int64_t i = 0; i < t.numel(); ++i)
      if (t.grad()[i] != 0.0f) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
  conv.zero_grad();
  for (auto t : conv.parameters())
    for (std::int64_t i = 0; i < t.numel(); ++i)
      EXPECT_EQ(t.grad()[i], 0.0f);
}

TEST(UNet, OutputShapeMatchesInput) {
  Rng rng(4);
  UNetConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 1;
  cfg.base_channels = 4;
  cfg.depth = 2;
  UNet net(cfg, rng);
  Tensor x = random_tensor({2, 3, 16, 16}, 5);
  Tensor y = net.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 1, 16, 16}));
}

TEST(UNet, RejectsIndivisibleSize) {
  Rng rng(5);
  UNetConfig cfg;
  cfg.in_channels = 1;
  cfg.base_channels = 4;
  cfg.depth = 3;
  UNet net(cfg, rng);
  EXPECT_THROW(net.forward(random_tensor({1, 1, 12, 12}, 6)),
               std::invalid_argument);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  Tensor x = Tensor::zeros({4}, true);
  Tensor c = Tensor::from_data({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  Adam opt({x}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    mse_loss(x, c).backward();
    opt.step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x.data()[i], c.data()[i], 1e-2);
}

TEST(Optim, TinyNetFitsLinearFunction) {
  // One conv layer must be able to learn a fixed 3x3 blur.
  Rng rng(6);
  Conv2d target(1, 1, 3, 1, 1, rng);
  Conv2d learner(1, 1, 3, 1, 1, rng);
  Adam opt(learner.parameters(), 0.05f);
  float last_loss = 0.0f;
  for (int step = 0; step < 300; ++step) {
    Tensor x = random_tensor({4, 1, 8, 8}, 100 + static_cast<unsigned>(step));
    Tensor y = target.forward(x).detach();
    opt.zero_grad();
    Tensor loss = mse_loss(learner.forward(x), y);
    loss.backward();
    opt.step();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, 1e-3);
}

TEST(Serialize, RoundTripExact) {
  Rng rng(7);
  UNetConfig cfg;
  cfg.in_channels = 2;
  cfg.base_channels = 4;
  cfg.depth = 1;
  UNet a(cfg, rng);
  UNet b(cfg, rng);  // different weights (rng advanced)
  const std::string path =
      (std::filesystem::temp_directory_path() / "nf_ckpt_test.bin").string();
  ASSERT_TRUE(save_parameters(to_parameter_set(a), path).ok());
  ParameterSet loaded = to_parameter_set(b);
  ASSERT_TRUE(load_parameters(loaded, path).ok());
  const ParameterSet pa = to_parameter_set(a);
  ASSERT_EQ(loaded.numel(), pa.numel());
  EXPECT_EQ(std::memcmp(loaded.data(), pa.data(), pa.numel() * sizeof(float)),
            0);
  // Same input -> identical output.
  load_parameter_set(b, loaded);
  Tensor x = random_tensor({1, 2, 8, 8}, 8);
  Tensor ya = a.forward(x);
  Tensor yb = b.forward(x);
  for (std::int64_t k = 0; k < ya.numel(); ++k)
    EXPECT_EQ(ya.data()[k], yb.data()[k]);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsArchitectureMismatch) {
  Rng rng(9);
  UNetConfig small;
  small.in_channels = 2;
  small.base_channels = 4;
  small.depth = 1;
  UNetConfig big = small;
  big.base_channels = 8;
  const std::string path =
      (std::filesystem::temp_directory_path() / "nf_ckpt_bad.bin").string();
  ASSERT_TRUE(save_parameters(make_unet_parameters(small, rng), path).ok());
  ParameterSet b = make_unet_parameters(big, rng);
  const Expected<void> res = load_parameters(b, path);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, ErrorCode::kCorrupt);
  // The structured error names the offending file.
  EXPECT_NE(res.error().message.find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileIsStructuredError) {
  Rng rng(10);
  UNetConfig cfg;
  cfg.in_channels = 1;
  cfg.base_channels = 4;
  cfg.depth = 1;
  ParameterSet params = make_unet_parameters(cfg, rng);
  const Expected<void> res = load_parameters(params, "/nonexistent/path.bin");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, ErrorCode::kNotFound);
}

}  // namespace
}  // namespace neurfill::nn
