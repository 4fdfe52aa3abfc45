#pragma once

#include "nn/parameters.hpp"
#include "tape/module.hpp"

namespace neurfill::nn {

/// UNet [Ronneberger 2015]: an encoder path that halves resolution and
/// doubles channels per stage, a bottleneck, and a decoder path of
/// nearest-neighbour upsampling + conv with skip concatenations.  Input H/W
/// must be divisible by 2^depth.  The autograd reference of the network
/// the engine compiles from nn::make_unet_parameters: the constructor draws
/// the same weights from the same RNG, and named_parameters() lists them in
/// the same order.
class UNet : public Module {
 public:
  UNet(const UNetConfig& config, Rng& rng);

  Tensor forward(const Tensor& x) override;

  const UNetConfig& config() const { return config_; }

 private:
  UNetConfig config_;
  std::vector<std::shared_ptr<DoubleConv>> enc_;
  std::shared_ptr<DoubleConv> bottleneck_;
  std::vector<std::shared_ptr<Conv2d>> up_;       ///< post-upsample 3x3 convs
  std::vector<std::shared_ptr<DoubleConv>> dec_;  ///< after skip concat
  std::shared_ptr<Conv2d> head_;                  ///< 1x1 output conv
};

}  // namespace neurfill::nn
