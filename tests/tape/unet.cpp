#include "tape/unet.hpp"

#include <stdexcept>

namespace neurfill::nn {

UNet::UNet(const UNetConfig& config, Rng& rng) : config_(config) {
  if (config.depth < 1 || config.base_channels < 1)
    throw std::invalid_argument("UNet: bad config");
  int ch = config.base_channels;
  int in = config.in_channels;
  for (int d = 0; d < config.depth; ++d) {
    enc_.push_back(std::make_shared<DoubleConv>(in, ch, rng, config.use_group_norm));
    register_module("enc" + std::to_string(d), enc_.back());
    in = ch;
    ch *= 2;
  }
  bottleneck_ = std::make_shared<DoubleConv>(in, ch, rng, config.use_group_norm);
  register_module("bottleneck", bottleneck_);
  // Decoder: from the bottleneck back up.  Stage d consumes `ch` channels,
  // upsamples and reduces to ch/2, concatenates the skip (ch/2) and fuses.
  for (int d = config.depth - 1; d >= 0; --d) {
    const int skip_ch = config.base_channels << d;
    up_.push_back(std::make_shared<Conv2d>(2 * skip_ch, skip_ch, 3, 1, 1, rng));
    register_module("up" + std::to_string(d), up_.back());
    dec_.push_back(std::make_shared<DoubleConv>(2 * skip_ch, skip_ch, rng,
                                               config.use_group_norm));
    register_module("dec" + std::to_string(d), dec_.back());
  }
  head_ = std::make_shared<Conv2d>(config.base_channels, config.out_channels,
                                   1, 1, 0, rng);
  register_module("head", head_);
  // Damp the output head so the untrained network starts near zero (the
  // normalized regression target's mean); removes the large initial loss
  // transient that otherwise dominates the first epochs.
  for (auto& [name, t] : head_->named_parameters())
    for (std::int64_t i = 0; i < t.numel(); ++i) t.data()[i] *= 0.1f;
}

Tensor UNet::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != config_.in_channels)
    throw std::invalid_argument("UNet::forward: bad input shape");
  const int div = 1 << config_.depth;
  if (x.dim(2) % div != 0 || x.dim(3) % div != 0)
    throw std::invalid_argument(
        "UNet::forward: H and W must be divisible by 2^depth");

  std::vector<Tensor> skips;
  Tensor h = x;
  for (auto& enc : enc_) {
    h = enc->forward(h);
    skips.push_back(h);
    h = maxpool2x2(h);
  }
  h = bottleneck_->forward(h);
  for (std::size_t i = 0; i < dec_.size(); ++i) {
    h = up_[i]->forward(upsample_nearest2x(h));
    const Tensor& skip = skips[skips.size() - 1 - i];
    h = dec_[i]->forward(concat_channels(skip, h));
  }
  return head_->forward(h);
}

}  // namespace neurfill::nn
