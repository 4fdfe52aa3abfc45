#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace neurfill::nn {

/// Configuration of the UNet surrogate (Fig. 4 of the paper).
struct UNetConfig {
  int in_channels = 6;    ///< layout-parameter matrix channels
  int out_channels = 1;   ///< post-CMP height profile
  int base_channels = 8;  ///< channels of the first encoder stage
  int depth = 3;          ///< number of down/up sampling stages
  /// Group normalization inside the conv blocks.  Off by default: for this
  /// smooth regression task the normalization's scale invariance slows
  /// convergence more than it stabilizes (measured in the ablation bench).
  bool use_group_norm = false;
};

/// Number of normalization groups of a `channels`-wide conv block: the
/// largest divisor not exceeding 8, so narrow layers keep meaningful group
/// statistics.
int norm_groups(int channels);

/// One named tensor of a ParameterSet and its place in the flat buffer.
struct ParameterSpec {
  std::string name;        ///< dotted module path, e.g. "enc0.conv1.weight"
  std::vector<int> shape;  ///< [O, C, k, k] for conv weights, [C] otherwise
  std::size_t offset = 0;  ///< first float in the flat buffer
  std::size_t numel = 0;
};

/// A network's weights as one flat float buffer of named, ordered tensors.
/// The order is the UNet module tree's (encoder stages, bottleneck, then
/// per decoder stage the post-upsample conv and the block, then the head;
/// within a block conv1, conv2, norm1, norm2, each weight before bias and
/// gamma before beta).  It is the checkpoint's section order, the order in
/// which initialization draws the RNG, and the layout of every flat
/// gradient and optimizer-moment buffer, so one offset addresses a tensor
/// in all of them.
class ParameterSet {
 public:
  /// Appends a zero-initialized tensor; returns its index.  Growing the set
  /// moves the buffer, so pointers into it are taken after it is built.
  std::size_t add(std::string name, std::vector<int> shape);

  std::size_t size() const { return specs_.size(); }
  const std::vector<ParameterSpec>& specs() const { return specs_; }
  const ParameterSpec& spec(std::size_t i) const { return specs_.at(i); }
  /// Index of the tensor called `name`, or size() when there is none.
  std::size_t find(const std::string& name) const;

  /// Total floats over every tensor.
  std::size_t numel() const { return values_.size(); }
  float* data() { return values_.data(); }
  const float* data() const { return values_.data(); }
  float* data(std::size_t i) { return values_.data() + spec(i).offset; }
  const float* data(std::size_t i) const {
    return values_.data() + spec(i).offset;
  }

 private:
  std::vector<ParameterSpec> specs_;
  std::vector<float> values_;
};

/// The UNet's parameters, initialized as the module constructors of the
/// reference network do: He-normal conv weights (std sqrt(2 / fan_in)) drawn
/// from `rng` in tree order, zero biases, unit gammas, zero betas, and the
/// 1x1 output head scaled by 0.1 so the untrained network starts near zero
/// (the normalized regression target's mean).  Input H/W of the network
/// must be divisible by 2^depth.
ParameterSet make_unet_parameters(const UNetConfig& config, Rng& rng);

/// Parameters persist as an NFCP checkpoint container
/// (common/checkpoint.hpp): one CRC32-checksummed section per tensor, named
/// by the tensor and in set order, with payload u32 ndim, u32 dims[ndim],
/// f32 data[numel] (little-endian).  Saving is atomic (write-to-temp +
/// rename), so a crash mid-save never leaves a torn weights file.
///
/// Loading matches strictly by name, order and shape.  Any failure —
/// missing file, truncation, checksum mismatch, architecture mismatch —
/// comes back as a structured nf::Error naming the file, the section, and
/// (for corruption) the expected vs. actual checksum; nothing throws and
/// nothing aborts.
[[nodiscard]] Expected<void> save_parameters(const ParameterSet& params,
                                             const std::string& path);
[[nodiscard]] Expected<void> load_parameters(ParameterSet& params,
                                             const std::string& path);

}  // namespace neurfill::nn
