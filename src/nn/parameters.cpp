#include "nn/parameters.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/checkpoint.hpp"

namespace neurfill::nn {

int norm_groups(int channels) {
  for (int g = 8; g >= 2; --g)
    if (channels % g == 0) return g;
  return 1;
}

std::size_t ParameterSet::add(std::string name, std::vector<int> shape) {
  ParameterSpec spec;
  spec.name = std::move(name);
  spec.numel = 1;
  for (const int d : shape) {
    if (d <= 0) throw std::invalid_argument("ParameterSet: bad dimension");
    spec.numel *= static_cast<std::size_t>(d);
  }
  spec.shape = std::move(shape);
  spec.offset = values_.size();
  values_.resize(values_.size() + spec.numel, 0.0f);
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

std::size_t ParameterSet::find(const std::string& name) const {
  for (std::size_t i = 0; i < specs_.size(); ++i)
    if (specs_[i].name == name) return i;
  return specs_.size();
}

namespace {

/// A k x k conv's weight and bias, He-normal weights drawn from `rng`.
void add_conv(ParameterSet& p, const std::string& name, int in_channels,
              int out_channels, int kernel, Rng& rng) {
  const std::size_t w = p.add(name + ".weight",
                              {out_channels, in_channels, kernel, kernel});
  p.add(name + ".bias", {out_channels});
  // He-normal: std = sqrt(2 / fan_in) suits the following ReLU.
  const double stddev =
      std::sqrt(2.0 / (static_cast<double>(in_channels) * kernel * kernel));
  float* data = p.data(w);
  for (std::size_t i = 0; i < p.spec(w).numel; ++i)
    data[i] = static_cast<float>(rng.normal(0.0, stddev));
}

/// conv3x3 [-> GroupNorm] -> ReLU, twice: the standard UNet block.
void add_double_conv(ParameterSet& p, const std::string& name,
                     int in_channels, int out_channels, bool group_norm,
                     Rng& rng) {
  add_conv(p, name + ".conv1", in_channels, out_channels, 3, rng);
  add_conv(p, name + ".conv2", out_channels, out_channels, 3, rng);
  if (!group_norm) return;
  for (const char* norm : {".norm1", ".norm2"}) {
    const std::size_t gamma = p.add(name + norm + ".gamma", {out_channels});
    p.add(name + norm + ".beta", {out_channels});
    for (int c = 0; c < out_channels; ++c) p.data(gamma)[c] = 1.0f;
  }
}

}  // namespace

ParameterSet make_unet_parameters(const UNetConfig& config, Rng& rng) {
  if (config.depth < 1 || config.base_channels < 1 || config.in_channels < 1 ||
      config.out_channels < 1)
    throw std::invalid_argument("UNet: bad config");
  ParameterSet p;
  int ch = config.base_channels;
  int in = config.in_channels;
  for (int d = 0; d < config.depth; ++d) {
    add_double_conv(p, "enc" + std::to_string(d), in, ch,
                    config.use_group_norm, rng);
    in = ch;
    ch *= 2;
  }
  add_double_conv(p, "bottleneck", in, ch, config.use_group_norm, rng);
  // Decoder: stage d upsamples, halves the channels to the skip's width,
  // concatenates the skip and fuses.
  for (int d = config.depth - 1; d >= 0; --d) {
    const int skip_ch = config.base_channels << d;
    add_conv(p, "up" + std::to_string(d), 2 * skip_ch, skip_ch, 3, rng);
    add_double_conv(p, "dec" + std::to_string(d), 2 * skip_ch, skip_ch,
                    config.use_group_norm, rng);
  }
  const std::size_t head = p.size();
  add_conv(p, "head", config.base_channels, config.out_channels, 1, rng);
  // Damp the output head so the untrained network starts near zero;
  // removes the large initial loss transient that otherwise dominates the
  // first epochs.
  for (std::size_t i = head; i < p.size(); ++i)
    for (std::size_t k = 0; k < p.spec(i).numel; ++k) p.data(i)[k] *= 0.1f;
  return p;
}

namespace {

Error format_error(const std::string& path, const std::string& what) {
  return Error(ErrorCode::kCorrupt, "nn.serialize", "'" + path + "': " + what);
}

}  // namespace

[[nodiscard]] Expected<void> save_parameters(const ParameterSet& params,
                                             const std::string& path) {
  CheckpointWriter writer;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const ParameterSpec& spec = params.spec(i);
    ByteWriter payload;
    payload.u32(static_cast<std::uint32_t>(spec.shape.size()));
    for (const int d : spec.shape) payload.u32(static_cast<std::uint32_t>(d));
    payload.raw(params.data(i), spec.numel * sizeof(float));
    writer.add_section(spec.name, payload.take());
  }
  return writer.commit(path);
}

[[nodiscard]] Expected<void> load_parameters(ParameterSet& params,
                                             const std::string& path) {
  Expected<CheckpointReader> reader = CheckpointReader::open(path);
  if (!reader.ok()) return reader.error();
  const std::vector<std::string>& sections = reader->section_names();
  if (sections.size() != params.size())
    return format_error(path, "parameter count mismatch: file has " +
                                  std::to_string(sections.size()) +
                                  " sections, module has " +
                                  std::to_string(params.size()) +
                                  " parameters");
  for (std::size_t i = 0; i < params.size(); ++i) {
    const ParameterSpec& spec = params.spec(i);
    if (sections[i] != spec.name)
      return format_error(path, "parameter name mismatch at index " +
                                    std::to_string(i) + ": file section '" +
                                    sections[i] + "', module parameter '" +
                                    spec.name + "'");
    const std::vector<char>& payload = **reader->section(spec.name);
    ByteReader r(payload);
    const std::uint32_t ndim = r.u32();
    std::vector<int> dims(ndim);
    for (auto& d : dims) d = static_cast<int>(r.u32());
    if (!r.ok() || dims != spec.shape)
      return format_error(path,
                          "shape mismatch for parameter '" + spec.name + "'");
    if (!r.raw(params.data(i), spec.numel * sizeof(float)) || !r.at_end())
      return format_error(
          path, "payload size mismatch for parameter '" + spec.name + "'");
  }
  return Expected<void>();
}

}  // namespace neurfill::nn
