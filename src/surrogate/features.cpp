#include "surrogate/features.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>


namespace neurfill {

std::vector<float> pad_replicate(const GridD& g, int pr, int pc) {
  const int R = static_cast<int>(g.rows()), C = static_cast<int>(g.cols());
  if (pr < R || pc < C)
    throw std::invalid_argument("pad_replicate: target smaller than source");
  std::vector<float> out(static_cast<std::size_t>(pr) * pc);
  for (int i = 0; i < pr; ++i) {
    const int si = std::min(i, R - 1);
    for (int j = 0; j < pc; ++j) {
      const int sj = std::min(j, C - 1);
      out[static_cast<std::size_t>(i) * pc + j] =
          static_cast<float>(g(static_cast<std::size_t>(si),
                               static_cast<std::size_t>(sj)));
    }
  }
  return out;
}

std::vector<StaticLayerFeatures> build_static_features(
    const WindowExtraction& ext, const FeatureConstants& consts, int divisor) {
  if (divisor < 1)
    throw std::invalid_argument("build_static_features: bad divisor");
  const int R = static_cast<int>(ext.rows), C = static_cast<int>(ext.cols);
  const int pr = ((R + divisor - 1) / divisor) * divisor;
  const int pc = ((C + divisor - 1) / divisor) * divisor;

  std::vector<StaticLayerFeatures> out;
  out.reserve(ext.num_layers());
  for (const auto& layer : ext.layers) {
    StaticLayerFeatures f;
    f.rows = R;
    f.cols = C;
    f.padded_rows = pr;
    f.padded_cols = pc;
    f.wire_density = pad_replicate(layer.density(), pr, pc);

    GridD perim(layer.perimeter_um.rows(), layer.perimeter_um.cols());
    GridD wnum(perim.rows(), perim.cols());
    for (std::size_t k = 0; k < perim.size(); ++k) {
      perim[k] = layer.perimeter_um[k] / consts.perimeter_norm;
      const double w = layer.avg_width_um[k];
      const double rho = layer.wire_density[k] + layer.dummy_density[k];
      // Numerator of the width-blend: existing pattern's contribution.
      wnum[k] = rho * (w / (w + consts.width_ref_um));
    }
    f.perimeter = pad_replicate(perim, pr, pc);
    f.width_blend_num = pad_replicate(wnum, pr, pc);
    f.slack = pad_replicate(layer.slack, pr, pc);
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace neurfill
