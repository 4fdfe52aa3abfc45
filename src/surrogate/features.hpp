#pragma once

#include <vector>

#include "common/grid2d.hpp"
#include "layout/window_grid.hpp"

namespace neurfill {

/// Static (fill-independent) per-layer feature planes plus the constants of
/// the differentiable extraction layer (Fig. 4's first stage, evaluated by
/// SurrogateInference).  The CMP neural network input L has kInChannels
/// channels per layer:
///   0: total pattern density (wire + dummy + fill)        [fill-dependent]
///   1: normalized perimeter density                       [fill-dependent]
///   2: normalized mean feature width                      [fill-dependent]
///   3: incoming topography, normalized                    [chained]
///   4: fillable slack                                     [static]
///   5: global mean density, broadcast                     [fill-dependent]
///   6: nominal pressure plane (process knob)              [static]
/// Channel 5 exists because the pad's load balance couples every window to
/// the chip-mean density — a global effect a local convolutional receptive
/// field cannot otherwise see.
struct FeatureConstants {
  static constexpr int kInChannels = 7;

  double window_um = 100.0;
  double dummy_edge_um = 10.0;    ///< dummy tile edge used by insertion
  double perimeter_norm = 1.0;    ///< divides raw perimeter (um) per window
  double width_ref_um = 40.0;     ///< width channel: w / (w + width_ref)
  double height_scale = 750.0;    ///< Angstrom; normalizes heights
  double height_offset = 0.0;     ///< Angstrom; subtracted before scaling
};

/// Fill-independent planes for one layer, stored as flat row-major floats of
/// the padded network size.
struct StaticLayerFeatures {
  int rows = 0, cols = 0;          ///< original grid
  int padded_rows = 0, padded_cols = 0;
  std::vector<float> wire_density;   ///< rho (wires + pre-existing dummies)
  std::vector<float> perimeter;      ///< normalized
  std::vector<float> width_blend_num;///< rho * w/(w+ref) numerator constant
  std::vector<float> slack;
};

/// Precomputes the static planes for every layer, padded (edge-replicated)
/// to dimensions divisible by `divisor` (the UNet's 2^depth requirement).
std::vector<StaticLayerFeatures> build_static_features(
    const WindowExtraction& ext, const FeatureConstants& consts, int divisor);

/// Pads a grid to (pr, pc) with edge replication and returns the flat data.
std::vector<float> pad_replicate(const GridD& g, int pr, int pc);

}  // namespace neurfill
