// nf_simulate: run the full-chip CMP simulator on a GLF layout and emit the
// per-layer post-CMP height/dishing/erosion profiles as CSV.
//
// Run `nf_simulate --help` for the full flag list.
// CSV columns: layer,row,col,height_A,dishing_A,erosion_A,step_A
//
// `--surrogate PREFIX` swaps the physical simulator for the pre-trained
// neural surrogate (heights only; dishing/erosion/step columns are 0) —
// the fast way to sanity-check a trained artifact against a known layout.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "cmp/simulator.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "fill/metrics.hpp"
#include "fill/score_coeffs.hpp"
#include "geom/glf_io.hpp"
#include "layout/window_grid.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/cmp_network.hpp"

using namespace neurfill;

namespace {

/// Streams per-layer height grids as the standard CSV (the non-height
/// columns are zero when the producer does not model them).
void write_heights_csv(std::ostream& os, const std::vector<GridD>& heights) {
  os << "layer,row,col,height_A,dishing_A,erosion_A,step_A\n";
  for (std::size_t l = 0; l < heights.size(); ++l) {
    const GridD& h = heights[l];
    for (std::size_t i = 0; i < h.rows(); ++i)
      for (std::size_t j = 0; j < h.cols(); ++j)
        os << l << ',' << i << ',' << j << ',' << h(i, j) << ",0,0,0\n";
  }
}

int run_surrogate(const std::string& path, const std::string& out_path,
                  const ExtractOptions& eopt,
                  const std::string& surrogate_prefix) {
  const Layout layout = read_glf_file(path);
  const WindowExtraction ext = extract_windows(layout, eopt);
  Expected<std::shared_ptr<CmpSurrogate>> loaded =
      load_surrogate(surrogate_prefix);
  if (!loaded.ok()) throw ErrorException(loaded.error());
  const CmpNetwork network(std::move(*loaded), ext, ScoreCoefficients{});

  // Heights of the unfilled design (zero fill everywhere) — the surrogate
  // analogue of sim.simulate(ext, {}).
  const std::vector<GridD> zero_fill(ext.num_layers(),
                                     GridD(ext.rows, ext.cols, 0.0));
  const std::vector<GridD> heights = network.predict_heights(zero_fill);

  std::ofstream file;
  std::ostream* os = &std::cout;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    os = &file;
  }
  write_heights_csv(*os, heights);

  const PlanarityMetrics m = compute_planarity(heights);
  std::fprintf(stderr,
               "surrogate-predicted %zu layers, %zux%zu windows: dH=%.1fA "
               "sigma=%.1fA^2 sigma*=%.1fA outliers=%.2fA\n",
               heights.size(), ext.rows, ext.cols, m.delta_h, m.sigma,
               m.sigma_star, m.outliers);
  return 0;
}

int run(const std::string& path, const std::string& out_path,
        const ExtractOptions& eopt, const CmpProcessParams& params,
        double deadline_s) {
  const Layout layout = read_glf_file(path);
  const WindowExtraction ext = extract_windows(layout, eopt);
  CmpSimulator sim(params);
  if (deadline_s > 0.0) sim.set_deadline(Deadline::after_seconds(deadline_s));
  const auto results = sim.simulate(ext, {});

  std::ofstream file;
  std::ostream* os = &std::cout;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    os = &file;
  }
  *os << "layer,row,col,height_A,dishing_A,erosion_A,step_A\n";
  for (std::size_t l = 0; l < results.size(); ++l) {
    const auto& r = results[l];
    for (std::size_t i = 0; i < r.height.rows(); ++i)
      for (std::size_t j = 0; j < r.height.cols(); ++j)
        *os << l << ',' << i << ',' << j << ',' << r.height(i, j) << ','
            << r.dishing(i, j) << ',' << r.erosion(i, j) << ','
            << r.final_step(i, j) << '\n';
  }

  std::vector<GridD> heights;
  for (const auto& r : results) heights.push_back(r.height);
  const PlanarityMetrics m = compute_planarity(heights);
  std::fprintf(stderr,
               "simulated %zu layers, %zux%zu windows: dH=%.1fA "
               "sigma=%.1fA^2 sigma*=%.1fA outliers=%.2fA\n",
               results.size(), ext.rows, ext.cols, m.delta_h, m.sigma,
               m.sigma_star, m.outliers);
  const SimulatorHealth& health = sim.health();
  if (health.any_degraded())
    std::fprintf(stderr,
                 "[degraded] contact solves: %ld retried, %ld fell back, "
                 "%ld poisoned (docs/robustness.md)\n",
                 health.contact_retries.load(),
                 health.contact_degraded.load(),
                 health.contact_poisoned.load());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string out_path;
  std::string pressure_model = "asperity";
  std::string surrogate_prefix;
  double deadline_s = 0.0;
  ExtractOptions eopt;
  double window_um = eopt.window_um;
  CommonToolOptions common;

  ArgParser parser("nf_simulate",
                   "Full-chip CMP simulation of a GLF layout; emits per-layer "
                   "height/dishing/erosion profiles as CSV.");
  parser.add_positional("layout.glf", "input GLF layout", &path);
  parser.add_double("--window", "UM", "window edge in um (default 100)",
                    &window_um);
  parser.add_string("--out", "FILE", "write the CSV here instead of stdout",
                    &out_path);
  parser.add_choice("--pressure-model", {"asperity", "elastic"},
                    "pad pressure model (default asperity)", &pressure_model);
  parser.add_string("--surrogate", "PREFIX",
                    "predict heights with the pre-trained neural surrogate "
                    "at PREFIX instead of simulating (dishing/erosion/step "
                    "columns are 0)",
                    &surrogate_prefix);
  parser.add_double("--deadline-s", "SEC",
                    "wall-clock budget for the simulation; expiry is a "
                    "structured error, exit 1 (default: none)",
                    &deadline_s);
  add_common_options(parser, &common);
  switch (parser.parse(argc, argv, std::cout, std::cerr)) {
    case ArgParser::Result::kHelp:
      return 0;
    case ArgParser::Result::kError:
      return 2;
    case ArgParser::Result::kOk:
      break;
  }
  if (!apply_common_options(common, std::cerr)) return 2;
  eopt.window_um = window_um;
  CmpProcessParams params;
  params.window_um = window_um;
  params.pressure_model = pressure_model == "elastic"
                              ? PressureModel::kElastic
                              : PressureModel::kAsperity;
  std::fprintf(stderr, "nf_simulate: threads=%d\n", runtime::thread_count());

  int rc = 0;
  try {
    rc = surrogate_prefix.empty()
             ? run(path, out_path, eopt, params, deadline_s)
             : run_surrogate(path, out_path, eopt, surrogate_prefix);
  } catch (const ErrorException& e) {
    std::fprintf(stderr, "error: %s\n", e.err.to_string().c_str());
    rc = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!finish_common_options(common) && rc == 0) rc = 1;
  return rc;
}
