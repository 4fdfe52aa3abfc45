// nf_fill: model-based dummy filling of a GLF layout from the command line.
//
// Run `nf_fill --help` for the full flag list.  pkb/mm need a pre-trained
// surrogate (see examples/train_surrogate); with none available a reduced
// surrogate is trained on the fly.
//
// Robustness (docs/robustness.md): `--deadline-s` bounds the wall clock and
// returns the best feasible fill with a [timed-out] report flag;
// `--snapshot` checkpoints the optimization periodically and `--resume`
// continues a killed run to a bitwise-identical result; SIGINT/SIGTERM
// write a final snapshot and exit 128+signal (130/143).  Exit codes: 0
// success, 1 runtime/input failure (structured one-line error, no stack
// trace), 2 usage error.

#include <sys/stat.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "fill/neurfill.hpp"
#include "fill/report.hpp"
#include "fullchip/driver.hpp"
#include "geom/glf_io.hpp"
#include "layout/fill_insertion.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/trainer.hpp"

using namespace neurfill;

namespace {

std::atomic<bool> g_interrupt{false};
std::atomic<int> g_signal{0};
void handle_signal(int sig) {
  g_signal.store(sig);
  g_interrupt.store(true);
}

std::shared_ptr<CmpSurrogate> obtain_surrogate(const std::string& prefix,
                                               const WindowExtraction& ext,
                                               const CmpSimulator& sim) {
  Expected<std::shared_ptr<CmpSurrogate>> loaded = load_surrogate(prefix);
  if (loaded.ok()) return std::move(*loaded);
  // A *missing* artifact has the documented quick-train fallback; a present
  // but corrupt/unreadable one is a hard input error (exit 1, no trace).
  if (loaded.error().code != ErrorCode::kNotFound)
    throw ErrorException(loaded.error());
  std::fprintf(stderr,
               "nf_fill: no surrogate at '%s'; training a reduced one\n",
               prefix.c_str());
  SurrogateConfig cfg;
  cfg.unet.base_channels = 8;
  cfg.unet.depth = 2;
  auto s = std::make_shared<CmpSurrogate>(cfg, 5);
  TrainingDataGenerator gen({ext}, sim, 17, 4);
  TrainOptions opt;
  opt.epochs = 6;
  opt.dataset_size = 60;
  opt.grid_rows = ext.rows;
  opt.grid_cols = ext.cols;
  train_surrogate(*s, gen, opt);
  return s;
}

struct RunFlags {
  bool report = false;
  bool drc = false;
  double deadline_s = 0.0;  ///< 0 = no deadline
  std::string snapshot_path;
  int snapshot_every = 1;
  bool resume = false;
};

struct TiledFlags {
  bool tiled = false;
  int tile_windows = 16;
  int halo_windows = -1;  ///< negative = derive from planarization length
  double stitch_tol = 0.02;
  int stitch_passes = 2;
  std::string store_dir;  ///< empty = out.glf + ".tiles"
};

int run(const std::string& in_path, const std::string& out_path,
        const std::string& method, const std::string& surrogate_prefix,
        const ExtractOptions& eopt, const RunFlags& flags) {
  Layout layout = read_glf_file(in_path);
  const WindowExtraction ext = extract_windows(layout, eopt);
  CmpProcessParams params;
  params.window_um = eopt.window_um;
  CmpSimulator sim(params);
  const ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
  FillProblem problem(ext, sim, coeffs);

  const Deadline deadline = flags.deadline_s > 0.0
                                ? Deadline::after_seconds(flags.deadline_s)
                                : Deadline();

  FillRunResult result;
  if (method == "lin") {
    result = lin_rule_fill(problem);
  } else if (method == "tao") {
    TaoOptions topt;
    topt.sqp.deadline = deadline;
    result = tao_rule_sqp(problem, topt);
  } else if (method == "cai") {
    CaiOptions copt;
    copt.sqp.deadline = deadline;
    result = cai_model_fill(problem, copt);
  } else {  // pkb or mm: the parser only admits the five known methods
    auto surrogate = obtain_surrogate(surrogate_prefix, ext, sim);
    CmpNetwork network(surrogate, ext, coeffs);
    calibrate_network(network, problem);
    NeurFillOptions nopt;
    nopt.deadline = deadline;
    nopt.snapshot_path = flags.snapshot_path;
    nopt.snapshot_every = flags.snapshot_every;
    nopt.resume = flags.resume;
    nopt.interrupt = &g_interrupt;
    result = method == "pkb" ? neurfill_pkb(problem, network, nopt)
                             : neurfill_mm(problem, network, nopt);
  }

  const Layout original = layout;  // scoring must see the pre-fill design
  std::size_t dummies = 0;
  if (flags.drc) {
    const DrcInsertStats stats = insert_dummies_drc(layout, ext, result.x);
    dummies = stats.placed;
    std::fprintf(stderr,
                 "DRC insertion: realized %.0f of %.0f um^2 (%zu sites "
                 "blocked)\n",
                 stats.realized_um2, stats.requested_um2, stats.blocked_sites);
  } else {
    dummies = insert_dummies(layout, ext, result.x);
  }
  write_glf_file(out_path, layout);
  std::fprintf(stderr, "%s: inserted %zu dummies in %.1fs (%ld evaluations)%s%s\n",
               result.method.c_str(), dummies, result.runtime_s,
               result.objective_evaluations,
               result.timed_out ? " [timed-out]" : "",
               result.degraded ? " [degraded]" : "");
  if (flags.report) {
    const MethodReport rep = score_fill_result(problem, original, result);
    print_table3_header(std::cout);
    print_table3_row(std::cout, layout.name, rep);
  }
  return 0;
}

/// Resolves the surrogate the tile solves will load: the given prefix when
/// it exists, else a reduced surrogate quick-trained on tile (0,0)'s halo
/// region and saved inside the tile store, so every concurrent tile solve
/// can load its own instance from disk.
std::string prepare_tiled_surrogate(const std::string& prefix,
                                    const fullchip::FullChipOptions& fopt,
                                    const GlfRegionIndex& index) {
  Expected<std::shared_ptr<CmpSurrogate>> loaded = load_surrogate(prefix);
  if (loaded.ok()) return prefix;
  if (loaded.error().code != ErrorCode::kNotFound)
    throw ErrorException(loaded.error());

  const double w = fopt.extract.window_um;
  const std::size_t rows =
      static_cast<std::size_t>(std::ceil(index.height_um() / w));
  const std::size_t cols =
      static_cast<std::size_t>(std::ceil(index.width_um() / w));
  const int halo =
      fopt.halo_windows >= 0
          ? fopt.halo_windows
          : fullchip::auto_halo_windows(fopt.process.char_length_um, w);
  const fullchip::TileGrid grid(rows, cols, fopt.tile_windows, halo, w);
  const Layout local =
      fullchip::load_tile_layout(index, grid.tile(0, 0), w);
  const WindowExtraction ext = extract_windows(local, fopt.extract);
  CmpProcessParams params = fopt.process;
  params.window_um = w;
  const CmpSimulator sim(params);
  auto surrogate = obtain_surrogate(prefix, ext, sim);

  ::mkdir(fopt.store_dir.c_str(), 0755);  // store.open would create it later
  const std::string trained = fopt.store_dir + "/surrogate";
  Expected<void> saved = save_surrogate(*surrogate, trained);
  if (!saved.ok()) throw ErrorException(saved.error());
  return trained;
}

int run_tiled(const std::string& in_path, const std::string& out_path,
              const std::string& method, const std::string& surrogate_prefix,
              const ExtractOptions& eopt, const RunFlags& flags,
              const TiledFlags& tiled) {
  // Index, never parse: the full chip is only ever touched one tile region
  // at a time.  Buckets of a few windows keep region queries sharp without
  // inflating the index.
  const GlfRegionIndex index =
      GlfRegionIndex::build(in_path, 4.0 * eopt.window_um);

  fullchip::FullChipOptions fopt;
  fopt.method = method;
  fopt.extract = eopt;
  fopt.tile_windows = tiled.tile_windows;
  fopt.halo_windows = tiled.halo_windows;
  fopt.stitch_tol = tiled.stitch_tol;
  fopt.max_stitch_passes = tiled.stitch_passes;
  fopt.store_dir =
      tiled.store_dir.empty() ? out_path + ".tiles" : tiled.store_dir;
  fopt.resume = flags.resume;
  fopt.deadline = flags.deadline_s > 0.0
                      ? Deadline::after_seconds(flags.deadline_s)
                      : Deadline();
  fopt.interrupt = &g_interrupt;
  if (method == "pkb" || method == "mm") {
    const std::string prefix =
        prepare_tiled_surrogate(surrogate_prefix, fopt, index);
    fopt.surrogate_factory =
        [prefix]() -> std::shared_ptr<const CmpSurrogate> {
      Expected<std::shared_ptr<CmpSurrogate>> s = load_surrogate(prefix);
      if (!s.ok()) throw ErrorException(s.error());
      return std::move(*s);
    };
  }

  const fullchip::FullChipResult result = fullchip::fullchip_fill(index, fopt);
  const std::size_t dummies = fullchip::write_fullchip_result(
      index, out_path, result, eopt.window_um);
  std::fprintf(stderr,
               "%s-tiled: %zu tiles (%zu solved, %zu loaded), %d stitch "
               "pass(es), seam %.4f; inserted %zu dummies in %.1fs "
               "(%ld evaluations)%s%s\n",
               method.c_str(), result.tiles_total, result.tiles_solved,
               result.tiles_loaded, result.stitch_passes + 1,
               result.final_seam, dummies, result.runtime_s,
               result.evaluations, result.timed_out ? " [timed-out]" : "",
               result.degraded ? " [degraded]" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_path;
  std::string method = "pkb";
  std::string surrogate_prefix = "data/unet_cmp";
  RunFlags flags;
  TiledFlags tiled;
  ExtractOptions eopt;
  double window_um = eopt.window_um;
  CommonToolOptions common;

  ArgParser parser("nf_fill", "Model-based dummy filling of a GLF layout.");
  parser.add_positional("layout.glf", "input GLF layout", &in_path);
  parser.add_positional("out.glf", "output layout with dummies inserted",
                        &out_path);
  parser.add_choice("--method", {"lin", "tao", "cai", "pkb", "mm"},
                    "filling method (default pkb)", &method);
  parser.add_string("--surrogate", "PREFIX",
                    "surrogate weight prefix (default data/unet_cmp)",
                    &surrogate_prefix);
  parser.add_double("--window", "UM", "window edge in um (default 100)",
                    &window_um);
  parser.add_flag("--report", "print the Table-III score row for the result",
                  &flags.report);
  parser.add_flag("--drc", "insert dummies with design-rule checking",
                  &flags.drc);
  parser.add_double("--deadline-s", "SEC",
                    "wall-clock budget; expiry returns the best feasible "
                    "fill flagged [timed-out] (default: none)",
                    &flags.deadline_s);
  parser.add_string("--snapshot", "PATH",
                    "checkpoint the pkb/mm optimization state to PATH "
                    "(atomic, CRC-checksummed)",
                    &flags.snapshot_path);
  parser.add_int("--snapshot-every", "N",
                 "SQP iterations between mid-start snapshots (default 1)",
                 &flags.snapshot_every);
  parser.add_flag("--resume",
                  "continue from --snapshot PATH; the resumed run's fill is "
                  "bitwise identical to an uninterrupted one",
                  &flags.resume);
  parser.add_flag("--tiled",
                  "out-of-core full-chip mode: solve halo tiles through the "
                  "pool and stitch them (docs/fullchip.md)",
                  &tiled.tiled);
  parser.add_int("--tile-windows", "N",
                 "tile core edge in windows (default 16)",
                 &tiled.tile_windows);
  parser.add_int("--halo-windows", "H",
                 "halo ring width in windows (default: derived from the "
                 "planarization length)",
                 &tiled.halo_windows);
  parser.add_double("--stitch-tol", "T",
                    "stop stitching when the worst cross-tile seam falls "
                    "under T (default 0.02)",
                    &tiled.stitch_tol);
  parser.add_int("--stitch-passes", "N",
                 "max refinement passes after the initial tile pass "
                 "(default 2)",
                 &tiled.stitch_passes);
  parser.add_string("--tile-store", "DIR",
                    "spill directory for solved tiles (default: "
                    "out.glf + \".tiles\"); with --resume, completed tiles "
                    "are loaded instead of re-solved",
                    &tiled.store_dir);
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
  if (tiled.tiled) {
    if (method != "lin" && method != "pkb" && method != "mm") {
      std::fprintf(stderr,
                   "nf_fill: --tiled supports lin, pkb, mm (method '%s' "
                   "needs the monolithic path)\n",
                   method.c_str());
      return 2;
    }
    if (flags.report || flags.drc || !flags.snapshot_path.empty()) {
      std::fprintf(stderr,
                   "nf_fill: --tiled is incompatible with --report/--drc/"
                   "--snapshot (tile snapshots live in the tile store)\n");
      return 2;
    }
    if (tiled.tile_windows < 1 || tiled.stitch_passes < 0 ||
        !(tiled.stitch_tol > 0.0)) {
      std::fprintf(stderr,
                   "nf_fill: --tile-windows must be >= 1, --stitch-passes "
                   ">= 0, --stitch-tol > 0\n");
      return 2;
    }
  } else if (flags.resume && flags.snapshot_path.empty()) {
    std::fprintf(stderr, "nf_fill: --resume requires --snapshot PATH\n");
    return 2;
  }
  if (flags.snapshot_every < 1) {
    std::fprintf(stderr, "nf_fill: --snapshot-every must be >= 1\n");
    return 2;
  }
  if (!flags.snapshot_path.empty() && method != "pkb" && method != "mm")
    std::fprintf(stderr,
                 "nf_fill: note: --snapshot/--resume only apply to pkb/mm\n");
  eopt.window_um = window_um;
  // SIGTERM and SIGINT share one checkpoint-consistent handler: the solve
  // writes a final snapshot and the tool exits 128+signal (130 for SIGINT,
  // 143 for SIGTERM — docs/robustness.md).
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::fprintf(stderr, "nf_fill: method=%s threads=%d\n", method.c_str(),
               runtime::thread_count());

  int rc = 0;
  try {
    rc = tiled.tiled ? run_tiled(in_path, out_path, method, surrogate_prefix,
                                 eopt, flags, tiled)
                     : run(in_path, out_path, method, surrogate_prefix, eopt,
                           flags);
  } catch (const ErrorException& e) {
    if (e.err.code == ErrorCode::kInterrupted) {
      std::fprintf(stderr, "nf_fill: %s\n", e.err.message.c_str());
      const int sig = g_signal.load();
      rc = 128 + (sig > 0 ? sig : SIGINT);
    } else {
      std::fprintf(stderr, "error: %s\n", e.err.to_string().c_str());
      rc = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!finish_common_options(common) && rc == 0) rc = 1;
  return rc;
}
