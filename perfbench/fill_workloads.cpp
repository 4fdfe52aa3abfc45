// The three fill workloads: fill_pkb and fill_mm (the monolithic nf_fill
// pipeline, one stage call at a time) and fullchip_tiled (the out-of-core
// tiled driver).  Every stage is timed from outside, around the module's
// public call.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "common.hpp"
#include "common/error.hpp"
#include "fill/neurfill.hpp"
#include "fullchip/driver.hpp"
#include "fullchip/tile_store.hpp"
#include "geom/glf_io.hpp"
#include "layout/window_grid.hpp"
#include "surrogate/infer.hpp"

namespace perfbench {

using namespace neurfill;

namespace {

constexpr int kMonolithicWindows = 24;
constexpr int kDieWindows = 24;
constexpr int kTileWindows = 6;
constexpr int kTileSnapshotEvery = 10;

std::string design_key(char which) {
  return std::string("design") + static_cast<char>(which - 'a' + 'A');
}

std::shared_ptr<const CmpSurrogate> load_or_throw(const std::string& prefix) {
  Expected<std::shared_ptr<CmpSurrogate>> s = load_surrogate(prefix);
  if (!s.ok()) throw ErrorException(s.error());
  return std::move(*s);
}

/// The set-up a user pays before the first fill: load the surrogate and
/// compile one network per distinct plane shape.  Repeated from a cold
/// session cache; records each repetition and returns the last surrogate.
/// Window extraction and coefficients are per-design pipeline stages, timed
/// in the rounds, so they are computed once outside the set-up timing.
std::shared_ptr<const CmpSurrogate> timed_setup(
    const Args& args, const std::vector<const Layout*>& shapes,
    JsonValue& result) {
  std::vector<std::pair<WindowExtraction, ScoreCoefficients>> planes;
  for (const Layout* layout : shapes) {
    WindowExtraction ext = extract_windows(*layout);
    const CmpSimulator sim;
    ScoreCoefficients coeffs = make_coefficients(*layout, ext, sim);
    planes.emplace_back(std::move(ext), std::move(coeffs));
  }
  std::vector<double> setup, load, compile;
  std::shared_ptr<const CmpSurrogate> surrogate;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    clear_surrogate_inference_cache();
    const auto t0 = Clock::now();
    surrogate = load_or_throw(args.surrogate);
    const double t_load = seconds_since(t0);
    const auto t1 = Clock::now();
    for (const auto& [ext, coeffs] : planes) {
      const CmpNetwork network(surrogate, ext, coeffs);
    }
    compile.push_back(seconds_since(t1));
    load.push_back(t_load);
    setup.push_back(seconds_since(t0));
  }
  result.object["setup_s"] = nums(setup);
  result.object["surrogate.load_s"] = nums(load);
  result.object["surrogate.compile_s"] = nums(compile);
  return surrogate;
}

/// One monolithic fill, GLF in to GLF out, each stage timed.
struct FillRun {
  JsonValue stages = obj();
  double wall_s = 0.0;
  std::size_t dummies = 0;
  long evaluations = 0;
  int iterations = 0;
  bool timed_out = false;
  bool degraded = false;
};

FillRun fill_once(const std::string& in_path, const std::string& out_path,
                  bool mm, const std::shared_ptr<const CmpSurrogate>& s) {
  FillRun r;
  auto t = Clock::now();
  auto lap = [&](const char* stage) {
    const double dt = seconds_since(t);
    r.stages.object[stage] = num(dt);
    r.wall_s += dt;
    t = Clock::now();
  };
  Layout layout = read_glf_file(in_path);
  lap("geom.read_s");
  const WindowExtraction ext = extract_windows(layout);
  lap("layout.extract_s");
  const CmpSimulator sim;
  const ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
  lap("cmp.coefficients_s");
  // Network construction is a session-cache hit after set-up, so it is
  // timed with calibration.
  FillProblem problem(ext, sim, coeffs);
  CmpNetwork network(s, ext, coeffs);
  calibrate_network(network, problem);
  lap("fill.calibrate_s");
  const FillRunResult res =
      mm ? neurfill_mm(problem, network) : neurfill_pkb(problem, network);
  lap("fill.solve_s");
  r.dummies = insert_dummies(layout, ext, res.x);
  lap("layout.insert_s");
  write_glf_file(out_path, layout);
  lap("geom.write_s");
  r.evaluations = res.objective_evaluations;
  r.iterations = res.iterations;
  r.timed_out = res.timed_out;
  r.degraded = res.degraded;
  return r;
}

/// Checks one output and returns the first problem found ("" when fine).
/// The first output of a key gets the full check and sets the key's
/// S_qual; later ones must match its digest bit for bit.
std::string check_round_output(const Input& in, const std::string& out_path,
                               std::size_t dummies, DigestBook& book,
                               JsonValue& s_qual) {
  if (!book.seen(in.key)) {
    const OutputCheck c = check_output(in.layout, out_path, dummies);
    if (!c.ok) return c.error;
    book.agree(in.key, c.digest);
    s_qual.object[in.key] = num(c.s_qual);
    return "";
  }
  if (!book.agree(in.key, file_digest(out_path)))
    return out_path + ": digest differs from the first round";
  return "";
}

/// Runs `round` once untimed, then phase by phase (see Phase), and stores
/// the timed rounds, the phase summaries and, for the traced phase, the obs
/// record.  Each round reports "jobs_s", the wall time of each fill it
/// made.  The untimed round's outputs are checked like all others; only its
/// times, which carry first-use costs, are left out.
void run_rounds(const Args& args, JsonValue& result,
                const std::function<JsonValue()>& round) {
  (void)round();
  JsonValue rounds = arr();
  JsonValue phases = arr();
  TraceRecorder trace;
  for (const Phase& phase : phases_for(args)) {
    if (phase.traced) trace.start();
    const IoCounters io0 = read_io();
    const auto t_phase = Clock::now();
    int n = 0;
    double jobs = 0.0;
    Clock::time_point t_round;
    do {
      if (phase.traced && n > 0) trace.next_round();
      t_round = Clock::now();
      JsonValue r = round();
      r.object["traced"] = neurfill::serve::json_bool(phase.traced);
      jobs += static_cast<double>(r.object["jobs_s"].array.size());
      rounds.array.push_back(std::move(r));
      ++n;
    } while (another_round(t_phase, t_round, phase.budget_s));
    phases.array.push_back(phase_json(phase, t_phase, io0, jobs));
    if (phase.traced)
      result.object["obs"] = trace.finish(args.work + "/trace.json", n);
  }
  result.object["rounds"] = std::move(rounds);
  result.object["phases"] = std::move(phases);
}

void run_fill(const Args& args, const std::string& designs, bool mm,
              JsonValue& result) {
  std::uint64_t state = args.seed;
  std::vector<Input> inputs;
  for (char which : designs)
    inputs.push_back(make_input(args.work, design_key(which), which,
                                kMonolithicWindows, state));
  result.object["inputs"] = input_sizes(inputs);

  // Every design shares one plane shape, so one compile covers them all.
  const std::shared_ptr<const CmpSurrogate> surrogate =
      timed_setup(args, {&inputs.front().layout}, result);

  OpLedger ops;
  DigestBook book;
  JsonValue s_qual = obj();
  run_rounds(args, result, [&] {
    JsonValue round = obj();
    JsonValue jobs = arr();
    JsonValue stages = obj();
    double wall = 0.0, evaluations = 0.0, iterations = 0.0;
    for (const Input& in : inputs) {
      ops.attempt();
      const std::string out = args.work + "/" + in.key + "_filled.glf";
      try {
        const FillRun r = fill_once(in.path, out, mm, surrogate);
        wall += r.wall_s;
        jobs.array.push_back(num(r.wall_s));
        for (const auto& [k, v] : r.stages.object)
          stages.object[k] = num(stages.object[k].number + v.number);
        evaluations += static_cast<double>(r.evaluations);
        iterations += r.iterations;
        if (r.timed_out || r.degraded)
          ops.fail(in.key + ": fill timed out or degraded", false);
        else if (const std::string e = check_round_output(
                     in, out, r.dummies, book, s_qual);
                 !e.empty())
          ops.fail(e, true);
      } catch (const std::exception& e) {
        ops.fail(in.key + ": " + e.what(), false);
      }
    }
    round.object["wall_s"] = num(wall);
    round.object["jobs_s"] = std::move(jobs);
    round.object["stages"] = std::move(stages);
    round.object["fill.evaluations"] = num(evaluations);
    round.object["fill.iterations"] = num(iterations);
    return round;
  });
  result.object["s_qual"] = std::move(s_qual);
  result.object["digests"] = book.to_json();
  result.object["ops"] = ops.to_json();
}

/// Seam after every executed pass, recomputed from the tile store with the
/// definition of docs/fullchip.md: the worst disagreement between a tile's
/// halo-fringe values and the owning tile's committed core values.
std::vector<double> seams_by_pass(const fullchip::TileGrid& grid,
                                  const fullchip::TileStore& store,
                                  int passes, std::size_t layers) {
  std::vector<double> seams;
  for (int pass = 0; pass <= passes; ++pass) {
    std::vector<std::vector<GridD>> x(grid.num_tiles());
    std::vector<GridD> committed(
        layers, GridD(grid.chip_rows(), grid.chip_cols(), 0.0));
    for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
      const fullchip::TileRegion tile = grid.tile_by_index(t);
      Expected<fullchip::TileRecord> rec = store.load_tile(
          pass, tile.ti, tile.tj, tile.halo_rows(), tile.halo_cols(), layers);
      if (!rec.ok()) return seams;
      x[t] = std::move(rec->x);
      for (std::size_t l = 0; l < layers; ++l)
        for (std::size_t i = tile.core_row0; i < tile.core_row1; ++i)
          for (std::size_t j = tile.core_col0; j < tile.core_col1; ++j)
            committed[l](i, j) =
                x[t][l](i - tile.halo_row0, j - tile.halo_col0);
    }
    double seam = 0.0;
    for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
      const fullchip::TileRegion tile = grid.tile_by_index(t);
      for (std::size_t l = 0; l < layers; ++l)
        for (std::size_t i = tile.halo_row0; i < tile.halo_row1; ++i)
          for (std::size_t j = tile.halo_col0; j < tile.halo_col1; ++j)
            if (tile.in_halo_fringe(i, j))
              seam = std::max(seam, std::abs(x[t][l](i - tile.halo_row0,
                                                     j - tile.halo_col0) -
                                             committed[l](i, j)));
    }
    seams.push_back(seam);
  }
  return seams;
}

}  // namespace

void run_fill_pkb(const Args& args, JsonValue& result) {
  run_fill(args, "abc", false, result);
}

void run_fill_mm(const Args& args, JsonValue& result) {
  run_fill(args, "b", true, result);
}

void run_fullchip_tiled(const Args& args, JsonValue& result) {
  std::uint64_t state = args.seed;
  const Input die =
      make_input(args.work, design_key('a'), 'a', kDieWindows, state);
  result.object["inputs"] = input_sizes({die});

  fullchip::FullChipOptions fopt;
  fopt.method = "pkb";
  fopt.tile_windows = kTileWindows;
  fopt.store_dir = args.work + "/tiles";
  // A tile solve takes a fraction of a second and its tile record is the
  // durable checkpoint, so mid-solve snapshots (nf_fill --snapshot-every)
  // are thinned out: at the default of one per SQP iteration the fsync
  // waits, which swing with the host's disk load, were up to a third of a
  // round.
  fopt.fill.snapshot_every = kTileSnapshotEvery;
  const std::string prefix = args.surrogate;
  fopt.surrogate_factory = [prefix] { return load_or_throw(prefix); };

  // Set-up compiles one network per distinct halo-tile shape (edge tiles
  // are clipped), which is every shape the tile solves will run.
  const int halo = fullchip::auto_halo_windows(fopt.process.char_length_um,
                                               kWindowUm);
  const fullchip::TileGrid grid(kDieWindows, kDieWindows, kTileWindows, halo,
                                kWindowUm);
  std::vector<Layout> tile_layouts;
  {
    const GlfRegionIndex index =
        GlfRegionIndex::build(die.path, 4.0 * kWindowUm);
    std::set<std::pair<std::size_t, std::size_t>> shapes;
    for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
      const fullchip::TileRegion tile = grid.tile_by_index(t);
      if (shapes.insert({tile.halo_rows(), tile.halo_cols()}).second)
        tile_layouts.push_back(
            fullchip::load_tile_layout(index, tile, kWindowUm));
    }
  }
  std::vector<const Layout*> shapes;
  for (const Layout& l : tile_layouts) shapes.push_back(&l);
  (void)timed_setup(args, shapes, result);

  OpLedger ops;
  DigestBook book;
  JsonValue s_qual = obj();
  JsonValue seams = arr();
  const std::string out = args.work + "/die_filled.glf";
  run_rounds(args, result, [&] {
    ops.attempt();
    JsonValue round = obj();
    round.object["jobs_s"] = arr();
    try {
      auto t = Clock::now();
      const GlfRegionIndex index =
          GlfRegionIndex::build(die.path, 4.0 * kWindowUm);
      const double index_s = seconds_since(t);
      t = Clock::now();
      const fullchip::FullChipResult r = fullchip::fullchip_fill(index, fopt);
      const double fill_s = seconds_since(t);
      t = Clock::now();
      const std::size_t dummies =
          fullchip::write_fullchip_result(index, out, r, kWindowUm);
      const double write_s = seconds_since(t);

      JsonValue stages = obj();
      stages.object["geom.index_s"] = num(index_s);
      stages.object["fullchip.fill_s"] = num(fill_s);
      stages.object["geom.write_s"] = num(write_s);
      round.object["stages"] = std::move(stages);
      round.object["wall_s"] = num(index_s + fill_s + write_s);
      round.object["jobs_s"] = nums({index_s + fill_s + write_s});
      round.object["fill.evaluations"] =
          num(static_cast<double>(r.evaluations));
      round.object["fullchip.tiles_solved"] =
          num(static_cast<double>(r.tiles_solved));
      round.object["fullchip.tile_seconds"] = num(r.tile_seconds);
      round.object["fullchip.runtime_s"] = num(r.runtime_s);
      round.object["fullchip.stitch_passes"] = num(r.stitch_passes);
      if (seams.array.empty()) {
        const fullchip::TileStore store(fopt.store_dir);
        seams = nums(seams_by_pass(grid, store, r.stitch_passes,
                                   die.layout.num_layers()));
      }
      if (r.timed_out || r.degraded)
        ops.fail(die.key + ": fill timed out or degraded", false);
      else if (const std::string e = check_round_output(
                   die, out, dummies, book, s_qual);
               !e.empty())
        ops.fail(e, true);
    } catch (const std::exception& e) {
      ops.fail(die.key + ": " + e.what(), false);
    }
    return round;
  });
  result.object["seams"] = std::move(seams);
  result.object["s_qual"] = std::move(s_qual);
  result.object["digests"] = book.to_json();
  result.object["ops"] = ops.to_json();
}

}  // namespace perfbench
