#pragma once

// The fill flow of the paper's Fig. 7 in one place: set up the problem from
// a layout, obtain the CMP network's surrogate, and run one filling method.
// nf_fill, the nf_serve job runner and the full-chip tile solve are thin
// callers of these three steps; each keeps only its own policy (DRC
// insertion and reports, the surrogate cache and snapshot quarantine, pinned
// halos and tile snapshots).

#include <memory>
#include <string>

#include "cmp/simulator.hpp"
#include "common/error.hpp"
#include "fill/baselines.hpp"
#include "fill/neurfill.hpp"
#include "fill/problem.hpp"
#include "geom/layout.hpp"
#include "layout/window_grid.hpp"
#include "surrogate/cmp_network.hpp"

namespace neurfill {

/// Extracts the windows of `layout`, builds the reference simulator (its
/// window edge taken from `eopt`), derives the score coefficients and
/// returns the problem that bundles them.
FillProblem make_fill_problem(const Layout& layout, const ExtractOptions& eopt,
                              CmpProcessParams process);

/// Loads the surrogate at `prefix`.  When no surrogate exists there
/// (kNotFound) a reduced one is trained on `ext` with a fixed recipe and
/// fixed seeds, so every call re-derives the same weights; any other load
/// error (a corrupt or unreadable file) is returned, never trained around.
[[nodiscard]] Expected<std::shared_ptr<CmpSurrogate>> load_or_quick_train(
    const std::string& prefix, const WindowExtraction& ext,
    const CmpSimulator& sim);

/// True for the methods that run on the CMP network (pkb, mm).
bool fill_method_needs_surrogate(const std::string& method);

/// Runs one filling method on `problem`: lin, tao, cai, pkb or mm.
///  * `options.deadline` bounds tao, cai, pkb and mm (lin has no loop);
///  * `sqp_max_iterations` > 0 replaces the SQP iteration cap of tao, cai,
///    pkb and mm, 0 keeps each method's default;
///  * pkb and mm build a CmpNetwork over `surrogate` (non-null), calibrate
///    it and solve with `options` (budgets, snapshot/resume, interrupt).
/// Throws ErrorException(kInvalidArgument) for an unknown method or a
/// missing surrogate.
FillRunResult run_fill_method(
    const FillProblem& problem, const std::string& method,
    const std::shared_ptr<const CmpSurrogate>& surrogate,
    NeurFillOptions options, int sqp_max_iterations = 0);

}  // namespace neurfill
