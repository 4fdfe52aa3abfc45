#include "fill/neurfill.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.hpp"
#include "fill/snapshot.hpp"
#include "obs/trace.hpp"

namespace neurfill {

void calibrate_network(CmpNetwork& network, const FillProblem& problem) {
  const WindowExtraction& ext = problem.extraction();
  std::vector<GridD> zero(ext.num_layers(), GridD(ext.rows, ext.cols, 0.0));
  std::vector<GridD> full;
  full.reserve(ext.num_layers());
  for (const auto& l : ext.layers) full.push_back(l.slack);

  const CmpSimulator& sim = problem.simulator();
  const PlanarityMetrics t0 = compute_planarity(sim.simulate_heights(ext, zero));
  const PlanarityMetrics t1 = compute_planarity(sim.simulate_heights(ext, full));
  const CmpNetwork::Eval n0 = network.evaluate(zero, false);
  const CmpNetwork::Eval n1 = network.evaluate(full, false);

  // Log-space power fit through the two anchors: exp(a) * raw^b.  Falls
  // back to identity when an anchor is non-positive or the network shows no
  // usable (same-sign, non-degenerate) response between the anchors.
  const auto fit = [](double true0, double true1, double net0,
                      double net1) -> CmpNetwork::MetricCalibration {
    CmpNetwork::MetricCalibration c;
    const double eps = 1e-6;
    if (true0 <= eps || true1 <= eps || net0 <= eps || net1 <= eps) return c;
    const double dn = std::log(net0 + eps) - std::log(net1 + eps);
    const double dt = std::log(true0) - std::log(true1);
    if (std::fabs(dn) < 1e-9 || dt * dn <= 0.0) return c;
    c.b = std::clamp(dt / dn, 0.1, 10.0);
    c.a = std::log(true0) - c.b * std::log(net0 + eps);
    return c;
  };
  network.set_calibration(fit(t0.sigma, t1.sigma, n0.sigma, n1.sigma),
                          fit(t0.sigma_star, t1.sigma_star, n0.sigma_star,
                              n1.sigma_star),
                          fit(t0.outliers, t1.outliers, n0.outliers,
                              n1.outliers));
}

ObjectiveFn make_network_objective(const FillProblem& problem,
                                   const CmpNetwork& network,
                                   long* eval_counter) {
  return [&problem, &network, eval_counter](const VecD& v,
                                            VecD* grad) -> double {
    if (eval_counter) ++*eval_counter;
    const std::vector<GridD> x = problem.unflatten(v);
    const CmpNetwork::Eval net =
        network.evaluate(x, /*with_grad=*/grad != nullptr);
    const PdScore pd =
        pd_score_and_gradient(problem.extraction(), x, problem.coefficients());
    if (grad) {
      grad->assign(v.size(), 0.0);
      std::size_t k = 0;
      for (std::size_t l = 0; l < net.grad.size(); ++l)
        for (std::size_t w = 0; w < net.grad[l].size(); ++w, ++k)
          (*grad)[k] = -(net.grad[l][w] + pd.grad[l][w]);
    }
    return -(net.s_plan + pd.s_pd);
  };
}

BatchObjectiveFn make_network_batch_objective(const FillProblem& problem,
                                              const CmpNetwork& network,
                                              long* eval_counter) {
  return [&problem, &network,
          eval_counter](const std::vector<VecD>& vs) -> std::vector<double> {
    if (eval_counter) *eval_counter += static_cast<long>(vs.size());
    std::vector<std::vector<GridD>> xs;
    xs.reserve(vs.size());
    for (const VecD& v : vs) xs.push_back(problem.unflatten(v));
    const std::vector<CmpNetwork::Eval> nets = network.evaluate_batch(xs);
    std::vector<double> out(vs.size());
    for (std::size_t b = 0; b < vs.size(); ++b) {
      const PdScore pd = pd_score_and_gradient(problem.extraction(), xs[b],
                                               problem.coefficients());
      out[b] = -(nets[b].s_plan + pd.s_pd);
    }
    return out;
  };
}

namespace {

/// Batched network quality (maximization) for starting-point generation:
/// per candidate, S_plan + S_PD — the values network-objective callers
/// negate — via one evaluate_batch call.
std::vector<double> network_batch_quality(
    const FillProblem& problem, const CmpNetwork& network,
    const std::vector<std::vector<GridD>>& xs, long* eval_counter) {
  if (eval_counter) *eval_counter += static_cast<long>(xs.size());
  const std::vector<CmpNetwork::Eval> nets = network.evaluate_batch(xs);
  std::vector<double> q(xs.size());
  for (std::size_t b = 0; b < xs.size(); ++b) {
    const PdScore pd = pd_score_and_gradient(problem.extraction(), xs[b],
                                             problem.coefficients());
    q[b] = nets[b].s_plan + pd.s_pd;
  }
  return q;
}

void persist_snapshot(const FillSnapshot& snap, const std::string& path) {
  const Expected<void> res = save_fill_snapshot(snap, path);
  // A failed snapshot must not kill the optimization it protects.
  if (!res.ok())
    LOG_WARN("fill snapshot failed: %s", res.error().to_string().c_str());
}

long slot_evaluations(const MspSlot& slot) {
  switch (slot.status) {
    case MspSlot::Status::kDone:
      return slot.result.function_evaluations;
    case MspSlot::Status::kInFlight:
      return slot.state.function_evaluations;
    case MspSlot::Status::kPending:
      break;
  }
  return 0;
}

/// Loads + validates a resume snapshot for `method`; returns false (fresh
/// run) when the file does not exist.  A corrupt or mismatched snapshot is
/// a hard error: silently recomputing would violate the byte-identical
/// resume contract.
bool load_resume_snapshot(const NeurFillOptions& options,
                          const std::string& method, std::size_t dims,
                          FillSnapshot* snap) {
  if (!options.resume) return false;
  if (options.snapshot_path.empty())
    throw ErrorException(Error(ErrorCode::kInvalidArgument, "fill.snapshot",
                               "resume requested without a snapshot path"));
  Expected<FillSnapshot> loaded = load_fill_snapshot(options.snapshot_path);
  if (!loaded.ok()) {
    if (loaded.error().code == ErrorCode::kNotFound) {
      LOG_INFO("no snapshot at '%s', starting fresh",
               options.snapshot_path.c_str());
      return false;
    }
    throw ErrorException(loaded.error());
  }
  if (loaded->method != method)
    throw ErrorException(Error(
        ErrorCode::kInvalidArgument, "fill.snapshot",
        "'" + options.snapshot_path + "' was written by method '" +
            loaded->method + "', not '" + method + "'"));
  if (loaded->dims != dims)
    throw ErrorException(Error(
        ErrorCode::kInvalidArgument, "fill.snapshot",
        "'" + options.snapshot_path + "' has " +
            std::to_string(loaded->dims) + " variables, the problem has " +
            std::to_string(dims)));
  *snap = std::move(*loaded);
  std::size_t done = 0, in_flight = 0;
  for (const MspSlot& slot : snap->slots) {
    done += slot.status == MspSlot::Status::kDone ? 1 : 0;
    in_flight += slot.status == MspSlot::Status::kInFlight ? 1 : 0;
  }
  LOG_INFO("resuming from '%s': %zu/%zu starts done, %zu in flight",
           options.snapshot_path.c_str(), done, snap->starts.size(),
           in_flight);
  return true;
}

/// Objective evaluations made before the MSP drive (the start-list phase):
/// a snapshot's total less what its slots account for.
long pre_drive_evaluations(const FillSnapshot& snap) {
  long evals = snap.evaluations;
  for (const MspSlot& slot : snap.slots) evals -= slot_evaluations(slot);
  return evals;
}

struct MspDrive {
  std::vector<SqpResult> results;  ///< sorted best (lowest f) first
  long evaluations = 0;  ///< the drive's objective evaluations, every start
  bool timed_out = false;
};

/// Runs MSP-SQP over the start list (msp_sqp_minimize: the starts run
/// concurrently) with snapshotting, interrupt and a shared deadline;
/// continues from `resumed` when non-null.  Deterministic: an interrupted
/// + resumed drive visits the exact same iterates as an uninterrupted one.
/// A snapshot is written at every completed start and at every
/// snapshot_every-th loop top counted across the drive; `pre_evals` is
/// the evaluation count of the start-list phase, which snapshots carry.
MspDrive drive_msp(const ObjectiveFn& obj, const std::string& method,
                   const std::vector<VecD>& starts, const Box& box,
                   const NeurFillOptions& options, long pre_evals,
                   const FillSnapshot* resumed) {
  const auto make_snapshot = [&](const std::vector<MspSlot>& slots) {
    FillSnapshot snap;
    snap.method = method;
    snap.dims = box.size();
    snap.starts = starts;
    snap.slots = slots;
    snap.evaluations = pre_evals;
    for (const MspSlot& slot : slots) snap.evaluations += slot_evaluations(slot);
    return snap;
  };
  MspOptions mo;
  mo.sqp = options.sqp;
  mo.sqp.deadline = options.deadline;
  mo.stop = options.interrupt;
  if (!options.snapshot_path.empty())
    mo.on_update = [&](const std::vector<MspSlot>& slots, std::size_t,
                       long loop_top) {
      if (loop_top < 0 || options.snapshot_every <= 1 ||
          loop_top % options.snapshot_every == 0)
        persist_snapshot(make_snapshot(slots), options.snapshot_path);
    };
  MspOutcome outcome = msp_sqp_minimize(
      obj, starts, box, mo,
      resumed != nullptr ? resumed->slots : std::vector<MspSlot>());
  if (outcome.stopped) {
    if (!options.snapshot_path.empty())
      persist_snapshot(make_snapshot(outcome.slots), options.snapshot_path);
    throw ErrorException(Error(
        ErrorCode::kInterrupted, "fill",
        options.snapshot_path.empty()
            ? std::string("interrupt acknowledged")
            : "interrupt acknowledged; snapshot saved to '" +
                  options.snapshot_path + "'"));
  }
  MspDrive out;
  for (const MspSlot& slot : outcome.slots)
    out.evaluations += slot_evaluations(slot);
  out.results = std::move(outcome.results);
  out.timed_out = outcome.timed_out;
  return out;
}

/// Folds an MSP drive into the FillRunResult bookkeeping shared by the pkb
/// and mm drivers.
void fold_drive(const FillProblem& problem, const MspDrive& drive,
                FillRunResult* res) {
  res->x = problem.unflatten(drive.results.front().x);
  res->iterations = 0;
  res->timed_out = res->timed_out || drive.timed_out;
  for (const SqpResult& r : drive.results) {
    res->iterations += r.iterations;
    res->numeric_recoveries += r.numeric_recoveries;
    if (r.poisoned) res->degraded = true;
  }
  if (res->numeric_recoveries > 0) res->degraded = true;
}

}  // namespace

FillRunResult neurfill_pkb(const FillProblem& problem,
                           const CmpNetwork& network,
                           const NeurFillOptions& options) {
  // The method span doubles as the stopwatch: the reported runtime_s and
  // the trace event come from the same clock reads (see obs::SpanTimer).
  obs::SpanTimer timer("fill.neurfill_pkb");
  long evals = 0;
  FillSnapshot resumed;
  const bool have_resume = load_resume_snapshot(
      options, "pkb", problem.bounds().size(), &resumed);

  std::vector<VecD> starts;
  if (have_resume) {
    // The snapshot stores the start list, so the PKB linear search (and its
    // evaluation count) is not replayed.
    starts = resumed.starts;
    evals = pre_drive_evaluations(resumed);
  } else {
    // All `pkb_steps` sweep candidates are judged in one batched network
    // evaluation; the chosen start (and the evaluation count) is identical
    // to the serial sweep.
    const std::vector<GridD> start = pkb_starting_point_batched(
        problem.extraction(),
        [&](const std::vector<std::vector<GridD>>& xs) {
          return network_batch_quality(problem, network, xs, &evals);
        },
        options.pkb_steps);
    starts.push_back(problem.flatten(start));
  }

  const MspDrive drive =
      drive_msp(make_network_objective(problem, network), "pkb", starts,
                problem.bounds(), options, evals,
                have_resume ? &resumed : nullptr);
  evals += drive.evaluations;

  FillRunResult res;
  res.method = "NeurFill (PKB)";
  fold_drive(problem, drive, &res);
  res.objective_evaluations = evals;
  NF_COUNTER_ADD("fill.objective_evaluations", evals);
  res.runtime_s = timer.stop_seconds();
  return res;
}

FillRunResult neurfill_mm(const FillProblem& problem, const CmpNetwork& network,
                          const NeurFillOptions& options) {
  obs::SpanTimer timer("fill.neurfill_mm");
  long evals = 0;
  FillSnapshot resumed;
  const bool have_resume = load_resume_snapshot(
      options, "mm", problem.bounds().size(), &resumed);

  std::vector<VecD> starts;
  bool explore_timed_out = false;
  if (have_resume) {
    // NMMSO is checkpointed only at phase completion (its mid-run state is
    // not persisted), so a snapshot implies the start list is final.
    starts = resumed.starts;
    evals = pre_drive_evaluations(resumed);
  } else {
    // Multi-modal exploration maximizes the quality score (value only).
    // The explore objective carries no shared mutable state (its
    // evaluations are tallied from the optimizer afterwards), so NMMSO may
    // run its per-swarm evaluation batches on the thread pool.
    const ObjectiveFn net_obj =
        make_network_objective(problem, network, nullptr);
    const ObjectiveFn explore = [&net_obj](const VecD& v, VecD*) -> double {
      return -net_obj(v, nullptr);  // NMMSO maximizes
    };
    NmmsoOptions nmmso_opt = options.nmmso;
    nmmso_opt.parallel_evaluations = true;
    nmmso_opt.deadline = options.deadline;
    nmmso_opt.interrupt = options.interrupt;
    Nmmso nmmso(explore, problem.bounds(), nmmso_opt);
    // Each iteration's move batch runs as one batched network evaluation
    // (negated to match `explore`'s maximization sign); out-of-batch
    // evaluations (midpoints, hive-offs, immigrants) stay scalar.  Values
    // are bitwise identical either way, so the located modes don't change.
    const BatchObjectiveFn batch_obj =
        make_network_batch_objective(problem, network, nullptr);
    nmmso.set_batch_objective(
        [batch_obj](const std::vector<VecD>& xs) -> std::vector<double> {
          std::vector<double> v = batch_obj(xs);
          for (double& q : v) q = -q;
          return v;
        });
    const std::vector<Mode> modes = nmmso.run();
    evals += nmmso.evaluations_used();
    explore_timed_out = nmmso.timed_out();

    // MSP-SQP over a diverse pool: the best NMMSO modes, the PKB start, and
    // a spread of target-density fills (the structured corners of the
    // landscape the paper's multi-modal search is meant to cover — distinct
    // basins of the quality score reached from different fill levels).
    for (const Mode& m : modes) {
      if (static_cast<int>(starts.size()) >= options.mm_starts) break;
      starts.push_back(m.x);
    }
    const std::vector<GridD> pkb = pkb_starting_point_batched(
        problem.extraction(),
        [&](const std::vector<std::vector<GridD>>& xs) {
          return network_batch_quality(problem, network, xs, &evals);
        },
        options.pkb_steps);
    starts.push_back(problem.flatten(pkb));
    {
      const WindowExtraction& ext = problem.extraction();
      std::vector<double> lo(ext.num_layers(), 1.0), hi(ext.num_layers(), 0.0);
      for (std::size_t l = 0; l < ext.num_layers(); ++l) {
        const auto& d = ext.layers[l];
        double mean_rho = 0.0;
        for (std::size_t k = 0; k < d.slack.size(); ++k) {
          const double rho = d.wire_density[k] + d.dummy_density[k];
          mean_rho += rho;
          hi[l] = std::max(hi[l], rho + d.slack[k]);
        }
        lo[l] = mean_rho / static_cast<double>(d.slack.size());
      }
      for (const double t : {0.25, 0.55, 0.85}) {
        std::vector<double> td(ext.num_layers());
        for (std::size_t l = 0; l < td.size(); ++l)
          td[l] = lo[l] + t * (hi[l] - lo[l]);
        starts.push_back(problem.flatten(target_density_fill(ext, td)));
      }
    }
    // Exploration phase complete: persist the start list so a later resume
    // skips NMMSO entirely.
    if (!options.snapshot_path.empty()) {
      FillSnapshot snap;
      snap.method = "mm";
      snap.dims = problem.bounds().size();
      snap.evaluations = evals;
      snap.starts = starts;
      persist_snapshot(snap, options.snapshot_path);
    }
  }

  // The SQP objective counts nothing: each start counts its own
  // evaluations, so the starts share no mutable state and run concurrently.
  const MspDrive drive =
      drive_msp(make_network_objective(problem, network), "mm", starts,
                problem.bounds(), options, evals,
                have_resume ? &resumed : nullptr);
  evals += drive.evaluations;

  FillRunResult res;
  res.method = "NeurFill (MM)";
  res.timed_out = explore_timed_out;
  fold_drive(problem, drive, &res);
  res.objective_evaluations = evals;
  NF_COUNTER_ADD("fill.objective_evaluations", evals);
  res.runtime_s = timer.stop_seconds();
  return res;
}

}  // namespace neurfill
