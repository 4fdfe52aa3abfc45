// End-to-end integration tests: the full NeurFill framework (Fig. 7) on a
// small synthetic design with a briefly pre-trained surrogate, and the
// shared pipeline's quick-train fallback.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "fill/neurfill.hpp"
#include "fill/pipeline.hpp"
#include "fill/report.hpp"
#include "fill/snapshot.hpp"
#include "geom/designs.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/trainer.hpp"
#include "tape_oracle.hpp"

namespace neurfill {
namespace {

CmpProcessParams fast_params() {
  CmpProcessParams p;
  p.polish_time_s = 12.0;
  p.dt_s = 1.0;
  return p;
}

/// Shared fixture: one design, one briefly-trained surrogate.  Training a
/// tiny UNet on 16x16 assembled layouts takes well under a second per epoch
/// on one core.
class NeurFillPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    layout_ = new Layout(make_design('a', 16, 100.0, 3));
    WindowExtraction ext = extract_windows(*layout_);
    CmpSimulator sim(fast_params());
    ScoreCoefficients coeffs = make_coefficients(*layout_, ext, sim);
    problem_ = new FillProblem(ext, sim, coeffs);

    SurrogateConfig cfg;
    cfg.unet.base_channels = 4;
    cfg.unet.depth = 2;
    auto surrogate = std::make_shared<CmpSurrogate>(cfg, 21);
    TrainingDataGenerator gen({ext}, sim, 31, 4);
    TrainOptions topt;
    topt.epochs = 8;
    topt.dataset_size = 60;
    topt.grid_rows = topt.grid_cols = 16;
    topt.learning_rate = 3e-3f;
    train_surrogate(*surrogate, gen, topt);
    surrogate_ = new std::shared_ptr<CmpSurrogate>(surrogate);
    network_ = new CmpNetwork(surrogate, ext, coeffs);
    calibrate_network(*network_, *problem_);
  }
  static void TearDownTestSuite() {
    delete network_;
    delete surrogate_;
    delete problem_;
    delete layout_;
  }

  static Layout* layout_;
  static FillProblem* problem_;
  static std::shared_ptr<CmpSurrogate>* surrogate_;
  static CmpNetwork* network_;
};

Layout* NeurFillPipeline::layout_ = nullptr;
FillProblem* NeurFillPipeline::problem_ = nullptr;
std::shared_ptr<CmpSurrogate>* NeurFillPipeline::surrogate_ = nullptr;
CmpNetwork* NeurFillPipeline::network_ = nullptr;

TEST_F(NeurFillPipeline, TrainedSurrogateTracksSimulator) {
  // The surrogate regresses centered topography; after the short training
  // its mean absolute error on the design must stay well below the
  // simulator topography's peak-to-peak range.
  const std::vector<GridD> x = problem_->zero_fill();
  auto sim_h = problem_->simulator().simulate_heights(problem_->extraction(), x);
  double lo = 1e300, hi = -1e300;
  for (auto& h : sim_h) {
    double mean_h = 0.0;
    for (const double v : h) mean_h += v;
    mean_h /= static_cast<double>(h.size());
    for (auto& v : h) {
      v -= mean_h;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  const auto net_h = network_->predict_heights(x);
  double err = 0.0;
  std::size_t n = 0;
  for (std::size_t l = 0; l < sim_h.size(); ++l)
    for (std::size_t k = 0; k < sim_h[l].size(); ++k) {
      err += std::fabs(net_h[l][k] - sim_h[l][k]);
      ++n;
    }
  const double mean_err = err / static_cast<double>(n);
  EXPECT_LT(mean_err / (hi - lo), 0.2);
}

TEST_F(NeurFillPipeline, NetworkObjectiveConsistent) {
  long evals = 0;
  const ObjectiveFn obj = make_network_objective(*problem_, *network_, &evals);
  const VecD v = problem_->flatten(problem_->zero_fill());
  const double f = obj(v, nullptr);
  const CmpNetwork::Eval net = network_->evaluate(problem_->zero_fill(), false);
  const PdScore pd = pd_score_and_gradient(problem_->extraction(),
                                           problem_->zero_fill(),
                                           problem_->coefficients());
  EXPECT_NEAR(f, -(net.s_plan + pd.s_pd), 1e-12);
  EXPECT_EQ(evals, 1);
  VecD g;
  obj(v, &g);
  EXPECT_EQ(g.size(), v.size());
  EXPECT_EQ(evals, 2);
}

TEST_F(NeurFillPipeline, PkbImprovesTrueQuality) {
  NeurFillOptions opt;
  opt.sqp.max_iterations = 15;
  opt.pkb_steps = 6;
  const FillRunResult res = neurfill_pkb(*problem_, *network_, opt);
  EXPECT_EQ(res.method, "NeurFill (PKB)");
  EXPECT_GT(res.objective_evaluations, 6);
  // Feasibility.
  const Box b = problem_->bounds();
  const VecD v = problem_->flatten(res.x);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_GE(v[i], -1e-9);
    EXPECT_LE(v[i], b.hi[i] + 1e-9);
  }
  // Ground-truth quality improves over no fill.
  const double q0 = problem_->evaluate(problem_->zero_fill()).s_qual;
  const double q1 = problem_->evaluate(res.x).s_qual;
  EXPECT_GT(q1, q0);
}

TEST_F(NeurFillPipeline, MmAtLeastMatchesSurrogateObjectiveOfPkb) {
  NeurFillOptions opt;
  opt.sqp.max_iterations = 10;
  opt.pkb_steps = 5;
  opt.nmmso.max_evaluations = 60;
  opt.mm_starts = 2;
  const FillRunResult pkb = neurfill_pkb(*problem_, *network_, opt);
  const FillRunResult mm = neurfill_mm(*problem_, *network_, opt);
  EXPECT_EQ(mm.method, "NeurFill (MM)");
  // MM's start pool includes the PKB start, so on the surrogate objective it
  // can only do at least as well as PKB (up to line-search wiggle).
  const ObjectiveFn obj = make_network_objective(*problem_, *network_);
  const double f_pkb = obj(problem_->flatten(pkb.x), nullptr);
  const double f_mm = obj(problem_->flatten(mm.x), nullptr);
  EXPECT_LE(f_mm, f_pkb + 1e-6);
}

TEST_F(NeurFillPipeline, PkbMatchesTapeOracleAcrossThreadCounts) {
  // Full-drive gate for the tape-free gradient: a pkb fill (batched PKB
  // sweep, SQP with one-call accepted steps, session VJP gradients) must
  // equal, byte for byte and in evaluation count, the same drive run on
  // the autograd-tape objective — at 1, 2, and 8 threads.
  NeurFillOptions opt;
  opt.sqp.max_iterations = 12;
  opt.pkb_steps = 5;
  const CmpSurrogate& oracle_surrogate = **surrogate_;

  long oracle_evals = 0;
  const auto oracle_quality =
      [&](const std::vector<std::vector<GridD>>& xs) {
        std::vector<double> q;
        for (const auto& x : xs) {
          ++oracle_evals;
          const CmpNetwork::Eval e = oracle::tape_evaluate(
              oracle_surrogate, problem_->extraction(), *network_, x, false);
          q.push_back(e.s_plan + pd_score_and_gradient(problem_->extraction(),
                                                       x,
                                                       problem_->coefficients())
                                     .s_pd);
        }
        return q;
      };
  const VecD start = problem_->flatten(pkb_starting_point_batched(
      problem_->extraction(), oracle_quality, opt.pkb_steps));
  const ObjectiveFn tape_obj = oracle::tape_objective(
      *problem_, oracle_surrogate, *network_, &oracle_evals);
  const SqpResult oracle_run =
      sqp_minimize(tape_obj, start, problem_->bounds(), opt.sqp);
  ASSERT_GT(oracle_run.iterations, 1);

  for (const int threads : {1, 2, 8}) {
    runtime::set_thread_count(threads);
    const FillRunResult res = neurfill_pkb(*problem_, *network_, opt);
    EXPECT_EQ(res.objective_evaluations, oracle_evals) << threads;
    EXPECT_EQ(res.iterations, oracle_run.iterations) << threads;
    const VecD x = problem_->flatten(res.x);
    ASSERT_EQ(x.size(), oracle_run.x.size());
    EXPECT_EQ(std::memcmp(x.data(), oracle_run.x.data(),
                          x.size() * sizeof(double)),
              0)
        << threads << " threads";
  }
  runtime::set_thread_count(0);  // restore the environment default
}

/// Small MM budget whose MSP drive has more than 4 starts.
NeurFillOptions small_mm_options() {
  NeurFillOptions opt;
  opt.sqp.max_iterations = 4;
  opt.pkb_steps = 4;
  opt.nmmso.max_evaluations = 30;
  opt.mm_starts = 2;
  return opt;
}

::testing::AssertionResult same_fill(const std::vector<GridD>& a,
                                     const std::vector<GridD>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "layer count differs";
  for (std::size_t l = 0; l < a.size(); ++l)
    if (a[l].size() != b[l].size() ||
        std::memcmp(a[l].data(), b[l].data(), a[l].size() * sizeof(double)) !=
            0)
      return ::testing::AssertionFailure() << "layer " << l << " differs";
  return ::testing::AssertionSuccess();
}

TEST_F(NeurFillPipeline, MmIsBitwiseDeterministicAcrossThreadCounts) {
  // The MM flow (batched NMMSO moves, batched PKB sweep, concurrent MSP-SQP
  // starts with gradients through the session VJP) gives the same fill,
  // evaluation count and iterations at 1, 2, 4 and 8 threads (the start
  // list outnumbers the workers up to 4 threads).
  const NeurFillOptions opt = small_mm_options();
  const std::string snap = ::testing::TempDir() + "neurfill_mm_threads.nfcp";
  std::vector<FillRunResult> runs;
  for (const int threads : {1, 2, 4, 8}) {
    runtime::set_thread_count(threads);
    NeurFillOptions sopt = opt;
    sopt.snapshot_path = snap;
    sopt.snapshot_every = 1000;  // the final table only, in effect
    runs.push_back(neurfill_mm(*problem_, *network_, sopt));
    const Expected<FillSnapshot> table = load_fill_snapshot(snap);
    ASSERT_TRUE(table.ok());
    EXPECT_GT(table->starts.size(), 4u);
    for (const MspSlot& slot : table->slots)
      EXPECT_EQ(slot.status, MspSlot::Status::kDone) << threads;
    EXPECT_EQ(table->evaluations, runs.back().objective_evaluations);
  }
  runtime::set_thread_count(0);
  std::remove(snap.c_str());
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].objective_evaluations, runs[0].objective_evaluations);
    EXPECT_EQ(runs[r].iterations, runs[0].iterations);
    EXPECT_TRUE(same_fill(runs[r].x, runs[0].x)) << "run " << r;
  }
}

/// The loop-top state start `x0` reaches at SQP iteration `iteration` of
/// the drive's per-start options.
SqpState state_at(const ObjectiveFn& obj, const VecD& x0, const Box& box,
                  SqpOptions so, int iteration) {
  struct Reached {};
  SqpState captured;
  so.checkpoint_hook = [&](const SqpState& st) {
    if (st.iteration == iteration) {
      captured = st;
      throw Reached{};
    }
  };
  try {
    sqp_minimize(obj, x0, box, so);
  } catch (const Reached&) {
  }
  return captured;
}

/// Version-1 snapshot bytes, written field by field: a completed prefix of
/// the start list and at most one start in flight.
void write_version1_snapshot(const FillSnapshot& snap, std::size_t n_done,
                             bool in_flight, const std::string& path) {
  CheckpointWriter w;
  ByteWriter meta;
  meta.u32(1);
  meta.str(snap.method);
  meta.u64(snap.dims);
  meta.i64(snap.evaluations);
  meta.u32(static_cast<std::uint32_t>(snap.starts.size()));
  meta.u32(static_cast<std::uint32_t>(n_done));
  meta.u32(in_flight ? 1u : 0u);
  w.add_section("meta", meta.take());
  ByteWriter starts;
  for (const VecD& s : snap.starts) starts.f64_vec(s);
  w.add_section("starts", starts.take());
  ByteWriter done;
  for (std::size_t i = 0; i < n_done; ++i) {
    const SqpResult& r = snap.slots[i].result;
    done.f64_vec(r.x);
    done.f64(r.f);
    done.u32(static_cast<std::uint32_t>(r.iterations));
    done.u32(static_cast<std::uint32_t>(r.function_evaluations));
    done.u32((r.converged ? 1u : 0u) | (r.timed_out ? 2u : 0u) |
             (r.poisoned ? 4u : 0u));
    done.u32(static_cast<std::uint32_t>(r.numeric_recoveries));
  }
  w.add_section("completed", done.take());
  if (in_flight) {
    const SqpState& st = snap.slots[n_done].state;
    ByteWriter b;
    b.f64_vec(st.x);
    b.f64_vec(st.g);
    b.f64(st.f);
    b.u32(static_cast<std::uint32_t>(st.iteration));
    b.u32(static_cast<std::uint32_t>(st.function_evaluations));
    b.f64(st.lbfgs_sigma);
    b.u32(static_cast<std::uint32_t>(st.lbfgs_pairs.size()));
    for (const auto& [sv, yv] : st.lbfgs_pairs) {
      b.f64_vec(sv);
      b.f64_vec(yv);
    }
    w.add_section("sqp", b.take());
    ByteWriter ls;
    ls.u32(st.full_step_gradient ? 1u : 0u);
    w.add_section("sqp_schedule", ls.take());
  }
  ASSERT_TRUE(w.commit(path).ok());
}

TEST_F(NeurFillPipeline, MmResumesFromSlotTablesOfEitherVersion) {
  // Tables built from the drive's own per-start runs: one with two starts
  // in flight and the rest pending (version 2), and a completed prefix with
  // one start in flight written in the version-1 layout.  Resuming either
  // at 4 threads gives the uninterrupted fill, evaluation count and
  // iterations.
  NeurFillOptions opt = small_mm_options();
  opt.sqp.max_iterations = 6;
  const std::string full_snap = ::testing::TempDir() + "neurfill_mm_full.nfcp";
  const std::string snap = ::testing::TempDir() + "neurfill_mm_slots.nfcp";
  NeurFillOptions fopt = opt;
  fopt.snapshot_path = full_snap;
  fopt.snapshot_every = 1000;
  const FillRunResult full = neurfill_mm(*problem_, *network_, fopt);
  const Expected<FillSnapshot> done = load_fill_snapshot(full_snap);
  ASSERT_TRUE(done.ok());
  ASSERT_GE(done->starts.size(), 4u);
  long pre_drive = done->evaluations;
  for (const MspSlot& slot : done->slots)
    pre_drive -= slot.result.function_evaluations;

  const ObjectiveFn obj = make_network_objective(*problem_, *network_);
  const Box box = problem_->bounds();
  FillSnapshot table = *done;
  table.slots.assign(table.starts.size(), MspSlot());
  table.slots[0] = done->slots[0];
  for (const std::size_t i : {1u, 2u}) {
    table.slots[i].status = MspSlot::Status::kInFlight;
    table.slots[i].state =
        state_at(obj, table.starts[i], box, opt.sqp, static_cast<int>(i));
    ASSERT_EQ(table.slots[i].state.iteration, static_cast<int>(i));
  }
  table.evaluations = pre_drive + table.slots[0].result.function_evaluations +
                      table.slots[1].state.function_evaluations +
                      table.slots[2].state.function_evaluations;

  runtime::set_thread_count(4);
  for (const int version : {2, 1}) {
    if (version == 2) {
      ASSERT_TRUE(save_fill_snapshot(table, snap).ok());
      const Expected<CheckpointReader> reader = CheckpointReader::open(snap);
      ASSERT_TRUE(reader.ok());
      EXPECT_TRUE(reader->has_section("slots"));
    } else {
      table.slots[2] = MspSlot();
      table.evaluations = pre_drive +
                          table.slots[0].result.function_evaluations +
                          table.slots[1].state.function_evaluations;
      write_version1_snapshot(table, 1, true, snap);
    }
    NeurFillOptions ropt = opt;
    ropt.snapshot_path = snap;
    ropt.resume = true;
    const FillRunResult resumed = neurfill_mm(*problem_, *network_, ropt);
    EXPECT_TRUE(same_fill(resumed.x, full.x)) << "version " << version;
    EXPECT_EQ(resumed.objective_evaluations, full.objective_evaluations)
        << "version " << version;
    EXPECT_EQ(resumed.iterations, full.iterations) << "version " << version;
  }
  runtime::set_thread_count(0);
  std::remove(full_snap.c_str());
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, InterruptedConcurrentMmResumesByteIdentical) {
  // SIGINT during the concurrent drive: a watcher raises the interrupt as
  // soon as the start list is on disk, so the starts that are running stop
  // at their next loop top.  The snapshot the drive leaves resumes to the
  // uninterrupted fill.
  NeurFillOptions opt = small_mm_options();
  opt.sqp.max_iterations = 8;
  runtime::set_thread_count(4);
  const FillRunResult full = neurfill_mm(*problem_, *network_, opt);

  const std::string snap = ::testing::TempDir() + "neurfill_mm_sigint.nfcp";
  std::remove(snap.c_str());
  std::atomic<bool> stop{false};
  std::atomic<bool> finished{false};
  std::thread watcher([&] {
    while (!finished.load()) {
      if (std::ifstream(snap).good()) {
        stop.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  NeurFillOptions iopt = opt;
  iopt.snapshot_path = snap;
  iopt.snapshot_every = 1000;
  iopt.interrupt = &stop;
  bool interrupted = false;
  try {
    neurfill_mm(*problem_, *network_, iopt);
  } catch (const ErrorException& e) {
    interrupted = e.err.code == ErrorCode::kInterrupted;
  }
  finished.store(true);
  watcher.join();
  EXPECT_TRUE(interrupted);

  NeurFillOptions ropt = opt;
  ropt.snapshot_path = snap;
  ropt.resume = true;
  const FillRunResult resumed = neurfill_mm(*problem_, *network_, ropt);
  runtime::set_thread_count(0);
  EXPECT_TRUE(same_fill(resumed.x, full.x));
  EXPECT_EQ(resumed.objective_evaluations, full.objective_evaluations);
  EXPECT_EQ(resumed.iterations, full.iterations);
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, ConcurrentGradientsMatchSerialBitwise) {
  // Four threads evaluating value + gradient on one shared CmpNetwork get
  // exactly the serial results: an evaluation writes no shared state.
  std::vector<std::vector<GridD>> xs;
  Rng rng(77);
  for (int k = 0; k < 8; ++k) {
    std::vector<GridD> x = problem_->zero_fill();
    for (auto& g : x)
      for (auto& v : g) v = rng.uniform(0.0, 0.2);
    xs.push_back(std::move(x));
  }
  std::vector<CmpNetwork::Eval> serial;
  for (const auto& x : xs) serial.push_back(network_->evaluate(x, true));

  std::vector<CmpNetwork::Eval> concurrent(xs.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep)
        for (std::size_t k = static_cast<std::size_t>(t); k < xs.size();
             k += 4)
          concurrent[k] = network_->evaluate(xs[k], true);
    });
  for (auto& w : workers) w.join();

  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_EQ(concurrent[k].s_plan, serial[k].s_plan);
    ASSERT_EQ(concurrent[k].grad.size(), serial[k].grad.size());
    for (std::size_t l = 0; l < serial[k].grad.size(); ++l)
      EXPECT_EQ(std::memcmp(concurrent[k].grad[l].data(),
                            serial[k].grad[l].data(),
                            serial[k].grad[l].size() * sizeof(double)),
                0)
          << "candidate " << k << " layer " << l;
  }
}

TEST_F(NeurFillPipeline, PkbFillLeavesNoParameterGradients) {
  // The fill differentiates with respect to its input only: no surrogate
  // parameter ever gets a grad buffer, so a surrogate can be shared by
  // concurrent fills.  (A fresh surrogate: the fixture's was trained.)
  SurrogateConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 2;
  auto fresh = std::make_shared<CmpSurrogate>(cfg, 21);
  CmpNetwork network(fresh, problem_->extraction(), problem_->coefficients());
  calibrate_network(network, *problem_);
  NeurFillOptions opt;
  opt.sqp.max_iterations = 6;
  opt.pkb_steps = 4;
  const FillRunResult res = neurfill_pkb(*problem_, network, opt);
  EXPECT_GT(res.iterations, 0);
  for (const nn::Tensor& p : fresh->unet().parameters())
    EXPECT_FALSE(p.has_grad());
}

TEST_F(NeurFillPipeline, ReportScoresAreAssembled) {
  NeurFillOptions opt;
  opt.sqp.max_iterations = 5;
  opt.pkb_steps = 4;
  const FillRunResult res = neurfill_pkb(*problem_, *network_, opt);
  const MethodReport rep = score_fill_result(*problem_, *layout_, res);
  EXPECT_EQ(rep.method, "NeurFill (PKB)");
  EXPECT_GT(rep.score.overall, 0.0);
  EXPECT_LE(rep.score.quality.s_qual, 1.0 + 1e-9);
  EXPECT_GT(rep.file_size_bytes, 0.0);
  EXPECT_GT(rep.memory_bytes, 0.0);
  EXPECT_GE(rep.truth.delta_h, 0.0);
}

TEST_F(NeurFillPipeline, CalibrationAnchorsAndMonotonicity) {
  // The log-space power fit is exact at the zero-fill anchor whenever a
  // calibration was fitted; it is exact at the full-fill anchor too when
  // the exponent did not clamp (a weak surrogate can be nearly fill-blind,
  // needing an exponent beyond the guard).  In every case b > 0 preserves
  // the fill-improves-sigma direction the optimizer relies on.
  const WindowExtraction& ext = problem_->extraction();
  const std::vector<GridD> zero = problem_->zero_fill();
  std::vector<GridD> full;
  for (const auto& l : ext.layers) full.push_back(l.slack);

  const auto& cal = network_->sigma_calibration();
  EXPECT_GT(cal.b, 0.0);

  const PlanarityMetrics t0 = compute_planarity(
      problem_->simulator().simulate_heights(ext, zero));
  const CmpNetwork::Eval c0 = network_->evaluate(zero, false);
  const bool fitted = cal.b != 1.0 || cal.a != 0.0;
  if (fitted) {
    EXPECT_NEAR(c0.sigma, t0.sigma, 2e-2 * std::max(t0.sigma, 1.0));
  }

  const PlanarityMetrics t1 = compute_planarity(
      problem_->simulator().simulate_heights(ext, full));
  const CmpNetwork::Eval c1 = network_->evaluate(full, false);
  if (fitted && cal.b > 0.11 && cal.b < 9.9) {
    // Unclamped: both anchors exact.
    EXPECT_NEAR(c1.sigma, t1.sigma, 2e-2 * std::max(t1.sigma, 1.0));
  }
  // Monotonicity: the simulator says full fill flattens this design, and
  // the calibrated network must agree on the *direction*.
  ASSERT_LT(t1.sigma, t0.sigma);
  EXPECT_LT(c1.sigma, c0.sigma);
}

TEST_F(NeurFillPipeline, InterruptedPkbResumesByteIdentical) {
  // docs/robustness.md resume contract: interrupt a run at its very first
  // checkpoint opportunity, then --resume; the resumed run's fill must be
  // bitwise identical to an uninterrupted one.
  NeurFillOptions opt;
  opt.sqp.max_iterations = 12;
  opt.pkb_steps = 6;
  const FillRunResult full = neurfill_pkb(*problem_, *network_, opt);

  const std::string snap = ::testing::TempDir() + "neurfill_resume.nfcp";
  std::remove(snap.c_str());
  NeurFillOptions iopt = opt;
  iopt.snapshot_path = snap;
  std::atomic<bool> stop{true};  // pre-set: the first checkpoint hook throws
  iopt.interrupt = &stop;
  bool interrupted = false;
  try {
    neurfill_pkb(*problem_, *network_, iopt);
  } catch (const ErrorException& e) {
    interrupted = e.err.code == ErrorCode::kInterrupted;
  }
  ASSERT_TRUE(interrupted);

  NeurFillOptions ropt = opt;
  ropt.snapshot_path = snap;
  ropt.resume = true;
  const FillRunResult resumed = neurfill_pkb(*problem_, *network_, ropt);
  ASSERT_EQ(resumed.x.size(), full.x.size());
  for (std::size_t l = 0; l < full.x.size(); ++l)
    for (std::size_t k = 0; k < full.x[l].size(); ++k)
      EXPECT_EQ(resumed.x[l][k], full.x[l][k]);  // exact, not approximate
  EXPECT_EQ(resumed.objective_evaluations, full.objective_evaluations);
  EXPECT_EQ(resumed.iterations, full.iterations);
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, SnapshotRenameFaultsStillResumeFromLastGood) {
  // Random snapshot commits fail mid-write (rename fault): the run itself
  // must be unaffected, the snapshot on disk stays the last *good* image,
  // and resuming from it reproduces the identical fill.
  NeurFillOptions opt;
  opt.sqp.max_iterations = 12;
  opt.pkb_steps = 6;
  const FillRunResult full = neurfill_pkb(*problem_, *network_, opt);

  const std::string snap = ::testing::TempDir() + "neurfill_lastgood.nfcp";
  std::remove(snap.c_str());
  NeurFillOptions fopt = opt;
  fopt.snapshot_path = snap;
  fault::disarm_all();
  fault::arm_prob("io.rename", 0.5, 13);
  const FillRunResult faulted = neurfill_pkb(*problem_, *network_, fopt);
  fault::disarm_all();
  for (std::size_t l = 0; l < full.x.size(); ++l)
    for (std::size_t k = 0; k < full.x[l].size(); ++k)
      EXPECT_EQ(faulted.x[l][k], full.x[l][k]);

  // Whatever intermediate state survived on disk, resuming from it lands on
  // the same answer (a missing snapshot falls back to a clean fresh run).
  NeurFillOptions ropt = opt;
  ropt.snapshot_path = snap;
  ropt.resume = true;
  const FillRunResult resumed = neurfill_pkb(*problem_, *network_, ropt);
  for (std::size_t l = 0; l < full.x.size(); ++l)
    for (std::size_t k = 0; k < full.x[l].size(); ++k)
      EXPECT_EQ(resumed.x[l][k], full.x[l][k]);
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, CorruptSnapshotResumeIsStructuredError) {
  const std::string snap = ::testing::TempDir() + "neurfill_corrupt.nfcp";
  std::ofstream(snap, std::ios::binary) << "NFCPgarbage-not-a-checkpoint";
  NeurFillOptions opt;
  opt.snapshot_path = snap;
  opt.resume = true;
  bool corrupt = false;
  try {
    neurfill_pkb(*problem_, *network_, opt);
  } catch (const ErrorException& e) {
    corrupt = e.err.code == ErrorCode::kCorrupt;
  }
  EXPECT_TRUE(corrupt);
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, DeadlineExpiryReturnsBestFeasibleFlagged) {
  NeurFillOptions opt;
  opt.sqp.max_iterations = 12;
  opt.pkb_steps = 6;
  opt.deadline = Deadline::after_seconds(0.0);  // already expired
  const FillRunResult res = neurfill_pkb(*problem_, *network_, opt);
  EXPECT_TRUE(res.timed_out);
  const Box b = problem_->bounds();
  const VecD v = problem_->flatten(res.x);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_GE(v[i], -1e-9);
    EXPECT_LE(v[i], b.hi[i] + 1e-9);
  }
}

TEST_F(NeurFillPipeline, SurrogateGradientlessVsGradientAgreement) {
  // The surrogate objective used by SQP must be the same function NMMSO
  // explores (value path vs gradient path consistency).
  const ObjectiveFn obj = make_network_objective(*problem_, *network_);
  VecD v = problem_->flatten(problem_->zero_fill());
  for (std::size_t i = 0; i < v.size(); i += 7) v[i] = 0.01;
  VecD g;
  const double f1 = obj(v, nullptr);
  const double f2 = obj(v, &g);
  EXPECT_EQ(f1, f2);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(FillPipelineQuickTrain, ReproducibleAndNeverTrainsAroundCorruptWeights) {
  const Layout layout = make_design('a', 4, 100.0, 7);
  const FillProblem problem =
      make_fill_problem(layout, ExtractOptions(), CmpProcessParams());
  const std::string dir = ::testing::TempDir();
  const std::string missing = dir + "pipeline_no_surrogate";
  std::remove((missing + ".meta").c_str());

  // A missing surrogate is quick-trained from fixed seeds: two trainings
  // for one extraction give the same weights bit for bit.
  Expected<std::shared_ptr<CmpSurrogate>> a = load_or_quick_train(
      missing, problem.extraction(), problem.simulator());
  Expected<std::shared_ptr<CmpSurrogate>> b = load_or_quick_train(
      missing, problem.extraction(), problem.simulator());
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  ASSERT_TRUE(save_surrogate(**a, dir + "pipeline_qt_a").ok());
  ASSERT_TRUE(save_surrogate(**b, dir + "pipeline_qt_b").ok());
  const std::string weights = file_bytes(dir + "pipeline_qt_a.weights");
  EXPECT_FALSE(weights.empty());
  EXPECT_EQ(weights, file_bytes(dir + "pipeline_qt_b.weights"));

  // A present but corrupt surrogate is an input error, not a reason to
  // train a replacement.
  {
    std::ofstream out(dir + "pipeline_qt_a.weights",
                      std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  Expected<std::shared_ptr<CmpSurrogate>> corrupt = load_or_quick_train(
      dir + "pipeline_qt_a", problem.extraction(), problem.simulator());
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.error().code, ErrorCode::kCorrupt);
}

}  // namespace
}  // namespace neurfill
