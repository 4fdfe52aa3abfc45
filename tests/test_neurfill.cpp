// End-to-end integration tests: the full NeurFill framework (Fig. 7) on a
// small synthetic design with a briefly pre-trained surrogate.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "fill/neurfill.hpp"
#include "fill/report.hpp"
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

TEST_F(NeurFillPipeline, MmIsBitwiseDeterministicAcrossThreadCounts) {
  // The MM flow (batched NMMSO moves, batched PKB sweep, SQP gradients
  // through the session VJP) gives the same fill and evaluation count at
  // 1, 2, and 8 threads.
  NeurFillOptions opt;
  opt.sqp.max_iterations = 4;
  opt.pkb_steps = 4;
  opt.nmmso.max_evaluations = 30;
  opt.mm_starts = 2;
  std::vector<VecD> fills;
  std::vector<long> evals;
  for (const int threads : {1, 2, 8}) {
    runtime::set_thread_count(threads);
    const FillRunResult res = neurfill_mm(*problem_, *network_, opt);
    fills.push_back(problem_->flatten(res.x));
    evals.push_back(res.objective_evaluations);
  }
  runtime::set_thread_count(0);
  for (std::size_t r = 1; r < fills.size(); ++r) {
    EXPECT_EQ(evals[r], evals[0]);
    ASSERT_EQ(fills[0].size(), fills[r].size());
    EXPECT_EQ(std::memcmp(fills[0].data(), fills[r].data(),
                          fills[0].size() * sizeof(double)),
              0)
        << "run " << r;
  }
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

}  // namespace
}  // namespace neurfill
