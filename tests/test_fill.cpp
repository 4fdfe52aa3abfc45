// Tests for the fill framework: metrics, PD estimation, PKB, problem
// plumbing, coefficients, the rule-based baselines, and fill snapshots.

#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/checkpoint.hpp"
#include "fill/baselines.hpp"
#include "fill/metrics.hpp"
#include "fill/pd_model.hpp"
#include "fill/problem.hpp"
#include "fill/snapshot.hpp"
#include "geom/designs.hpp"

namespace neurfill {
namespace {

CmpProcessParams fast_params() {
  CmpProcessParams p;
  p.polish_time_s = 15.0;
  p.dt_s = 1.0;
  return p;
}

FillProblem make_problem(char design, int windows) {
  const Layout layout = make_design(design, windows, 100.0, 3);
  WindowExtraction ext = extract_windows(layout);
  CmpSimulator sim(fast_params());
  ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
  return FillProblem(std::move(ext), std::move(sim), std::move(coeffs));
}

TEST(Metrics, FlatProfileIsPerfect) {
  const std::vector<GridD> h{GridD(4, 4, 100.0), GridD(4, 4, 250.0)};
  const PlanarityMetrics m = compute_planarity(h);
  EXPECT_NEAR(m.sigma, 0.0, 1e-12);
  EXPECT_NEAR(m.sigma_star, 0.0, 1e-12);
  EXPECT_NEAR(m.outliers, 0.0, 1e-12);
  EXPECT_NEAR(m.delta_h, 150.0, 1e-12);  // across layers
}

TEST(Metrics, HandComputedVariance) {
  GridD h(1, 4, 0.0);
  h(0, 0) = 1.0;
  h(0, 1) = 3.0;
  h(0, 2) = 1.0;
  h(0, 3) = 3.0;
  const PlanarityMetrics m = compute_planarity({h});
  EXPECT_NEAR(m.sigma, 1.0, 1e-12);  // mean 2, deviations +-1
  // Column means equal the values themselves (single row): sigma* = 0.
  EXPECT_NEAR(m.sigma_star, 0.0, 1e-12);
  EXPECT_NEAR(m.delta_h, 2.0, 1e-12);
}

TEST(Metrics, LineDeviationCatchesRowStripes) {
  // Two rows offset by a constant: per-column mean splits the difference.
  GridD h(2, 3, 0.0);
  for (std::size_t j = 0; j < 3; ++j) {
    h(0, j) = 10.0;
    h(1, j) = 20.0;
  }
  const PlanarityMetrics m = compute_planarity({h});
  EXPECT_NEAR(m.sigma_star, 6 * 5.0, 1e-12);
}

TEST(Metrics, ScoreFunctionClamps) {
  EXPECT_DOUBLE_EQ(ScoreCoefficients::score(0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(ScoreCoefficients::score(5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(ScoreCoefficients::score(15.0, 10.0), 0.0);
}

TEST(Metrics, QualityAssembly) {
  PlanarityMetrics pm;
  pm.sigma = 50.0;
  pm.sigma_star = 100.0;
  pm.outliers = 0.0;
  ScoreCoefficients c;
  c.beta_sigma = 100.0;
  c.beta_sigma_star = 200.0;
  c.beta_ol = 1.0;
  c.beta_ov = 1000.0;
  c.beta_fa = 1000.0;
  const QualityBreakdown q = assemble_quality(pm, 100.0, 200.0, c);
  EXPECT_NEAR(q.s_sigma, 0.5, 1e-12);
  EXPECT_NEAR(q.s_sigma_star, 0.5, 1e-12);
  EXPECT_NEAR(q.s_ol, 1.0, 1e-12);
  EXPECT_NEAR(q.s_plan, 0.2 * 0.5 + 0.2 * 0.5 + 0.15 * 1.0, 1e-12);
  EXPECT_NEAR(q.s_pd, 0.15 * 0.9 + 0.05 * 0.8, 1e-12);
  EXPECT_NEAR(q.s_qual, q.s_plan + q.s_pd, 1e-12);
}

TEST(PdModel, FourTypeSplitPriority) {
  const FourTypeSplit s = split_four_type(0.5, 0.2, 0.15, 0.1, 0.3);
  EXPECT_DOUBLE_EQ(s.x1, 0.2);
  EXPECT_DOUBLE_EQ(s.x2, 0.15);
  EXPECT_DOUBLE_EQ(s.x3, 0.1);
  EXPECT_DOUBLE_EQ(s.x4, 0.05);
  // Less fill fills only type 1.
  const FourTypeSplit t = split_four_type(0.1, 0.2, 0.15, 0.1, 0.3);
  EXPECT_DOUBLE_EQ(t.x1, 0.1);
  EXPECT_DOUBLE_EQ(t.x2 + t.x3 + t.x4, 0.0);
}

TEST(PdModel, OverlayZeroForType1OnlyFill) {
  const FillProblem p = make_problem('a', 8);
  // Fill each window with at most its type-1 capacity on the top layer
  // (no layer above -> no d-d overlay either).
  std::vector<GridD> x = p.zero_fill();
  const auto& top = p.extraction().layers.back();
  const std::size_t L = p.extraction().num_layers() - 1;
  for (std::size_t k = 0; k < top.slack.size(); ++k)
    x[L][k] = 0.5 * top.slack_type[0][k];
  const PdEstimate est = estimate_pd(p.extraction(), x);
  EXPECT_NEAR(est.overlay_um2, 0.0, 1e-9);
  EXPECT_GT(est.fill_um2, 0.0);
}

TEST(PdModel, OverlayGrowsWithSaturation) {
  const FillProblem p = make_problem('b', 8);
  std::vector<GridD> x_half = p.zero_fill();
  std::vector<GridD> x_full = p.zero_fill();
  for (std::size_t l = 0; l < x_half.size(); ++l)
    for (std::size_t k = 0; k < x_half[l].size(); ++k) {
      const double s = p.extraction().layers[l].slack[k];
      x_half[l][k] = 0.3 * s;
      x_full[l][k] = s;
    }
  const PdEstimate e1 = estimate_pd(p.extraction(), x_half);
  const PdEstimate e2 = estimate_pd(p.extraction(), x_full);
  EXPECT_GT(e2.overlay_um2, e1.overlay_um2);
  EXPECT_GT(e2.fill_um2, e1.fill_um2);
}

TEST(PdModel, GradientMatchesFiniteDifference) {
  const FillProblem p = make_problem('c', 6);
  std::vector<GridD> x = p.zero_fill();
  for (std::size_t l = 0; l < x.size(); ++l)
    for (std::size_t k = 0; k < x[l].size(); ++k)
      x[l][k] = 0.4 * p.extraction().layers[l].slack[k];
  const PdScore base = pd_score_and_gradient(p.extraction(), x,
                                             p.coefficients());
  // Probe a handful of windows.
  const double eps = 1e-7;
  for (const std::size_t k : {0UL, 7UL, 13UL, 20UL}) {
    for (std::size_t l = 0; l < x.size(); ++l) {
      if (p.extraction().layers[l].slack[k] < 1e-6) continue;
      std::vector<GridD> xp = x;
      xp[l][k] += eps;
      const PdScore up = pd_score_and_gradient(p.extraction(), xp,
                                               p.coefficients());
      const double numeric = (up.s_pd - base.s_pd) / eps;
      EXPECT_NEAR(base.grad[l][k], numeric, 1e-4 * std::fabs(numeric) + 1e-8)
          << "layer " << l << " window " << k;
    }
  }
}

TEST(Pkb, TargetDensityFillEq18) {
  const FillProblem p = make_problem('a', 8);
  const std::vector<double> td(p.extraction().num_layers(), 0.5);
  const std::vector<GridD> x = target_density_fill(p.extraction(), td);
  for (std::size_t l = 0; l < x.size(); ++l) {
    const auto& d = p.extraction().layers[l];
    for (std::size_t k = 0; k < x[l].size(); ++k) {
      const double rho = d.wire_density[k] + d.dummy_density[k];
      if (0.5 < rho) {
        EXPECT_DOUBLE_EQ(x[l][k], 0.0);
      } else if (0.5 > rho + d.slack[k]) {
        EXPECT_DOUBLE_EQ(x[l][k], d.slack[k]);
      } else {
        EXPECT_NEAR(x[l][k], 0.5 - rho, 1e-12);
      }
    }
  }
}

TEST(Pkb, PicksBestOfLinearSearch) {
  const FillProblem p = make_problem('a', 8);
  int calls = 0;
  const auto quality = [&](const std::vector<GridD>& x) {
    ++calls;
    double total = 0.0;
    for (const auto& g : x)
      for (const double v : g) total += v;
    return -std::fabs(total - 5.0);  // prefer ~5 window-areas of fill
  };
  const std::vector<GridD> best = pkb_starting_point(p.extraction(), quality, 7);
  EXPECT_EQ(calls, 7);
  double total = 0.0;
  for (const auto& g : best)
    for (const double v : g) total += v;
  // The chosen candidate must be at least as good as the extremes.
  EXPECT_LT(std::fabs(total - 5.0), 40.0);
}

TEST(Problem, FlattenRoundTrip) {
  const FillProblem p = make_problem('b', 8);
  std::vector<GridD> x = p.zero_fill();
  x[1](2, 3) = 0.25;
  x[2](0, 0) = 0.1;
  const VecD v = p.flatten(x);
  EXPECT_EQ(v.size(), p.num_vars());
  const std::vector<GridD> back = p.unflatten(v);
  EXPECT_EQ(back[1](2, 3), 0.25);
  EXPECT_EQ(back[2](0, 0), 0.1);
  EXPECT_EQ(back[0](5, 5), 0.0);
}

TEST(Problem, BoundsMatchSlack) {
  const FillProblem p = make_problem('c', 8);
  const Box b = p.bounds();
  EXPECT_EQ(b.lo.size(), p.num_vars());
  std::size_t k = 0;
  for (const auto& layer : p.extraction().layers)
    for (const double s : layer.slack) {
      EXPECT_DOUBLE_EQ(b.lo[k], 0.0);
      EXPECT_DOUBLE_EQ(b.hi[k], std::max(0.0, s));
      ++k;
    }
}

TEST(Problem, CoefficientsCalibratedToUnfilled) {
  const Layout layout = make_design('a', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  const CmpSimulator sim(fast_params());
  const ScoreCoefficients c = make_coefficients(layout, ext, sim);
  // By construction the unfilled design scores ~0 on sigma.
  FillProblem p(ext, sim, c);
  const QualityBreakdown q0 = p.evaluate(p.zero_fill());
  EXPECT_NEAR(q0.s_sigma, 0.0, 1e-9);
  EXPECT_NEAR(q0.s_fa, 1.0, 1e-12);  // no fill -> full fill-amount score
  EXPECT_GT(c.beta_fs, 0.0);
}

TEST(Problem, SimulatorObjectiveNumericalGradientDirection) {
  // The black-box objective must report that filling a sparse window
  // improves quality (negative gradient entry).
  const FillProblem p = make_problem('a', 6);
  const ObjectiveFn obj = p.make_simulator_objective();
  VecD v(p.num_vars(), 0.0);
  const Box b = p.bounds();
  // Find the variable with the largest slack (sparsest window).
  std::size_t pick = 0;
  for (std::size_t i = 0; i < v.size(); ++i)
    if (b.hi[i] > b.hi[pick]) pick = i;
  VecD grad;
  obj(v, &grad);
  EXPECT_LT(grad[pick], 0.0);
}

TEST(Baselines, LinReducesDensityVariance) {
  const FillProblem p = make_problem('a', 8);
  const FillRunResult lin = lin_rule_fill(p);
  EXPECT_EQ(lin.method, "Lin");
  const Box b = p.bounds();
  const VecD v = p.flatten(lin.x);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_GE(v[i], -1e-12);
    EXPECT_LE(v[i], b.hi[i] + 1e-12);
  }
  // Density variance after fill < before, on every layer.
  for (std::size_t l = 0; l < p.extraction().num_layers(); ++l) {
    const auto& d = p.extraction().layers[l];
    double m0 = 0.0, m1 = 0.0;
    const std::size_t n = d.slack.size();
    for (std::size_t k = 0; k < n; ++k) {
      m0 += d.wire_density[k];
      m1 += d.wire_density[k] + lin.x[l][k];
    }
    m0 /= static_cast<double>(n);
    m1 /= static_cast<double>(n);
    double v0 = 0.0, v1 = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      v0 += std::pow(d.wire_density[k] - m0, 2);
      v1 += std::pow(d.wire_density[k] + lin.x[l][k] - m1, 2);
    }
    EXPECT_LT(v1, v0) << "layer " << l;
  }
}

TEST(Baselines, TaoImprovesOnLinRuleObjective) {
  const FillProblem p = make_problem('b', 8);
  const FillRunResult lin = lin_rule_fill(p);
  // With the variance term alone, Tao's SQP refinement can only improve on
  // Lin's density uniformity (SQP descends monotonically from Lin's start).
  TaoOptions topt;
  topt.weight_gradient = 0.0;
  topt.weight_fill = 0.0;
  topt.sqp.max_iterations = 25;
  const FillRunResult tao = tao_rule_sqp(p, topt);
  EXPECT_EQ(tao.method, "Tao");
  // Tao's result stays feasible.
  const Box b = p.bounds();
  const VecD v = p.flatten(tao.x);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_GE(v[i], -1e-9);
    EXPECT_LE(v[i], b.hi[i] + 1e-9);
  }
  double var_lin = 0.0, var_tao = 0.0;
  for (std::size_t l = 0; l < p.extraction().num_layers(); ++l) {
    const auto& d = p.extraction().layers[l];
    const std::size_t n = d.slack.size();
    double ml = 0.0, mt = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      ml += d.wire_density[k] + lin.x[l][k];
      mt += d.wire_density[k] + tao.x[l][k];
    }
    ml /= static_cast<double>(n);
    mt /= static_cast<double>(n);
    for (std::size_t k = 0; k < n; ++k) {
      var_lin += std::pow(d.wire_density[k] + lin.x[l][k] - ml, 2);
      var_tao += std::pow(d.wire_density[k] + tao.x[l][k] - mt, 2);
    }
  }
  EXPECT_LE(var_tao, var_lin + 1e-9);
}

TEST(Baselines, CaiImprovesQualityOverNoFill) {
  const FillProblem p = make_problem('a', 6);
  CaiOptions copt;
  copt.pkb_steps = 4;
  copt.sqp.max_iterations = 2;  // numerical gradients are expensive
  const FillRunResult cai = cai_model_fill(p, copt);
  const double q0 = p.evaluate(p.zero_fill()).s_qual;
  const double q1 = p.evaluate(cai.x).s_qual;
  EXPECT_GT(q1, q0);
  EXPECT_GT(cai.objective_evaluations, 4);
}

FillSnapshot mid_sqp_snapshot(bool full_step_gradient) {
  FillSnapshot snap;
  snap.method = "pkb";
  snap.dims = 2;
  snap.evaluations = 17;
  snap.starts = {{0.1, 0.2}};
  snap.slots.resize(1);
  snap.slots[0].status = MspSlot::Status::kInFlight;
  SqpState& st = snap.slots[0].state;
  st.x = {0.3, 0.4};
  st.g = {-1.0, 2.0};
  st.f = 0.5;
  st.iteration = 4;
  st.function_evaluations = 9;
  st.lbfgs_sigma = 1.5;
  st.lbfgs_pairs = {{{0.1, 0.0}, {0.2, 0.1}}};
  st.full_step_gradient = full_step_gradient;
  return snap;
}

TEST(FillSnapshot, RoundTripsTheSqpCallSchedule) {
  const std::string path = ::testing::TempDir() + "fill_schedule.nfcp";
  for (const bool flag : {false, true}) {
    ASSERT_TRUE(save_fill_snapshot(mid_sqp_snapshot(flag), path).ok());
    const Expected<FillSnapshot> loaded = load_fill_snapshot(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->slots.size(), 1u);
    const SqpState& st = loaded->slots[0].state;
    EXPECT_EQ(st.full_step_gradient, flag);
    EXPECT_EQ(st.x, (VecD{0.3, 0.4}));
    EXPECT_EQ(st.function_evaluations, 9);
  }
  std::remove(path.c_str());
}

TEST(FillSnapshot, SnapshotWithoutScheduleSectionStillLoads) {
  // Snapshots written before the schedule was persisted lack the section;
  // they load with the first-iteration default (ask), and a damaged
  // section is reported, not guessed.
  const std::string path = ::testing::TempDir() + "fill_schedule_src.nfcp";
  const std::string old_path = ::testing::TempDir() + "fill_schedule_old.nfcp";
  ASSERT_TRUE(save_fill_snapshot(mid_sqp_snapshot(false), path).ok());
  const Expected<CheckpointReader> reader = CheckpointReader::open(path);
  ASSERT_TRUE(reader.ok());
  for (const bool damaged : {false, true}) {
    CheckpointWriter w;
    for (const std::string& name : reader->section_names()) {
      if (name != "sqp_schedule") {
        w.add_section(name, **reader->section(name));
      } else if (damaged) {
        ByteWriter b;
        b.u64(0);  // eight bytes where a u32 belongs
        w.add_section(name, b.take());
      }
    }
    ASSERT_TRUE(w.commit(old_path).ok());
    const Expected<FillSnapshot> loaded = load_fill_snapshot(old_path);
    if (damaged) {
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.error().code, ErrorCode::kCorrupt);
    } else {
      ASSERT_TRUE(loaded.ok());
      const SqpState& st = loaded->slots[0].state;
      EXPECT_TRUE(st.full_step_gradient);
      EXPECT_EQ(st.iteration, 4);
      EXPECT_EQ(st.lbfgs_pairs.size(), 1u);
    }
  }
  std::remove(path.c_str());
  std::remove(old_path.c_str());
}

/// Three starts of two variables: start 0 in flight, 1 in flight, 2 pending,
/// 3 done — a table only a concurrent drive leaves (version 2).
FillSnapshot concurrent_snapshot() {
  FillSnapshot snap = mid_sqp_snapshot(false);
  snap.starts = {{0.1, 0.2}, {0.5, 0.6}, {0.7, 0.8}, {0.9, 0.1}};
  snap.slots.resize(4);
  snap.slots[1] = snap.slots[0];
  snap.slots[1].state.iteration = 2;
  snap.slots[1].state.full_step_gradient = true;
  snap.slots[3].status = MspSlot::Status::kDone;
  snap.slots[3].result.x = {0.25, 0.75};
  snap.slots[3].result.f = -1.5;
  snap.slots[3].result.iterations = 6;
  snap.slots[3].result.function_evaluations = 8;
  snap.slots[3].result.converged = true;
  return snap;
}

TEST(FillSnapshot, SlotTableRoundTripsInTheLayoutItNeeds) {
  const std::string path = ::testing::TempDir() + "fill_slots.nfcp";
  // A done prefix with one start in flight keeps the version-1 layout...
  FillSnapshot prefix = concurrent_snapshot();
  prefix.slots[0].status = MspSlot::Status::kDone;
  prefix.slots[0].result = prefix.slots[3].result;
  prefix.slots[3] = MspSlot();
  ASSERT_TRUE(save_fill_snapshot(prefix, path).ok());
  {
    const Expected<CheckpointReader> reader = CheckpointReader::open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader->has_section("completed"));
    EXPECT_TRUE(reader->has_section("sqp"));
    EXPECT_FALSE(reader->has_section("slots"));
    const Expected<FillSnapshot> loaded = load_fill_snapshot(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->slots.size(), 4u);
    EXPECT_EQ(loaded->slots[0].status, MspSlot::Status::kDone);
    EXPECT_EQ(loaded->slots[1].status, MspSlot::Status::kInFlight);
    EXPECT_EQ(loaded->slots[1].state.iteration, 2);
    EXPECT_EQ(loaded->slots[2].status, MspSlot::Status::kPending);
    EXPECT_EQ(loaded->slots[3].status, MspSlot::Status::kPending);
  }
  // ...any other table is written slot by slot.
  const FillSnapshot snap = concurrent_snapshot();
  ASSERT_TRUE(save_fill_snapshot(snap, path).ok());
  const Expected<CheckpointReader> reader = CheckpointReader::open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->has_section("slots"));
  EXPECT_FALSE(reader->has_section("completed"));
  const Expected<FillSnapshot> loaded = load_fill_snapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->evaluations, 17);
  EXPECT_EQ(loaded->starts, snap.starts);
  ASSERT_EQ(loaded->slots.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(loaded->slots[i].status, snap.slots[i].status) << i;
  for (const std::size_t i : {0u, 1u}) {
    const SqpState& a = loaded->slots[i].state;
    const SqpState& b = snap.slots[i].state;
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.g, b.g);
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.function_evaluations, b.function_evaluations);
    EXPECT_EQ(a.lbfgs_pairs, b.lbfgs_pairs);
    EXPECT_EQ(a.full_step_gradient, b.full_step_gradient);
  }
  const SqpResult& r = loaded->slots[3].result;
  EXPECT_EQ(r.x, (VecD{0.25, 0.75}));
  EXPECT_EQ(r.f, -1.5);
  EXPECT_EQ(r.iterations, 6);
  EXPECT_EQ(r.function_evaluations, 8);
  EXPECT_TRUE(r.converged);
  std::remove(path.c_str());
}

TEST(FillSnapshot, DamagedSlotTableIsCorrupt) {
  // The slot section carries a valid checksum but bad content: an unknown
  // status, a truncated entry, trailing bytes, a missing section.
  const std::string path = ::testing::TempDir() + "fill_slots_src.nfcp";
  const std::string bad_path = ::testing::TempDir() + "fill_slots_bad.nfcp";
  ASSERT_TRUE(save_fill_snapshot(concurrent_snapshot(), path).ok());
  const Expected<CheckpointReader> reader = CheckpointReader::open(path);
  ASSERT_TRUE(reader.ok());
  const std::vector<char> slots = **reader->section("slots");
  std::vector<char> unknown = slots;
  unknown[0] = 7;  // status of slot 0
  std::vector<char> truncated(slots.begin(), slots.end() - 4);
  std::vector<char> trailing = slots;
  trailing.push_back(0);
  const std::vector<const std::vector<char>*> variants{&unknown, &truncated,
                                                       &trailing, nullptr};
  for (const std::vector<char>* damaged : variants) {
    CheckpointWriter w;
    for (const std::string& name : reader->section_names()) {
      if (name != "slots")
        w.add_section(name, **reader->section(name));
      else if (damaged != nullptr)
        w.add_section(name, *damaged);
    }
    ASSERT_TRUE(w.commit(bad_path).ok());
    const Expected<FillSnapshot> loaded = load_fill_snapshot(bad_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::kCorrupt);
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace neurfill
