// Tests for the optimization substrate: box-QP, L-BFGS Hessian, SQP, MSP.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/deadline.hpp"
#include "opt/box_qp.hpp"
#include "opt/msp.hpp"
#include "opt/sqp.hpp"
#include "runtime/parallel.hpp"

namespace neurfill {
namespace {

Box make_box(std::size_t n, double lo, double hi) {
  Box b;
  b.lo.assign(n, lo);
  b.hi.assign(n, hi);
  return b;
}

TEST(BoxQp, UnconstrainedQuadratic) {
  // q(d) = 0.5*(d-c)'D(d-c) with diagonal D -> min at d = c when inside box.
  const VecD c{1.0, -2.0, 0.5};
  const VecD D{2.0, 1.0, 4.0};
  VecD g(3);
  for (int i = 0; i < 3; ++i) g[static_cast<std::size_t>(i)] =
      -D[static_cast<std::size_t>(i)] * c[static_cast<std::size_t>(i)];
  const HessVec B = [&D](const VecD& v, VecD& out) {
    out.resize(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = D[i] * v[i];
  };
  const BoxQpResult r = solve_box_qp(B, g, make_box(3, -10.0, 10.0));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(r.d[i], c[i], 1e-6);
}

TEST(BoxQp, ActiveBoundIsRespected) {
  // Minimum at c = (3, -3) but box is [-1, 1]^2: solution clamps to (1, -1)
  // for a diagonal Hessian.
  const VecD g{-3.0, 3.0};
  const HessVec B = [](const VecD& v, VecD& out) { out = v; };
  const BoxQpResult r = solve_box_qp(B, g, make_box(2, -1.0, 1.0));
  EXPECT_NEAR(r.d[0], 1.0, 1e-8);
  EXPECT_NEAR(r.d[1], -1.0, 1e-8);
}

TEST(BoxQp, CoupledHessian) {
  // B = [[2,1],[1,2]], g = [-3,-3]: unconstrained solution d = (1,1).
  const HessVec B = [](const VecD& v, VecD& out) {
    out.resize(2);
    out[0] = 2.0 * v[0] + v[1];
    out[1] = v[0] + 2.0 * v[1];
  };
  const BoxQpResult r = solve_box_qp(B, VecD{-3.0, -3.0},
                                     make_box(2, -5.0, 5.0));
  EXPECT_NEAR(r.d[0], 1.0, 1e-6);
  EXPECT_NEAR(r.d[1], 1.0, 1e-6);
  // Partially active: box [0, 0.5] x [0, 5] forces d0 = 0.5; then
  // d1 = (3 - 0.5) / 2 = 1.25.
  Box tight;
  tight.lo = {0.0, 0.0};
  tight.hi = {0.5, 5.0};
  const BoxQpResult r2 = solve_box_qp(B, VecD{-3.0, -3.0}, tight);
  EXPECT_NEAR(r2.d[0], 0.5, 1e-6);
  EXPECT_NEAR(r2.d[1], 1.25, 1e-6);
}

TEST(BoxQp, LargerRandomProblemKktHolds) {
  Rng rng(3);
  const std::size_t n = 40;
  // SPD tridiagonal-ish Hessian.
  const HessVec B = [n](const VecD& v, VecD& out) {
    out.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += 3.0 * v[i];
      if (i > 0) out[i] += -1.0 * v[i - 1];
      if (i + 1 < n) out[i] += -1.0 * v[i + 1];
    }
  };
  VecD g(n);
  for (auto& v : g) v = rng.uniform(-2.0, 2.0);
  const Box box = make_box(n, -0.3, 0.3);
  const BoxQpResult r = solve_box_qp(B, g, box);
  // KKT: projected gradient ~ 0.
  VecD Bd(n);
  B(r.d, Bd);
  for (std::size_t i = 0; i < n; ++i) {
    double pg = Bd[i] + g[i];
    if (r.d[i] <= box.lo[i] + 1e-10 && pg > 0.0) pg = 0.0;
    if (r.d[i] >= box.hi[i] - 1e-10 && pg < 0.0) pg = 0.0;
    EXPECT_NEAR(pg, 0.0, 1e-5) << "KKT violated at " << i;
  }
}

TEST(LbfgsHessian, SecantConditionHolds) {
  // After update(s, y), BFGS guarantees B s = y.
  LbfgsHessian h(5);
  const VecD s{1.0, 2.0, -1.0};
  const VecD y{2.0, 1.0, 0.5};
  h.update(s, y);
  VecD Bs;
  h.apply(s, Bs);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(Bs[i], y[i], 1e-10);
}

TEST(LbfgsHessian, StaysPositiveDefinite) {
  Rng rng(5);
  LbfgsHessian h(6);
  for (int k = 0; k < 20; ++k) {
    VecD s(4), y(4);
    for (auto& v : s) v = rng.uniform(-1, 1);
    for (auto& v : y) v = rng.uniform(-1, 1);  // may violate curvature
    h.update(s, y);
    VecD v(4), Bv;
    for (auto& x : v) x = rng.uniform(-1, 1);
    h.apply(v, Bv);
    double vBv = 0.0;
    for (std::size_t i = 0; i < 4; ++i) vBv += v[i] * Bv[i];
    EXPECT_GT(vBv, 0.0) << "after update " << k;
  }
}

TEST(Sqp, ConvexQuadraticConverges) {
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    double v = 0.0;
    if (grad) grad->assign(x.size(), 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double c = static_cast<double>(i) - 1.0;
      v += (x[i] - c) * (x[i] - c);
      if (grad) (*grad)[i] = 2.0 * (x[i] - c);
    }
    return v;
  };
  const SqpResult r =
      sqp_minimize(f, VecD{5.0, 5.0, 5.0}, make_box(3, -10.0, 10.0));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], -1.0, 1e-4);
  EXPECT_NEAR(r.x[1], 0.0, 1e-4);
  EXPECT_NEAR(r.x[2], 1.0, 1e-4);
}

TEST(Sqp, RosenbrockWithinBox) {
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    if (grad) {
      (*grad).assign(2, 0.0);
      (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
      (*grad)[1] = 200.0 * b;
    }
    return a * a + 100.0 * b * b;
  };
  SqpOptions opt;
  opt.max_iterations = 300;
  const SqpResult r = sqp_minimize(f, VecD{-1.2, 1.0},
                                   make_box(2, -2.0, 2.0), opt);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(Sqp, BindingBoundSolution) {
  // min (x+2)^2 with x in [0, 1]: solution is at the lower bound 0.
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    if (grad) (*grad) = {2.0 * (x[0] + 2.0)};
    return (x[0] + 2.0) * (x[0] + 2.0);
  };
  const SqpResult r = sqp_minimize(f, VecD{0.7}, make_box(1, 0.0, 1.0));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.0, 1e-8);
}

TEST(Sqp, StartOutsideBoxIsClamped) {
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    if (grad) (*grad) = {2.0 * x[0]};
    return x[0] * x[0];
  };
  const SqpResult r = sqp_minimize(f, VecD{99.0}, make_box(1, -1.0, 1.0));
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
}

TEST(Sqp, HonorsIterationBudget) {
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    if (grad) {
      (*grad) = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
    }
    return a * a + 100.0 * b * b;
  };
  SqpOptions opt;
  opt.max_iterations = 3;
  const SqpResult r =
      sqp_minimize(f, VecD{-1.2, 1.0}, make_box(2, -2.0, 2.0), opt);
  EXPECT_LE(r.iterations, 3);
}

// ------------------------------------------------- SQP call schedule

/// One objective call as the solver made it.
struct Call {
  VecD x;
  bool with_gradient = false;
};

/// Wraps `f`, recording every call.
ObjectiveFn recording(const ObjectiveFn& f, std::vector<Call>* calls) {
  return [f, calls](const VecD& x, VecD* grad) {
    calls->push_back({x, grad != nullptr});
    return f(x, grad);
  };
}

/// sum_i a_i (x_i - c_i)^2 with the given curvatures, minimum at c_i = i/n.
ObjectiveFn scaled_bowl(VecD a) {
  return [a](const VecD& x, VecD* grad) {
    double v = 0.0;
    if (grad) grad->assign(x.size(), 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double c = static_cast<double>(i) / static_cast<double>(x.size());
      v += a[i] * (x[i] - c) * (x[i] - c);
      if (grad) (*grad)[i] = 2.0 * a[i] * (x[i] - c);
    }
    return v;
  };
}

double rosenbrock(const VecD& x, VecD* grad) {
  const double a = 1.0 - x[0];
  const double b = x[1] - x[0] * x[0];
  if (grad) *grad = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
  return a * a + 100.0 * b * b;
}

double dot(const VecD& a, const VecD& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// The SQP loop as it was before the full-step gradient schedule: value-only
/// line-search trials, then one more call with the gradient at the accepted
/// point.  Returns the iterate at the top of every iteration, then the final
/// one.
std::vector<VecD> two_call_reference(const ObjectiveFn& f, VecD x,
                                     const Box& box, const SqpOptions& o) {
  const std::size_t n = x.size();
  box.clamp(x);
  VecD g(n), g_new(n), trial(n), s(n), y(n);
  double fx = f(x, &g);
  LbfgsHessian hessian(o.lbfgs_memory);
  std::vector<VecD> iterates;
  for (int it = 0; it < o.max_iterations; ++it) {
    iterates.push_back(x);
    double pg_inf = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double pg = g[i];
      if (x[i] <= box.lo[i] + 1e-12 && pg > 0.0) pg = 0.0;
      if (x[i] >= box.hi[i] - 1e-12 && pg < 0.0) pg = 0.0;
      pg_inf = std::max(pg_inf, std::fabs(pg));
    }
    if (pg_inf < o.tolerance) break;
    Box shifted;
    for (std::size_t i = 0; i < n; ++i) {
      shifted.lo.push_back(box.lo[i] - x[i]);
      shifted.hi.push_back(box.hi[i] - x[i]);
    }
    const VecD d =
        solve_box_qp([&](const VecD& v, VecD& out) { hessian.apply(v, out); },
                     g, shifted, o.qp)
            .d;
    const double gd = dot(g, d);
    double dnorm = 0.0;
    for (const double v : d) dnorm = std::max(dnorm, std::fabs(v));
    if (dnorm < 1e-14 || gd > -1e-16) break;
    double alpha = 1.0;
    bool accepted = false;
    for (int ls = 0; ls < o.max_line_search; ++ls) {
      for (std::size_t i = 0; i < n; ++i) trial[i] = x[i] + alpha * d[i];
      box.clamp(trial);
      if (f(trial, nullptr) <= fx + o.armijo_c1 * alpha * gd) {
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) break;
    const double f_old = fx;
    const double f_new = f(trial, &g_new);
    if (f_new > f_old) break;
    fx = f_new;
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = trial[i] - x[i];
      y[i] = g_new[i] - g[i];
    }
    hessian.update(s, y);
    x = trial;
    g = g_new;
    if (std::fabs(f_old - fx) < 1e-12 * std::max(1.0, std::fabs(f_old))) break;
  }
  iterates.push_back(x);
  return iterates;
}

TEST(SqpSchedule, AcceptedFullStepsCostOneCallPerIteration) {
  VecD a;
  for (int i = 0; i < 20; ++i) a.push_back(0.6 + 0.04 * i);
  std::vector<Call> calls;
  SqpOptions opt;
  opt.max_iterations = 5;
  const SqpResult r = sqp_minimize(recording(scaled_bowl(a), &calls),
                                   VecD(20, 1.0), make_box(20, -2.0, 2.0), opt);
  ASSERT_EQ(r.iterations, 5);
  ASSERT_FALSE(r.converged);
  EXPECT_EQ(r.function_evaluations, 6);
  ASSERT_EQ(calls.size(), 6u);  // initial + one per iteration
  for (const Call& c : calls) EXPECT_TRUE(c.with_gradient);
}

TEST(SqpSchedule, FullStepAfterARejectedOneIsValueOnly) {
  // Curvatures 2 and 2.6 against the identity start Hessian: the first full
  // step overshoots and is rejected, the half step is accepted.
  std::vector<Call> calls;
  SqpOptions opt;
  opt.max_iterations = 3;
  sqp_minimize(recording(scaled_bowl({1.0, 1.3}), &calls), VecD{0.9, 0.2},
               make_box(2, -2.0, 2.0), opt);
  ASSERT_EQ(calls.size(), 7u);
  EXPECT_TRUE(calls[0].with_gradient);   // initial point
  EXPECT_TRUE(calls[1].with_gradient);   // full step, first iteration: asks
  EXPECT_FALSE(calls[2].with_gradient);  // half step (accepted)
  EXPECT_TRUE(calls[3].with_gradient);   // gradient at the accepted point
  EXPECT_EQ(calls[3].x, calls[2].x);
  EXPECT_FALSE(calls[4].with_gradient);  // next full step: value-only
  EXPECT_TRUE(calls[5].with_gradient);   // ... accepted, re-evaluated
  EXPECT_EQ(calls[5].x, calls[4].x);
  EXPECT_TRUE(calls[6].with_gradient);   // after an accepted full step: asks
}

TEST(SqpSchedule, ResumeKeepsTheScheduleOfTheUninterruptedRun) {
  // Same run as above.  Its loop-top state after the rejected full step
  // carries full_step_gradient = false, after the accepted one true; a run
  // resumed from either makes the uninterrupted run's remaining calls.
  const ObjectiveFn f = scaled_bowl({1.0, 1.3});
  const Box box = make_box(2, -2.0, 2.0);
  std::vector<Call> calls;
  std::vector<SqpState> states;
  SqpOptions opt;
  opt.max_iterations = 3;
  opt.checkpoint_hook = [&](const SqpState& st) { states.push_back(st); };
  const SqpResult full = sqp_minimize(recording(f, &calls), VecD{0.9, 0.2},
                                      box, opt);
  ASSERT_EQ(states.size(), 3u);
  EXPECT_TRUE(states[0].full_step_gradient);
  EXPECT_FALSE(states[1].full_step_gradient);
  EXPECT_TRUE(states[2].full_step_gradient);

  // calls[] index of each iteration's first call (see the test above).
  const std::size_t first_call[] = {1, 4, 6};
  for (std::size_t k = 1; k < states.size(); ++k) {
    std::vector<Call> resumed_calls;
    SqpOptions ropt;
    ropt.max_iterations = 3;
    ropt.resume = &states[k];
    const SqpResult resumed =
        sqp_minimize(recording(f, &resumed_calls), VecD{0.9, 0.2}, box, ropt);
    ASSERT_EQ(resumed_calls.size(), calls.size() - first_call[k])
        << "resumed at iteration " << k;
    for (std::size_t c = 0; c < resumed_calls.size(); ++c) {
      EXPECT_EQ(resumed_calls[c].x, calls[first_call[k] + c].x);
      EXPECT_EQ(resumed_calls[c].with_gradient,
                calls[first_call[k] + c].with_gradient);
    }
    EXPECT_EQ(resumed.function_evaluations, full.function_evaluations);
    EXPECT_EQ(resumed.iterations, full.iterations);
    EXPECT_EQ(resumed.x, full.x);
    EXPECT_EQ(resumed.f, full.f);
  }
}

TEST(SqpSchedule, ExpensiveGradientKeepsEveryTrialValueOnly) {
  // cheap_gradient = false (finite-difference objectives): every trial is
  // value-only and each accepted point gets one call with the gradient.
  VecD a;
  for (int i = 0; i < 20; ++i) a.push_back(0.6 + 0.04 * i);
  std::vector<Call> calls;
  SqpOptions opt;
  opt.max_iterations = 5;
  opt.cheap_gradient = false;
  const SqpResult r = sqp_minimize(recording(scaled_bowl(a), &calls),
                                   VecD(20, 1.0), make_box(20, -2.0, 2.0), opt);
  ASSERT_EQ(r.iterations, 5);
  ASSERT_EQ(calls.size(), 11u);  // initial + two per iteration
  EXPECT_TRUE(calls[0].with_gradient);
  for (std::size_t c = 1; c < calls.size(); c += 2) {
    EXPECT_FALSE(calls[c].with_gradient);
    EXPECT_TRUE(calls[c + 1].with_gradient);
    EXPECT_EQ(calls[c + 1].x, calls[c].x);
  }
}

TEST(SqpSchedule, IteratesEqualTheTwoCallLineSearch) {
  for (const bool rosen : {true, false}) {
    const ObjectiveFn f = rosen ? ObjectiveFn(rosenbrock)
                                : scaled_bowl({1.0, 1.3, 0.2, 3.0});
    const VecD x0 = rosen ? VecD{-1.2, 1.0} : VecD{1.5, -1.0, 0.3, 0.9};
    const Box box = make_box(x0.size(), -2.0, 2.0);
    SqpOptions opt;
    opt.max_iterations = rosen ? 60 : 20;
    std::vector<VecD> iterates;
    opt.checkpoint_hook = [&](const SqpState& st) { iterates.push_back(st.x); };
    const SqpResult r = sqp_minimize(f, x0, box, opt);
    iterates.push_back(r.x);
    opt.checkpoint_hook = nullptr;
    const std::vector<VecD> ref = two_call_reference(f, x0, box, opt);
    ASSERT_EQ(iterates.size(), ref.size()) << "rosenbrock=" << rosen;
    for (std::size_t k = 0; k < ref.size(); ++k)
      EXPECT_EQ(iterates[k], ref[k]) << "iterate " << k;
  }
}

TEST(MspSqp, PicksBestBasinOfMultimodal) {
  // f(x) = (x^2 - 1)^2 + 0.1*x has minima near -1 (lower) and +1.
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    const double v = x[0] * x[0] - 1.0;
    if (grad) (*grad) = {4.0 * x[0] * v + 0.1};
    return v * v + 0.1 * x[0];
  };
  const std::vector<VecD> starts{{0.9}, {-0.9}, {1.5}};
  const auto results =
      msp_sqp_minimize(f, starts, make_box(1, -2.0, 2.0)).results;
  ASSERT_EQ(results.size(), 3u);
  // Sorted best first; best basin is x ~ -1.
  EXPECT_LT(results[0].x[0], 0.0);
  EXPECT_LE(results[0].f, results[1].f);
  EXPECT_LE(results[1].f, results[2].f);
}

/// A bumpy 6-D landscape whose starts take different iteration counts, so
/// concurrent starts finish out of order.
double bumpy(const VecD& x, VecD* grad) {
  double v = 0.0;
  if (grad) grad->assign(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double c = 0.1 * static_cast<double>(i);
    v += (x[i] - c) * (x[i] - c) + 0.3 * std::sin(5.0 * x[i]);
    if (grad) (*grad)[i] = 2.0 * (x[i] - c) + 1.5 * std::cos(5.0 * x[i]);
  }
  return v;
}

std::vector<VecD> bumpy_starts(int count) {
  Rng rng(29);
  std::vector<VecD> starts(static_cast<std::size_t>(count), VecD(6));
  for (VecD& s : starts)
    for (double& v : s) v = rng.uniform(-2.0, 2.0);
  return starts;
}

/// `bumpy`, counting its calls.
ObjectiveFn counted_bumpy(std::atomic<long>* calls) {
  return [calls](const VecD& x, VecD* grad) {
    calls->fetch_add(1);
    return bumpy(x, grad);
  };
}

/// Objective calls a slot table already accounts for.
long recorded_calls(const std::vector<MspSlot>& slots) {
  long calls = 0;
  for (const MspSlot& slot : slots) {
    if (slot.status == MspSlot::Status::kDone)
      calls += slot.result.function_evaluations;
    else if (slot.status == MspSlot::Status::kInFlight)
      calls += slot.state.function_evaluations;
  }
  return calls;
}

long total_calls(const MspOutcome& out) {
  long calls = 0;
  for (const SqpResult& r : out.results) calls += r.function_evaluations;
  return calls;
}

::testing::AssertionResult same_results(const std::vector<SqpResult>& a,
                                        const std::vector<SqpResult>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << a.size() << " vs " << b.size();
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].x.size() != b[k].x.size() ||
        std::memcmp(a[k].x.data(), b[k].x.data(),
                    a[k].x.size() * sizeof(double)) != 0 ||
        std::memcmp(&a[k].f, &b[k].f, sizeof(double)) != 0 ||
        a[k].iterations != b[k].iterations ||
        a[k].function_evaluations != b[k].function_evaluations)
      return ::testing::AssertionFailure() << "result " << k << " differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(MspSqp, ConcurrentStartsMatchTheSerialDriveBitwise) {
  // More starts than workers: results, evaluation counts and iterations are
  // the serial drive's at every thread count.
  const std::vector<VecD> starts = bumpy_starts(11);
  const Box box = make_box(6, -2.0, 2.0);
  runtime::set_thread_count(1);
  const MspOutcome serial = msp_sqp_minimize(bumpy, starts, box);
  ASSERT_EQ(serial.results.size(), starts.size());
  for (const int threads : {2, 4, 8}) {
    runtime::set_thread_count(threads);
    const MspOutcome concurrent = msp_sqp_minimize(bumpy, starts, box);
    EXPECT_TRUE(same_results(concurrent.results, serial.results))
        << threads << " threads";
  }
  runtime::set_thread_count(0);
  for (std::size_t k = 1; k < serial.results.size(); ++k)
    EXPECT_LE(serial.results[k - 1].f, serial.results[k].f);
}

TEST(MspSqp, ResumedSlotTableContinuesBitwise) {
  // Capture the table mid-drive (a done prefix, one start in flight, the
  // rest pending), then mid-drive at 4 threads (several in flight); either
  // table continues to the uninterrupted results at 4 threads, making only
  // the calls the table does not already account for (in-flight starts
  // continue from their state instead of starting over).
  const std::vector<VecD> starts = bumpy_starts(7);
  const Box box = make_box(6, -2.0, 2.0);
  const MspOutcome full = msp_sqp_minimize(bumpy, starts, box);
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    std::vector<MspSlot> captured;
    MspOptions mo;
    mo.on_update = [&](const std::vector<MspSlot>& slots, std::size_t,
                       long loop_top) {
      if (loop_top == 9) captured = slots;
    };
    const MspOutcome recorded = msp_sqp_minimize(bumpy, starts, box, mo);
    EXPECT_TRUE(same_results(recorded.results, full.results));
    ASSERT_EQ(captured.size(), starts.size()) << threads << " threads";
    if (threads == 1) {
      EXPECT_EQ(captured.back().status, MspSlot::Status::kPending);
    }
    runtime::set_thread_count(4);
    std::atomic<long> calls{0};
    const MspOutcome resumed = msp_sqp_minimize(
        counted_bumpy(&calls), starts, box, MspOptions(), captured);
    EXPECT_TRUE(same_results(resumed.results, full.results))
        << "captured at " << threads << " threads";
    EXPECT_GT(recorded_calls(captured), 0);
    EXPECT_EQ(calls.load(), total_calls(full) - recorded_calls(captured));
  }
  runtime::set_thread_count(0);
}

TEST(MspSqp, StopLeavesRunningStartsInFlight) {
  // A stop request raised at a loop top: every running start stops at its
  // next loop top, pending starts do not begin, and the table resumes to
  // the uninterrupted results.
  const std::vector<VecD> starts = bumpy_starts(9);
  const Box box = make_box(6, -2.0, 2.0);
  const MspOutcome full = msp_sqp_minimize(bumpy, starts, box);
  runtime::set_thread_count(4);
  std::atomic<bool> stop{false};
  MspOptions mo;
  mo.stop = &stop;
  mo.on_update = [&](const std::vector<MspSlot>&, std::size_t, long loop_top) {
    if (loop_top == 3) stop.store(true);
  };
  const MspOutcome stopped = msp_sqp_minimize(bumpy, starts, box, mo);
  EXPECT_TRUE(stopped.stopped);
  std::size_t open = 0;
  for (const MspSlot& slot : stopped.slots)
    open += slot.status != MspSlot::Status::kDone ? 1 : 0;
  EXPECT_GT(open, 0u);
  std::atomic<long> calls{0};
  const MspOutcome resumed = msp_sqp_minimize(
      counted_bumpy(&calls), starts, box, MspOptions(), stopped.slots);
  EXPECT_FALSE(resumed.stopped);
  EXPECT_TRUE(same_results(resumed.results, full.results));
  EXPECT_EQ(calls.load(), total_calls(full) - recorded_calls(stopped.slots));
  runtime::set_thread_count(0);
}

TEST(MspSqp, ExpiredDeadlineRunsOnlyTheFirstOpenStart) {
  const std::vector<VecD> starts = bumpy_starts(5);
  const Box box = make_box(6, -2.0, 2.0);
  runtime::set_thread_count(4);
  MspOptions mo;
  mo.sqp.deadline = Deadline::after_seconds(0.0);
  const MspOutcome out = msp_sqp_minimize(bumpy, starts, box, mo);
  runtime::set_thread_count(0);
  EXPECT_TRUE(out.timed_out);
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_TRUE(out.results[0].timed_out);
  EXPECT_EQ(out.slots[0].status, MspSlot::Status::kDone);
  for (std::size_t i = 1; i < out.slots.size(); ++i)
    EXPECT_EQ(out.slots[i].status, MspSlot::Status::kPending);
}

TEST(NumericalGradient, MatchesAnalytic) {
  const ObjectiveFn f = [](const VecD& x, VecD*) {
    return std::sin(x[0]) + x[1] * x[1];
  };
  const VecD x{0.3, -0.7};
  const VecD g = numerical_gradient(f, x, 1e-6);
  EXPECT_NEAR(g[0], std::cos(0.3), 1e-6);
  EXPECT_NEAR(g[1], -1.4, 1e-6);
}

}  // namespace
}  // namespace neurfill
