#include "opt/sqp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "obs/trace.hpp"

namespace neurfill {

namespace {
double dot(const VecD& a, const VecD& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

bool all_finite(const VecD& v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// Bounded exponential-shrink retries after a poisoned evaluation.
constexpr int kMaxPoisonShrinks = 5;
}  // namespace

void LbfgsHessian::reset() {
  raw_.clear();
  terms_.clear();
  sigma_ = 1.0;
}

void LbfgsHessian::update(const VecD& s, const VecD& y) {
  const double sy = dot(s, y);
  const double ss = dot(s, s);
  if (ss <= 1e-300) return;  // zero step: nothing to learn
  raw_.push_back({s, y});
  while (static_cast<int>(raw_.size()) > memory_) raw_.pop_front();
  // Scale B0 to the newest curvature when it is positive.
  if (sy > 1e-12 * ss) sigma_ = dot(y, y) / sy;
  rebuild();
}

void LbfgsHessian::rebuild() {
  terms_.clear();
  terms_.reserve(raw_.size());
  VecD Bs;
  for (const Pair& p : raw_) {
    // Bs = B_current * s via the terms accumulated so far.
    apply(p.s, Bs);
    const double sBs = dot(p.s, Bs);
    if (sBs <= 1e-300) continue;
    double sy = dot(p.s, p.y);
    VecD y = p.y;
    // Powell damping: blend y toward Bs when curvature is weak/negative so
    // the update keeps B positive definite.
    if (sy < 0.2 * sBs) {
      const double theta = 0.8 * sBs / (sBs - sy);
      for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = theta * p.y[i] + (1.0 - theta) * Bs[i];
      sy = dot(p.s, y);
    }
    Term t;
    t.y = std::move(y);
    t.Bs = std::move(Bs);
    Bs = VecD();
    t.sy = sy;
    t.sBs = sBs;
    terms_.push_back(std::move(t));
  }
}

void LbfgsHessian::export_state(
    double* sigma, std::vector<std::pair<VecD, VecD>>* pairs) const {
  *sigma = sigma_;
  pairs->clear();
  pairs->reserve(raw_.size());
  for (const Pair& p : raw_) pairs->emplace_back(p.s, p.y);
}

void LbfgsHessian::restore_state(
    double sigma, const std::vector<std::pair<VecD, VecD>>& pairs) {
  raw_.clear();
  for (const auto& [s, y] : pairs) raw_.push_back({s, y});
  while (static_cast<int>(raw_.size()) > memory_) raw_.pop_front();
  sigma_ = sigma;
  rebuild();
}

void LbfgsHessian::apply(const VecD& v, VecD& out) const {
  out.assign(v.size(), 0.0);
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = sigma_ * v[i];
  for (const Term& t : terms_) {
    const double yv = dot(t.y, v) / t.sy;
    const double bv = dot(t.Bs, v) / t.sBs;
    for (std::size_t i = 0; i < v.size(); ++i)
      out[i] += t.y[i] * yv - t.Bs[i] * bv;
  }
}

SqpResult sqp_minimize(const ObjectiveFn& f, VecD x0, const Box& box,
                       const SqpOptions& options) {
  NF_TRACE_SPAN("opt.sqp");
  const std::size_t n = x0.size();
  if (box.lo.size() != n)
    throw std::invalid_argument("sqp_minimize: box size mismatch");
  SqpResult res;
  box.clamp(x0);
  res.x = std::move(x0);

  // Every objective evaluation funnels through here so the sqp.poison
  // fault site can poison any chosen evaluation.
  const auto eval = [&](const VecD& x, VecD* grad) -> double {
    double v = f(x, grad);
    ++res.function_evaluations;
    if (NF_FAULT("sqp.poison")) v = std::numeric_limits<double>::quiet_NaN();
    return v;
  };

  LbfgsHessian hessian(options.lbfgs_memory);
  VecD g(n), g_new(n);
  VecD trial(n), s(n), y(n);
  double fx = std::numeric_limits<double>::infinity();
  int start_it = 0;
  bool full_step_gradient = true;  // see the call schedule in sqp.hpp

  // The objective may run the reference simulator, whose deadline raises
  // ErrorException(kDeadlineExceeded) mid-evaluation.  res.x always holds
  // the last *accepted* iterate, so catching here degrades to an honest
  // best-so-far result instead of tearing down the run.
  try {
    if (options.resume) {
      const SqpState& st = *options.resume;
      NF_CHECK(st.x.size() == n && st.g.size() == n,
               "sqp resume: state dimension %zu/%zu, expected %zu",
               st.x.size(), st.g.size(), n);
      res.x = st.x;
      g = st.g;
      fx = st.f;
      start_it = st.iteration;
      res.iterations = st.iteration;
      res.function_evaluations = st.function_evaluations;
      full_step_gradient = st.full_step_gradient;
      hessian.restore_state(st.lbfgs_sigma, st.lbfgs_pairs);
    } else {
      fx = eval(res.x, &g);
      NF_CHECK(g.size() == n, "sqp: gradient size %zu, expected %zu", g.size(),
               n);
      // A poisoned *first* evaluation leaves nothing to backtrack to: the
      // start is abandoned with f = +inf so MSP sorting drops it (the
      // NMMSO analogue drops the poisoned swarm member).
      if (!std::isfinite(fx) || !all_finite(g)) {
        res.poisoned = true;
        res.f = std::numeric_limits<double>::infinity();
        return res;
      }
    }

  for (int it = start_it; it < options.max_iterations; ++it) {
    // Loop-top snapshot: with this state a restarted process re-runs
    // iteration `it` bitwise-identically (docs/robustness.md).
    if (options.checkpoint_hook) {
      SqpState st;
      st.x = res.x;
      st.g = g;
      st.f = fx;
      st.iteration = it;
      st.function_evaluations = res.function_evaluations;
      st.full_step_gradient = full_step_gradient;
      hessian.export_state(&st.lbfgs_sigma, &st.lbfgs_pairs);
      options.checkpoint_hook(st);
    }
    if (options.deadline.expired()) {
      res.timed_out = true;
      break;
    }
    res.iterations = it + 1;
    NF_TRACE_SPAN("opt.sqp_step");
    NF_COUNTER_ADD("opt.sqp_iterations", 1);
    // Convergence: projected gradient (KKT residual for box constraints).
    double pg_inf = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double pg = g[i];
      if (res.x[i] <= box.lo[i] + 1e-12 && pg > 0.0) pg = 0.0;
      if (res.x[i] >= box.hi[i] - 1e-12 && pg < 0.0) pg = 0.0;
      pg_inf = std::max(pg_inf, std::fabs(pg));
    }
    if (pg_inf < options.tolerance) {
      res.converged = true;
      break;
    }

    // QP subproblem over the shifted box lo-x <= d <= hi-x.
    Box shifted;
    shifted.lo.resize(n);
    shifted.hi.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      shifted.lo[i] = box.lo[i] - res.x[i];
      shifted.hi[i] = box.hi[i] - res.x[i];
    }
    const HessVec Bv = [&hessian](const VecD& v, VecD& out) {
      hessian.apply(v, out);
    };
    const BoxQpResult qp = solve_box_qp(Bv, g, shifted, options.qp);
    const VecD& d = qp.d;
    const double gd = dot(g, d);
    double dnorm = 0.0;
    for (const double v : d) dnorm = std::max(dnorm, std::fabs(v));
    if (dnorm < 1e-14 || gd > -1e-16) {
      // No descent available from the quadratic model.
      res.converged = pg_inf < 10.0 * options.tolerance;
      break;
    }

    // Armijo backtracking along the (feasible) SQP direction; the full step
    // carries its gradient when the last one was accepted (sqp.hpp).
    double alpha = 1.0;
    double f_trial = fx;
    bool accepted = false;
    bool have_gradient = false;
    for (int ls = 0; ls < options.max_line_search; ++ls) {
      for (std::size_t i = 0; i < n; ++i) trial[i] = res.x[i] + alpha * d[i];
      box.clamp(trial);  // guard rounding
      const bool with_gradient =
          ls == 0 && full_step_gradient && options.cheap_gradient;
      f_trial = eval(trial, with_gradient ? &g_new : nullptr);
      // A NaN trial value fails the Armijo comparison below, so a poisoned
      // line-search evaluation already degrades to "shrink and retry" —
      // just account for it.
      if (!std::isfinite(f_trial)) ++res.numeric_recoveries;
      if (f_trial <= fx + options.armijo_c1 * alpha * gd) {
        accepted = true;
        have_gradient = with_gradient;
        full_step_gradient = ls == 0;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) break;  // line search failed: stationary to our accuracy

    const double f_old = fx;
    double f_new = have_gradient ? f_trial : eval(trial, &g_new);
    NF_CHECK(g_new.size() == n, "sqp: gradient size %zu, expected %zu",
             g_new.size(), n);
    // Poisoned value/gradient mid-run: back off toward the last accepted
    // iterate with exponentially shrinking steps (bounded retries) instead
    // of aborting — one NaN would otherwise propagate through the L-BFGS
    // pairs into every later iterate.
    int shrinks = 0;
    while ((!std::isfinite(f_new) || !all_finite(g_new)) &&
           shrinks < kMaxPoisonShrinks) {
      ++shrinks;
      ++res.numeric_recoveries;
      alpha *= 0.25;
      for (std::size_t i = 0; i < n; ++i) trial[i] = res.x[i] + alpha * d[i];
      box.clamp(trial);
      f_new = eval(trial, &g_new);
    }
    if (!std::isfinite(f_new) || !all_finite(g_new)) {
      res.poisoned = true;  // unrecoverable: keep the last good iterate
      break;
    }
    // In a clean run f_new re-evaluates the accepted trial (deterministic,
    // so <= f_old by Armijo); after poison shrinks the landing point can be
    // uphill, in which case stop at the best-so-far instead of accepting.
    if (f_new > f_old) break;
    fx = f_new;
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = trial[i] - res.x[i];
      y[i] = g_new[i] - g[i];
    }
    hessian.update(s, y);
    res.x = trial;
    g = g_new;
    if (std::fabs(f_old - fx) <
        1e-12 * std::max(1.0, std::fabs(f_old))) {
      res.converged = true;
      break;
    }
  }
  } catch (const ErrorException& e) {
    if (e.err.code != ErrorCode::kDeadlineExceeded) throw;
    res.timed_out = true;
  }
  res.f = fx;
  NF_COUNTER_ADD("opt.sqp_evaluations", res.function_evaluations);
  return res;
}

}  // namespace neurfill
