#pragma once

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "opt/box_qp.hpp"
#include "opt/objective.hpp"

namespace neurfill {

/// Limited-memory BFGS approximation of the *direct* Hessian B (not its
/// inverse), kept as B = sigma*I plus a sum of rank-2 terms so that
/// Hessian-vector products for the box-QP subproblem cost O(m n).
/// Powell damping keeps B positive definite when curvature is poor.
class LbfgsHessian {
 public:
  explicit LbfgsHessian(int memory = 8) : memory_(memory) {}

  void reset();
  /// Feeds the step s = x_{k+1} - x_k and gradient change y = g_{k+1} - g_k.
  void update(const VecD& s, const VecD& y);
  /// out = B * v.
  void apply(const VecD& v, VecD& out) const;
  bool empty() const { return raw_.empty(); }

  /// Checkpoint support (docs/robustness.md): the raw (s, y) history plus
  /// sigma fully determine the Hessian — restore_state rebuilds the damped
  /// terms from them, bitwise identically to the original incremental
  /// construction.
  void export_state(double* sigma,
                    std::vector<std::pair<VecD, VecD>>* pairs) const;
  void restore_state(double sigma,
                     const std::vector<std::pair<VecD, VecD>>& pairs);

 private:
  struct Pair {
    VecD s, y;
  };
  struct Term {
    VecD y, Bs;
    double sy = 0.0, sBs = 0.0;
  };
  void rebuild();

  int memory_;
  double sigma_ = 1.0;
  std::deque<Pair> raw_;
  std::vector<Term> terms_;
};

/// Complete loop-top state of an SQP run: everything needed to continue the
/// iteration bitwise-identically after a process restart.  Captured by
/// SqpOptions::checkpoint_hook at the top of every iteration; fed back via
/// SqpOptions::resume.
struct SqpState {
  VecD x;                 ///< current iterate (last accepted point)
  VecD g;                 ///< gradient at x
  double f = 0.0;         ///< objective at x
  int iteration = 0;      ///< 0-based index of the iteration about to run
  int function_evaluations = 0;
  double lbfgs_sigma = 1.0;
  std::vector<std::pair<VecD, VecD>> lbfgs_pairs;  ///< raw (s, y) history
  /// Whether iteration `iteration` asks for the gradient together with its
  /// full-step value when SqpOptions::cheap_gradient is set (the previous
  /// iteration accepted its full step, or it is the first); see
  /// sqp_minimize.
  bool full_step_gradient = true;
};

struct SqpOptions {
  int max_iterations = 100;
  double tolerance = 1e-6;  ///< on the projected-gradient infinity norm
  int lbfgs_memory = 8;
  double armijo_c1 = 1e-4;
  int max_line_search = 30;
  BoxQpOptions qp;
  /// Expiry returns the best-so-far iterate with timed_out set.
  Deadline deadline;
  /// Called at the top of every iteration with the loop-top state.
  std::function<void(const SqpState&)> checkpoint_hook;
  /// When non-null, skip the initial evaluation and continue from this
  /// state (borrowed; must outlive the call).
  const SqpState* resume = nullptr;
  /// The objective's gradient costs about as much as a value call (an
  /// adjoint pass).  Enables the full-step gradient schedule of
  /// sqp_minimize; an objective with finite-difference gradients (n + 1
  /// value calls each) clears it, so no gradient is ever discarded.
  bool cheap_gradient = true;
};

struct SqpResult {
  VecD x;
  double f = 0.0;
  int iterations = 0;
  int function_evaluations = 0;
  bool converged = false;
  bool timed_out = false;  ///< deadline expired; x is the best-so-far point
  /// The run hit unrecoverable numeric poison: x/f are the last good
  /// iterate (or the clamped start with f = +inf when the very first
  /// evaluation was poisoned, so MSP sorting drops the start).
  bool poisoned = false;
  /// Poisoned evaluations recovered by backtracking (exponential shrink).
  int numeric_recoveries = 0;
};

/// Bound-constrained SQP (the optimizer of the NeurFill framework, Fig. 7):
/// at each iterate a quadratic model with L-BFGS Hessian is minimized over
/// the shifted box (the QP subproblem, Eq. 5d being the only constraints),
/// followed by an Armijo backtracking line search.  Minimizes f; callers
/// maximizing a score pass its negation.
///
/// Call schedule: with options.cheap_gradient, the line search evaluates
/// the full step (alpha = 1) together with its gradient when the previous
/// iteration accepted its own full step (and on the first iteration); if
/// the full step is accepted again, that one call supplies the new
/// iterate's value and gradient.  Otherwise trial steps are value-only and
/// the accepted point is re-evaluated with its gradient.  A run whose full
/// steps are accepted thus costs one objective call per iteration, and a
/// rejected full step wastes one gradient.  Without cheap_gradient every
/// trial is value-only (two calls per iteration).  The iterates do not
/// depend on the schedule: f(x, &g) must return the same value as
/// f(x, nullptr).
SqpResult sqp_minimize(const ObjectiveFn& f, VecD x0, const Box& box,
                       const SqpOptions& options = SqpOptions());

/// Multiple-starting-points driver (the "MSP" of MSP-SQP): runs SQP from
/// every start and returns the results sorted best (lowest f) first.
std::vector<SqpResult> msp_sqp_minimize(const ObjectiveFn& f,
                                        const std::vector<VecD>& starts,
                                        const Box& box,
                                        const SqpOptions& options = SqpOptions());

}  // namespace neurfill
