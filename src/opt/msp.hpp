#pragma once

// Multiple-starting-points driver: the "MSP" of MSP-SQP (paper Fig. 7).
//
// The starts are independent SQP runs, so the drive runs them concurrently,
// one start per runtime::parallel_for block (docs/runtime.md).  Kernels
// inside a start then run inline — a nested parallel primitive degrades to
// serial — so a start computes exactly what it computes alone, and results
// are combined in start order: the outcome is bitwise identical at any
// thread count.
//
// The drive keeps a slot table, one slot per start (pending, in flight with
// its loop-top SqpState, or done with its SqpResult).  A table captured by
// MspOptions::on_update and handed back as `slots` continues the drive
// bitwise identically: done starts are kept, in-flight starts resume from
// their state, pending ones begin (the fill snapshot, docs/robustness.md).

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "opt/sqp.hpp"

namespace neurfill {

/// One start's entry in the slot table of an MSP drive.
struct MspSlot {
  enum class Status : std::uint8_t { kPending = 0, kInFlight = 1, kDone = 2 };
  Status status = Status::kPending;
  SqpState state;    ///< kInFlight: the start's latest loop-top state
  SqpResult result;  ///< kDone
};

struct MspOptions {
  /// Per-start SQP options.  The drive installs its own checkpoint_hook and
  /// resume; any set here are ignored.  On deadline expiry, running starts
  /// return their best point so far (timed_out) and pending ones are
  /// skipped.
  SqpOptions sqp;
  /// Stop request (borrowed): running starts stop at their next loop top
  /// and pending ones do not begin; MspOutcome::stopped reports it.
  const std::atomic<bool>* stop = nullptr;
  /// Called under the drive's mutex after start `i`'s slot changed: at each
  /// of its loop tops (`loop_top` >= 0, counted across the whole drive) and
  /// at its completion (`loop_top` < 0).  Setting it makes the drive record
  /// loop-top states in the table.  Loop tops are numbered on from the
  /// progress recorded in a resumed table (an in-flight start's iteration,
  /// a done one's iterations), so a one-start drive numbers them by SQP
  /// iteration.
  std::function<void(const std::vector<MspSlot>& slots, std::size_t i,
                     long loop_top)>
      on_update;
};

struct MspOutcome {
  /// Every done start's result, taken in start order and then sorted best
  /// (lowest f) first.
  std::vector<SqpResult> results;
  std::vector<MspSlot> slots;  ///< the final slot table
  bool timed_out = false;  ///< a start timed out, or the deadline skipped one
  bool stopped = false;    ///< the stop request ended the drive early
};

/// Runs SQP from every start (continuing `slots` when given: one entry per
/// start, or fewer, the rest pending).  The lowest start that is not done
/// always runs, even past the deadline or a stop request, so the drive
/// yields at least one result and every resumed drive makes progress.
/// Exceptions thrown by the objective propagate after every running start
/// has finished.
MspOutcome msp_sqp_minimize(const ObjectiveFn& f,
                            const std::vector<VecD>& starts, const Box& box,
                            const MspOptions& options = MspOptions(),
                            std::vector<MspSlot> slots = {});

}  // namespace neurfill
