#pragma once

// Optimization snapshot for interruption-safe NeurFill runs
// (docs/robustness.md): the complete MSP-SQP drive state of a pkb/mm run —
// the start list and its slot table (each start pending, in flight with its
// loop-top SqpState, or done with its SqpResult).  nf_fill writes one
// periodically (--snapshot) and `--resume` continues from it; because SQP
// is deterministic from its loop-top state, a resumed run produces a fill
// bitwise identical to the uninterrupted one (tests/resume_kill_test.sh).

#include <string>
#include <vector>

#include "common/error.hpp"
#include "opt/msp.hpp"

namespace neurfill {

struct FillSnapshot {
  std::string method;    ///< "pkb" | "mm"; resume refuses a mismatch
  std::size_t dims = 0;  ///< flattened variable count; resume refuses a mismatch
  /// Objective evaluations at capture time: the start-list phase's plus
  /// every slot's (a done result's or an in-flight state's count).
  long evaluations = 0;
  std::vector<VecD> starts;    ///< full MSP start list (phase complete)
  std::vector<MspSlot> slots;  ///< one per start; missing entries are pending
};

/// Atomic (write-temp + rename), CRC-checksummed NFCP write.  A table of
/// done starts, then at most one in flight, then pending ones is written in
/// the version-1 layout (the serial drive's); any other table as a
/// version-2 slot table.
[[nodiscard]] Expected<void> save_fill_snapshot(const FillSnapshot& snap,
                                  const std::string& path);

/// Reads either version.  kNotFound when absent, kCorrupt (naming
/// file/section) on damage.
[[nodiscard]] Expected<FillSnapshot> load_fill_snapshot(const std::string& path);

}  // namespace neurfill
