#pragma once

// Shared pieces of the perfbench harness (see run.py for the benchmark as a
// whole).  The harness runs one workload, times its own calls into the
// NeurFill modules, checks every output, and writes the raw samples as one
// JSON document; run.py turns them into the reported metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geom/layout.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using neurfill::serve::JsonValue;
using Clock = std::chrono::steady_clock;

/// Filling-window edge of every generated design (the paper's 100 um).
constexpr double kWindowUm = 100.0;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 25;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;       ///< scratch directory for inputs and outputs
  std::string surrogate;  ///< surrogate weight prefix
  std::string out;        ///< raw JSON result path
};

/// One timed phase of a run.  A --trace 0 run is a single untraced phase;
/// a --trace 1 run splits the budget into an untraced and a traced phase so
/// the tracing overhead is their difference.
struct Phase {
  bool traced = false;
  double budget_s = 0.0;
};
std::vector<Phase> phases_for(const Args& args);

/// Whether a phase starts another round: it does while the time spent plus
/// half the last round's length fits the budget, so a phase ends within
/// about half a round of its budget rather than up to a whole round late.
inline bool another_round(Clock::time_point phase_start,
                          Clock::time_point round_start, double budget_s) {
  return seconds_since(phase_start) + 0.5 * seconds_since(round_start) <
         budget_s;
}

/// Records a traced phase through the program's obs registry.  start()
/// empties and enables recording; next_round() folds the finished round's
/// span events into per-name self times and empties the per-thread event
/// buffers, which hold a round but not always a whole phase; finish()
/// folds the last round, writes its events as a chrome://tracing file,
/// stops recording and returns span totals, counters, self times and the
/// dropped-event count.  Rounds start and end with every worker idle.
/// A span's self time is its duration minus the part of it its direct
/// children cover; a child is a span on the same thread that starts inside
/// its parent (RAII spans nest).
class TraceRecorder {
 public:
  void start();
  void next_round();
  JsonValue finish(const std::string& trace_path, double rounds);

 private:
  void fold();
  std::map<std::string, double> self_s_;
  double dropped_ = 0.0;
};

/// Write-side I/O of this process so far (/proc/self/io wchar and syscw).
struct IoCounters {
  double write_bytes = 0.0;
  double write_calls = 0.0;
};
IoCounters read_io();

/// Summary of one finished phase: traced flag, elapsed time, the jobs it
/// completed (`units`) and its write-side I/O.
JsonValue phase_json(const Phase& phase, Clock::time_point t0,
                     const IoCounters& io0, double units);

/// FNV-1a 64 over the file's bytes; 0 when it cannot be read.
std::uint64_t file_digest(const std::string& path);

/// Result of checking one filled output against its input.
struct OutputCheck {
  bool ok = false;
  std::string error;          ///< first failed check, empty when ok
  std::uint64_t digest = 0;   ///< of the output bytes
  double s_qual = 0.0;        ///< Eq. 5 quality of the realized fill
};

/// Re-reads `out_path` as GLF and checks that it holds `expected_dummies`
/// dummies and that every window's realized fill lies in [0, slack] of the
/// unfilled `input`.  The realized fill is scored with the reference
/// simulator (S_qual, no runtime/memory terms).
OutputCheck check_output(const neurfill::Layout& input,
                         const std::string& out_path,
                         std::size_t expected_dummies);

/// Tracks the bitwise-determinism contract: every output produced for the
/// same key during one run must have the same digest.
class DigestBook {
 public:
  /// Records `digest` under `key`; false if the key already had another.
  bool agree(const std::string& key, std::uint64_t digest) {
    const auto [it, inserted] = digests_.emplace(key, digest);
    return inserted || it->second == digest;
  }
  bool seen(const std::string& key) const { return digests_.count(key) != 0; }
  JsonValue to_json() const;

 private:
  std::map<std::string, std::uint64_t> digests_;
};

/// Counts operations attempted and failed and keeps the first few reasons.
struct OpLedger {
  long attempted = 0;
  long failed = 0;
  bool correct = true;  ///< false once any output check fails
  std::vector<std::string> errors;
  void attempt() { ++attempted; }
  void fail(const std::string& why, bool output_wrong);
  JsonValue to_json() const;
};

// JSON building shorthands.
JsonValue num(double v);
JsonValue str(const std::string& s);
JsonValue nums(const std::vector<double>& v);
JsonValue obj();
JsonValue arr();

/// SplitMix64: advances `state` and returns the next draw.  Every input a
/// workload generates is drawn from --seed through this.
std::uint64_t splitmix64(std::uint64_t& state);

/// One generated input design, written to disk as GLF.
struct Input {
  std::string key;   ///< names the design in digests and S_qual
  std::string path;  ///< the GLF file the program reads
  neurfill::Layout layout;
};

/// Generates design `which` ('a', 'b' or 'c') of `windows` x `windows`
/// 100 um windows from the next draw of `state`, and writes it to
/// `dir`/`key`.glf.
Input make_input(const std::string& dir, const std::string& key, char which,
                 int windows, std::uint64_t& state);

/// Sizes of the generated inputs (recorded in the result).
JsonValue input_sizes(const std::vector<Input>& inputs);

// Workload entry points; each fills `result` and throws when the workload
// cannot run at all (failed operations are recorded, not thrown).
void run_fill_pkb(const Args& args, JsonValue& result);
void run_fill_mm(const Args& args, JsonValue& result);
void run_fullchip_tiled(const Args& args, JsonValue& result);
void run_serve_mixed(const Args& args, JsonValue& result);

/// Checks the harness's own arithmetic (span self times); 0 when it holds.
int self_test();

}  // namespace perfbench
