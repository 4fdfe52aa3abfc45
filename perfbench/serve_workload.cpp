// serve_mixed: an in-process nf_serve daemon (Daemon + Server, as
// bench/bench_serve.cpp assembles it) driven in a closed loop by a few
// clients.  Each client submits a job, polls its status until it is done,
// then submits the next.  All clients share one load thread and one
// connection, so the load adds one thread and one socket to the daemon's
// own two threads and stays below the host's core count.  The job mix is
// drawn from the seed: mostly lin jobs on small designs (daemon overhead:
// protocol, admission, journal commit) and one job in ten a pkb job, which
// snapshots on every SQP iteration and holds the single worker queue ~12x
// longer.  At one in ten about a fifth of the lin jobs wait behind a pkb
// job, so the median job stays a lin job and the tail shows the
// head-of-line wait; at one in five half of them wait and the median flips
// between the two from run to run.  The lin designs are 16x16 windows
// rather than smaller: below that a lin job is mostly thread hand-offs and
// fsync waits, whose cost on a virtual machine swings with the load on the
// rest of the host.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "fill/problem.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/infer.hpp"

namespace perfbench {

using namespace neurfill;
using namespace neurfill::serve;

namespace {

constexpr int kClients = 3;
constexpr int kLinWindows = 16;
constexpr int kPkbWindows = 12;
constexpr int kPkbEvery = 10;  ///< one job in this many is pkb
constexpr auto kPollInterval = std::chrono::milliseconds(2);
/// Traced bursts are short enough for their span events to fit the
/// per-thread trace buffers.
constexpr double kTracedBurstS = 2.0;

/// A daemon with its transport and worker threads; the destructor drains
/// it and joins both.
class LiveDaemon {
 public:
  static std::unique_ptr<LiveDaemon> start(const std::string& journal_dir,
                                           const std::string& surrogate) {
    DaemonOptions dopt;
    dopt.runner.default_surrogate = surrogate;
    Expected<std::unique_ptr<Daemon>> d = Daemon::create(dopt, journal_dir);
    if (!d.ok()) throw ErrorException(d.error());
    Expected<Server> s = Server::listen(0, "");
    if (!s.ok()) throw ErrorException(s.error());
    return std::unique_ptr<LiveDaemon>(
        new LiveDaemon(std::move(*d), std::make_unique<Server>(std::move(*s))));
  }

  ~LiveDaemon() {
    daemon_->request_drain();
    worker_.join();
    transport_.join();
  }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  int port() const { return server_->port(); }

 private:
  LiveDaemon(std::unique_ptr<Daemon> d, std::unique_ptr<Server> s)
      : daemon_(std::move(d)), server_(std::move(s)) {
    transport_ = std::thread([this] { (void)server_->run(*daemon_); });
    worker_ = std::thread([this] { daemon_->run_worker(); });
  }

  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<Server> server_;
  std::thread transport_;
  std::thread worker_;
};

/// What one client saw of one job.
struct JobSample {
  const Input* design = nullptr;
  std::string out;
  bool traced = false;
  bool rejected = false;
  bool completed = false;
  std::string error;
  double latency_s = 0.0;  ///< submit sent -> completed status received
  double submit_s = 0.0;   ///< submit round trip
  double run_s = 0.0;      ///< the record's attempt runtime (sum)
  int attempts = 0;
  std::size_t dummies = 0;
  std::vector<double> status_s;  ///< every status round trip
};

/// One client's job: submitted by start(), then polled by step() until it
/// reaches a terminal state.  Latency runs from sending the submit to
/// receiving the terminal status.
class JobProbe {
 public:
  /// Submits the job; false when it was not accepted (the sample is final).
  bool start(Client& client, const Input& d, const std::string& out) {
    s_.design = &d;
    s_.out = out;
    JsonValue req = obj();
    req.object["op"] = str("submit");
    req.object["design"] = str(d.path);
    req.object["out"] = str(out);
    req.object["method"] = str(d.key.substr(0, d.key.find('_')));
    t0_ = Clock::now();
    Expected<JsonValue> reply = client.request(req);
    s_.submit_s = seconds_since(t0_);
    if (!reply.ok()) {
      s_.error = "submit: " + reply.error().to_string();
      return false;
    }
    if (!reply->get_bool("ok")) {
      s_.rejected = true;
      s_.error = "submit rejected: " + json_render(*reply);
      return false;
    }
    status_.object["op"] = str("status");
    status_.object["id"] = str(reply->get_string("id"));
    return true;
  }

  /// Polls the job once; true when it is over (the sample is final).
  bool step(Client& client) {
    const auto tp = Clock::now();
    Expected<JsonValue> st = client.request(status_);
    s_.status_s.push_back(seconds_since(tp));
    if (!st.ok() || !st->get_bool("ok")) {
      s_.error = "status: " + (st.ok() ? json_render(*st)
                                       : st.error().to_string());
      return true;
    }
    const JsonValue& job = st->object["job"];
    const std::string state = job.get_string("state");
    if (state != "completed" && state != "failed" && state != "cancelled")
      return false;
    s_.latency_s = seconds_since(t0_);
    const auto it = job.object.find("attempts");
    if (it != job.object.end())
      for (const JsonValue& a : it->second.array) {
        s_.run_s += a.get_number("runtime_s");
        ++s_.attempts;
      }
    const std::string& key = s_.design->key;
    if (state != "completed") {
      s_.error = key + " job " + state + ": " + job.get_string("error");
      return true;
    }
    const JsonValue& outcome = st->object["job"].object["outcome"];
    s_.completed = true;
    s_.dummies = static_cast<std::size_t>(outcome.get_number("dummies"));
    if (outcome.get_bool("timed_out") || outcome.get_bool("degraded"))
      s_.error = key + " job timed out or degraded";
    return true;
  }

  JobSample& sample() { return s_; }

 private:
  JobSample s_;
  JsonValue status_ = obj();
  Clock::time_point t0_;
};

/// Submits one job and polls it to a terminal state.
JobSample run_job(Client& client, const Input& d, const std::string& out) {
  JobProbe probe;
  if (probe.start(client, d, out))
    while (!probe.step(client)) std::this_thread::sleep_for(kPollInterval);
  return probe.sample();
}

JsonValue sample_json(const JobSample& s) {
  JsonValue v = obj();
  v.object["key"] = str(s.design->key);
  v.object["traced"] = json_bool(s.traced);
  v.object["completed"] = json_bool(s.completed && s.error.empty());
  v.object["rejected"] = json_bool(s.rejected);
  v.object["latency_s"] = num(s.latency_s);
  v.object["submit_s"] = num(s.submit_s);
  v.object["run_s"] = num(s.run_s);
  v.object["attempts"] = num(s.attempts);
  v.object["status_s"] = nums(s.status_s);
  return v;
}

}  // namespace

void run_serve_mixed(const Args& args, JsonValue& result) {
  const std::string dir = args.work + "/serve";
  std::filesystem::create_directories(dir + "/out");
  // Keys are "<method>_design<X>": designs 0-2 take lin jobs, 3-5 pkb.
  std::vector<Input> designs;
  std::uint64_t state = args.seed;
  for (const char* method : {"lin", "pkb"})
    for (char which : {'a', 'b', 'c'})
      designs.push_back(make_input(
          dir, std::string(method) + "_design" +
                   static_cast<char>(which - 'a' + 'A'),
          which, std::string(method) == "pkb" ? kPkbWindows : kLinWindows,
          state));
  result.object["inputs"] = input_sizes(designs);

  // Set-up: surrogate load and session compile for the pkb plane shape
  // (the daemon's runner then hits the process-wide session cache), plus
  // daemon start-up up to its first answered ping.  Extraction and
  // coefficients belong to each job, so they are computed untimed here.
  const WindowExtraction pkb_ext = extract_windows(designs[3].layout);
  const ScoreCoefficients pkb_coeffs =
      make_coefficients(designs[3].layout, pkb_ext, CmpSimulator());
  std::vector<double> setup, load, compile;
  std::unique_ptr<LiveDaemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const std::string journal = dir + "/journal";
    std::filesystem::remove_all(journal);
    clear_surrogate_inference_cache();
    const auto t0 = Clock::now();
    Expected<std::shared_ptr<CmpSurrogate>> s = load_surrogate(args.surrogate);
    if (!s.ok()) throw ErrorException(s.error());
    load.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    { const CmpNetwork network(*s, pkb_ext, pkb_coeffs); }
    compile.push_back(seconds_since(t1));
    daemon = LiveDaemon::start(journal, args.surrogate);
    Expected<Client> c = Client::connect(daemon->port());
    if (!c.ok()) throw ErrorException(c.error());
    Expected<std::string> pong = c->request_line("{\"op\":\"ping\"}");
    if (!pong.ok()) throw ErrorException(pong.error());
    setup.push_back(seconds_since(t0));
  }
  result.object["setup_s"] = nums(setup);
  result.object["surrogate.load_s"] = nums(load);
  result.object["surrogate.compile_s"] = nums(compile);

  OpLedger ops;
  DigestBook book;
  JsonValue s_qual = obj();
  std::vector<std::size_t> ref_dummies(designs.size());

  // Warm-up: one job per design, off the clock; each output gets the full
  // check and becomes the reference every later output must equal.
  {
    Expected<Client> c = Client::connect(daemon->port());
    if (!c.ok()) throw ErrorException(c.error());
    for (std::size_t k = 0; k < designs.size(); ++k) {
      const Input& d = designs[k];
      ops.attempt();
      const JobSample s = run_job(*c, d, dir + "/out/ref_" + d.key + ".glf");
      if (!s.completed || !s.error.empty()) {
        ops.fail(s.error, false);
        continue;
      }
      const OutputCheck chk = check_output(d.layout, s.out, s.dummies);
      if (!chk.ok) {
        ops.fail(chk.error, true);
        continue;
      }
      book.agree(d.key, chk.digest);
      s_qual.object[d.key] = num(chk.s_qual);
      ref_dummies[k] = s.dummies;
    }
  }

  // The closed loop.  An untraced phase is one burst of client traffic; a
  // traced phase is cut into short bursts, each ending with every client
  // idle, so the trace buffers can be folded and emptied in between.
  std::vector<JobSample> samples;
  JsonValue phases = arr();
  TraceRecorder trace;
  for (const Phase& phase : phases_for(args)) {
    if (phase.traced) trace.start();
    const IoCounters io0 = read_io();
    const auto t_phase = Clock::now();
    std::vector<std::uint64_t> rng(kClients);
    std::vector<int> job_no(kClients, 0);
    std::vector<int> pkb_slot(kClients, 0);
    for (int ci = 0; ci < kClients; ++ci)
      rng[ci] = args.seed * 1000003ull + static_cast<unsigned>(ci) +
                (phase.traced ? 500 : 0);
    int bursts = 0;
    Clock::time_point t_burst;
    do {
      if (phase.traced && bursts > 0) trace.next_round();
      t_burst = Clock::now();
      const double burst_end =
          phase.traced
              ? std::min(phase.budget_s,
                         seconds_since(t_phase) + kTracedBurstS)
              : phase.budget_s;
      // One pass over the clients per poll interval: a finished job is
      // recorded and, while the burst lasts, the client submits its next.
      Expected<Client> c = Client::connect(daemon->port());
      if (!c.ok()) {
        JobSample s;
        s.design = &designs[0];
        s.traced = phase.traced;
        s.error = "connect: " + c.error().to_string();
        samples.push_back(std::move(s));
      }
      std::vector<std::optional<JobProbe>> probes(kClients);
      for (bool busy = c.ok(); busy;) {
        const bool open = seconds_since(t_phase) < burst_end;
        busy = false;
        for (int ci = 0; ci < kClients; ++ci) {
          std::optional<JobProbe>& probe = probes[ci];
          const auto record = [&] {
            probe->sample().traced = phase.traced;
            samples.push_back(std::move(probe->sample()));
            probe.reset();
          };
          if (probe && probe->step(*c)) record();
          if (!probe && open) {
            int& n = job_no[ci];
            if (n % kPkbEvery == 0)
              pkb_slot[ci] = static_cast<int>(splitmix64(rng[ci]) % kPkbEvery);
            const bool pkb = n % kPkbEvery == pkb_slot[ci];
            const std::size_t which = splitmix64(rng[ci]) % 3;
            const Input& d = designs[(pkb ? 3 : 0) + which];
            const std::string out = dir + "/out/c" + std::to_string(ci) +
                                    (phase.traced ? "t" : "u") +
                                    std::to_string(n) + ".glf";
            ++n;
            probe.emplace();
            if (!probe->start(*c, d, out)) record();
          }
          busy = busy || probe.has_value();
        }
        if (busy) std::this_thread::sleep_for(kPollInterval);
      }
      ++bursts;
    } while (another_round(t_phase, t_burst, phase.budget_s));
    double completed = 0.0;
    for (const JobSample& s : samples)
      if (s.traced == phase.traced && s.completed) completed += 1.0;
    phases.array.push_back(phase_json(phase, t_phase, io0, completed));
    if (phase.traced)
      result.object["obs"] =
          trace.finish(args.work + "/trace.json", completed);
  }
  daemon.reset();

  // Output checks, off the clock: every output must equal its design's
  // reference bit for bit (which also makes it valid GLF with the right
  // dummy count and in-slack fill, as the reference was checked in full).
  // A design whose warm-up failed takes its first output as the reference.
  JsonValue jobs = arr();
  for (JobSample& s : samples) {
    ops.attempt();
    if (s.completed && s.error.empty()) {
      const std::size_t k =
          static_cast<std::size_t>(s.design - designs.data());
      if (!book.seen(s.design->key)) {
        const OutputCheck chk =
            check_output(s.design->layout, s.out, s.dummies);
        if (chk.ok) {
          s_qual.object[s.design->key] = num(chk.s_qual);
          ref_dummies[k] = s.dummies;
          book.agree(s.design->key, chk.digest);
        } else {
          s.error = chk.error;
        }
      }
      if (s.error.empty() && !book.agree(s.design->key, file_digest(s.out)))
        s.error = s.out + ": digest differs from the reference output";
      else if (s.error.empty() && s.dummies != ref_dummies[k])
        s.error = s.out + ": reported dummy count differs from the file";
      if (!s.error.empty()) ops.fail(s.error, true);
      std::filesystem::remove(s.out);
    } else {
      ops.fail(s.error, false);
    }
    jobs.array.push_back(sample_json(s));
  }
  result.object["jobs"] = std::move(jobs);
  result.object["phases"] = std::move(phases);
  result.object["s_qual"] = std::move(s_qual);
  result.object["digests"] = book.to_json();
  result.object["ops"] = ops.to_json();
}

}  // namespace perfbench
