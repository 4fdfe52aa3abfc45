#!/usr/bin/env python3
"""NeurFill benchmark: one command for the whole fill system.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds the libraries (with
the repository's CMakeLists.txt) and the perfbench harness into
.bench_build/; every run then generates its inputs from --seed under
.bench_work/, runs one workload for about --seconds seconds, checks every
output, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 splits the time into an
untraced and a traced half and reports the per-layer metrics: stage times
the harness measures around each module's public calls, plus span totals,
span self times and counters from the program's obs registry, and the
tracing overhead.  The traced half's span events stay in memory; the last
traced round's are written to .bench_work/<workload>/trace.json.  The line
before the result is a report with the seed, input sizes, host facts,
output digests and the tail percentile used.

Workloads and metrics are defined in the tables below;
`--write-benchmark-json` regenerates BENCHMARK.json from them and
`--self-test` checks the benchmark's own arithmetic (test_stats.py and
the harness's span self-time computation).

The default seed is DEFAULT_SEED; CLAIM_SEED is held back for checking a
claimed gain on inputs the change was not tuned on.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import unittest

import stats

DEFAULT_SEED = 1
CLAIM_SEED = 7919
RUN_SECONDS = 22

WORKLOADS = [
    ("fill_pkb",
     "NeurFill(PKB) on Designs A, B, C at 24x24 windows, 1 thread: the "
     "serial SQP baseline with autograd gradients and visible fixed stages"),
    ("fill_mm",
     "NeurFill(MM) on Design B at 24x24 windows, 4 threads: NMMSO batched "
     "inference plus serial MSP-SQP starts, where parallel work should show"),
    ("fullchip_tiled",
     "tiled pkb on a 24x24-window Design-A die, tile 6 (16 tiles, 4 per "
     "worker at 4 threads): region index, tile store, stitch passes"),
    ("serve_mixed",
     "nf_serve daemon, 3 closed-loop clients on one thread, 9 lin jobs to 1 "
     "pkb job: protocol, admission, journal commits, head-of-line waiting"),
]

# name, unit, better, bound.  Timings get the widest bound the contract
# allows: on a shared 4-vCPU host the same work drifts 5-15% between runs
# (most on serve_mixed, whose jobs wait on fsync).  s_qual is deterministic
# per seed; its spread across seeds is the spread of the designs.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("fill_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("s_qual", "score", "higher", 0.25),
    ("success_ratio", "ratio", "higher", 0.02),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
]

# Pipeline stages the harness times around public calls (seconds per
# round; a fill_pkb round fills three designs).
STAGES = [
    "geom.read_s", "layout.extract_s", "cmp.coefficients_s",
    "fill.calibrate_s", "fill.solve_s", "layout.insert_s", "geom.write_s",
    "geom.index_s", "fullchip.fill_s",
]
# obs spans reported per round (per job on serve_mixed): total and self.
SPANS = [
    "fill.neurfill_pkb", "fill.neurfill_mm", "opt.sqp", "opt.sqp_step",
    "opt.nmmso", "opt.nmmso_batch_objective", "nn.conv2d",
    "nn.conv2d_backward", "nn.infer_run", "nn.conv2d_fused", "nn.gemm",
    "cmp.simulate", "runtime.for_blocks", "runtime.participate",
    "fullchip.tile", "serve.job_run", "serve.journal_commit",
]
COUNTERS = ["opt.sqp_evaluations", "opt.sqp_iterations", "nn.gemm_flops"]
# Self time per module, from the obs spans; span-name prefixes that belong
# to another module are mapped here.
MODULES = ["cmp", "common", "nn", "opt", "fill", "fullchip", "serve",
           "runtime", "surrogate"]
SPAN_MODULE = {"contact": "cmp", "fft": "common", "datagen": "surrogate",
               "train": "surrogate", "infer": "nn"}

PER_LAYER = (
    [(s, "s", "lower") for s in STAGES]
    + [("surrogate.load_s", "s", "lower"),
       ("surrogate.compile_s", "s", "lower"),
       ("fill.evaluations", "count", "lower"),
       ("fill.iterations", "count", "lower"),
       ("fullchip.tile_mean_ms", "ms", "lower"),
       ("fullchip.tiles_solved", "count", "lower"),
       ("fullchip.stitch_passes", "count", "lower"),
       ("fullchip.seam_p0", "fraction", "lower"),
       ("fullchip.seam_p1", "fraction", "lower"),
       ("fullchip.seam_p2", "fraction", "lower"),
       ("fullchip.busy_ratio", "ratio", "higher"),
       ("serve.submit_ms", "ms", "lower"),
       ("serve.status_ms", "ms", "lower"),
       ("serve.run_ms", "ms", "lower"),
       ("serve.queue_wait_ms", "ms", "lower"),
       ("serve.rejected", "count", "lower"),
       ("serve.retried", "count", "lower"),
       ("io.write_bytes", "bytes", "lower"),
       ("io.write_calls", "count", "lower"),
       ("failed_ratio", "ratio", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.dropped_events", "count", "lower")]
    + [(f"{s}.total_s", "s", "lower") for s in SPANS]
    + [(f"{s}.self_s", "s", "lower") for s in SPANS]
    + [(c, "count", "lower") for c in COUNTERS]
    + [("nn.gflops", "GFLOP/s", "higher"),
       ("runtime.for_blocks.calls", "count", "lower"),
       ("runtime.participate.calls", "count", "higher"),
       ("runtime.fork_ratio", "ratio", "higher")]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
)

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
SURROGATE = "data/unet_cmp"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# --------------------------------------------------------------- build

def run_logged(cmd, log_path):
    with open(log_path, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def build(root):
    """Builds the libraries and the harness; returns the harness path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(os.cpu_count() or 1)
    lib_dir = os.path.join(BUILD_DIR, "neurfill")
    harness_dir = os.path.join(BUILD_DIR, "perfbench")
    if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", lib_dir,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DNEURFILL_BUILD_TESTS=OFF",
                    "-DNEURFILL_BUILD_BENCH=OFF",
                    "-DNEURFILL_BUILD_EXAMPLES=OFF"], build_log)
    run_logged(["cmake", "--build", lib_dir, "-j", jobs], build_log)
    if not os.path.exists(os.path.join(harness_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(root, "perfbench"),
                    "-B", harness_dir, "-DCMAKE_BUILD_TYPE=Release",
                    f"-DNEURFILL_ROOT={root}",
                    f"-DNEURFILL_BUILD_DIR={os.path.abspath(lib_dir)}"],
                   build_log)
    run_logged(["cmake", "--build", harness_dir, "-j", jobs], build_log)
    return os.path.join(harness_dir, "nf_perfbench")


# ----------------------------------------------------------- host facts

def filesystem_type(path):
    """Type of the filesystem holding `path`, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.check_output(
            ["git", "-C", root, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_type():
    cache = os.path.join(BUILD_DIR, "neurfill", "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_facts(root, work, threads):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": threads,
        "work_dir_fs": filesystem_type(work),
        "build_type": build_type(),
        "git_commit": git_commit(root),
    }


# -------------------------------------------------------------- metrics

def measured(raw, traced):
    """(fill times, job latencies) of the traced or the untraced phase.

    On serve_mixed a job is one client request and a fill time is the
    daemon-side read-to-write time of a pkb job (lin jobs are daemon
    overhead, which job_p50_ms covers).  Elsewhere a job is one filled
    design and a fill time is one round, GLF read to filled GLF written.
    """
    if "jobs" in raw:
        jobs = [j for j in raw["jobs"]
                if j["traced"] == traced and j["completed"]]
        return ([j["run_s"] for j in jobs if j["key"].startswith("pkb")],
                [j["latency_s"] for j in jobs])
    rounds = [r for r in raw["rounds"]
              if r["traced"] == traced and "wall_s" in r]
    return ([r["wall_s"] for r in rounds],
            [t for r in rounds for t in r["jobs_s"]])


def end_to_end(raw):
    """The end-to-end metrics of one run, plus report details."""
    ops = raw["ops"]
    s_qual = list(raw["s_qual"].values())
    fills, latencies = measured(raw, traced=False)
    untraced = [p for p in raw["phases"] if not p["traced"]][0]
    if "jobs" in raw:
        jobs_per_s = untraced["units"] / untraced["elapsed_s"]
    else:
        jobs_per_s = len(latencies) / sum(fills)
    pct, tail = stats.tail(latencies)
    out = {
        "setup_s": statistics.median(raw["setup_s"]),
        "fill_s": statistics.median(fills),
        "peak_rss_mib": raw["peak_rss_bytes"] / 2**20,
        "s_qual": sum(s_qual) / len(s_qual) if s_qual else 0.0,
        "success_ratio":
            1.0 - stats.failed_ratio(ops["attempted"], ops["failed"]),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_tail_ms": 1e3 * tail,
        "jobs_per_s": jobs_per_s,
    }
    details = {
        "fill_s_samples": len(fills),
        "fill_s_quartiles": stats.quartiles(fills),
        "job_samples": len(latencies),
        "job_quartiles_ms": [1e3 * q for q in stats.quartiles(latencies)],
        "job_tail_percentile": pct,
    }
    return out, details


def per_layer(raw):
    """The per-layer metrics of one --trace 1 run."""
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    untraced = [p for p in raw["phases"] if not p["traced"]][0]
    m["surrogate.load_s"] = statistics.median(raw["surrogate.load_s"])
    m["surrogate.compile_s"] = statistics.median(raw["surrogate.compile_s"])
    ops = raw["ops"]
    m["failed_ratio"] = stats.failed_ratio(ops["attempted"], ops["failed"])

    if "jobs" in raw:
        done = [j for j in raw["jobs"] if j["completed"]]
        plain = [j for j in done if not j["traced"]]
        m["serve.submit_ms"] = 1e3 * statistics.median(
            [j["submit_s"] for j in plain])
        m["serve.status_ms"] = 1e3 * statistics.median(
            [t for j in plain for t in j["status_s"]])
        m["serve.run_ms"] = 1e3 * statistics.median([j["run_s"] for j in plain])
        m["serve.queue_wait_ms"] = 1e3 * statistics.median(
            [j["latency_s"] - j["run_s"] for j in plain])
        m["serve.rejected"] = sum(1 for j in raw["jobs"] if j["rejected"])
        m["serve.retried"] = sum(1 for j in done if j["attempts"] > 1)
    else:
        rounds = [r for r in raw["rounds"]
                  if not r["traced"] and "wall_s" in r]
        for name in STAGES:
            m[name] = statistics.median(
                [r["stages"].get(name, 0.0) for r in rounds])
        for name in ("fill.evaluations", "fill.iterations",
                     "fullchip.tiles_solved", "fullchip.stitch_passes"):
            m[name] = statistics.median([r.get(name, 0.0) for r in rounds])
        if "seams" in raw and raw["seams"]:
            seams = raw["seams"]
            for k in range(3):
                m[f"fullchip.seam_p{k}"] = seams[min(k, len(seams) - 1)]
            m["fullchip.tile_mean_ms"] = statistics.median(
                [1e3 * r["fullchip.tile_seconds"] / r["fullchip.tiles_solved"]
                 for r in rounds])
            m["fullchip.busy_ratio"] = statistics.median(
                [r["fullchip.tile_seconds"]
                 / (r["fullchip.runtime_s"] * raw["threads"])
                 for r in rounds])
    traced_fills = measured(raw, traced=True)[0]
    plain_fills = measured(raw, traced=False)[0]
    m["trace.overhead_s"] = (statistics.median(traced_fills)
                             - statistics.median(plain_fills))
    jobs = max(1.0, untraced["units"])
    m["io.write_bytes"] = untraced["io.write_bytes"] / jobs
    m["io.write_calls"] = untraced["io.write_calls"] / jobs

    obs = raw["obs"]
    per = max(1.0, obs["rounds"])  # rounds, or jobs on serve_mixed
    m["trace.dropped_events"] = obs["dropped_events"]
    spans = obs["spans"]
    counters = obs["counters"]
    self_s = obs["self_s"]
    for s in SPANS:
        m[f"{s}.total_s"] = spans.get(s, {}).get("total_s", 0.0) / per
        m[f"{s}.self_s"] = self_s.get(s, 0.0) / per
    for c in COUNTERS:
        m[c] = counters.get(c, 0) / per
    gemm_s = spans.get("nn.gemm", {}).get("total_s", 0.0)
    if gemm_s > 0:
        m["nn.gflops"] = counters.get("nn.gemm_flops", 0) / gemm_s / 1e9
    blocks = spans.get("runtime.for_blocks", {}).get("count", 0)
    joins = spans.get("runtime.participate", {}).get("count", 0)
    m["runtime.for_blocks.calls"] = blocks / per
    m["runtime.participate.calls"] = joins / per
    m["runtime.fork_ratio"] = joins / blocks if blocks else 0.0
    for name, t in self_s.items():
        prefix = name.split(".", 1)[0]
        module = SPAN_MODULE.get(prefix, prefix)
        if module in MODULES:
            m[f"{module}.self_s"] += t / per
    return m


# ----------------------------------------------------------------- main

def self_test(root):
    """The arithmetic in stats.py, then the harness's self times."""
    here = os.path.dirname(os.path.abspath(__file__))
    suite = unittest.defaultTestLoader.discover(here, pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    harness = build(root)
    ok = subprocess.call([harness, "--self-test"]) == 0 and ok
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the benchmark's own arithmetic and exit")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="regenerate BENCHMARK.json from the tables here")
    args = ap.parse_args()
    if args.write_benchmark_json:
        with open("BENCHMARK.json", "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None and not args.self_test:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", SURROGATE + ".weights"):
        if not os.path.exists(os.path.join(root, need)):
            log(f"{need} not found: run from the root of a NeurFill checkout")
            return 2
    # Compilers and the harness keep their temporary files in the checkout.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if args.self_test:
        return self_test(root)

    harness = build(root)
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--surrogate", SURROGATE, "--out", raw_path]
    t0 = time.monotonic()
    try:
        rc = subprocess.call(cmd, stdout=sys.stderr,
                             timeout=60 + 4 * args.seconds)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return 1
    if rc != 0:
        log(f"harness failed with exit code {rc}")
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    e2e, details = end_to_end(raw)
    if args.trace:
        metrics = per_layer(raw)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = e2e
        units = {n: u for n, u, _, _ in END_TO_END}
    ops = raw["ops"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "claim_seed": CLAIM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.monotonic() - t0,
        "inputs": raw["inputs"],
        "host": host_facts(root, work, raw["threads"]),
        "digests": raw["digests"],
        "s_qual_by_design": raw["s_qual"],
        "errors": ops["errors"],
        **details,
    }
    if "seams" in raw:
        report["seams_by_pass"] = raw["seams"]
    with open(os.path.join(work, "report.json"), "w") as f:
        json.dump({"report": report, "metrics": metrics}, f, indent=1)
    print(json.dumps({"report": report}))
    result = {
        "correct": bool(ops["correct"]) and ops["attempted"] > 0,
        "attempted": int(ops["attempted"]),
        "failed": int(ops["failed"]),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
