#!/usr/bin/env python3
"""Perf-smoke gate: compare fresh bench JSON summaries against the
committed baseline and fail on meaningful regressions.

Usage: check_bench_regression.py BASELINE.json FRESH.json [FRESH2.json ...]
           [--tolerance 0.20]

Multiple fresh files are merged (later files win on key collisions), so the
kernel sweep (bench_runtime_scaling) and the full-chip smoke
(bench_fullchip) can each write their own summary.

Gated keys, higher is better:
  gemm_gflops_1t         -- single-thread packed-GEMM throughput
  gemm_speedup_4t        -- 4-thread scaling of the same kernel
  conv2d_fwd_speedup_4t  -- 4-thread conv2d forward: the serial-region
                            threshold keeps small layers never-slower
  infer_vs_autograd_speedup -- InferenceSession UNet forward vs the autograd
                            module path, single thread (the redesign's
                            acceptance floor is 2x; the gate keeps it there)
  fill_evals_per_s        -- fill-loop objective evaluations per second
                            through the batched candidate pipeline
                            (bench_fill_throughput; one session run per
                            layer for the whole NMMSO move batch)
  serve_jobs_per_s        -- end-to-end jobs per second through the
                            nf_serve daemon machinery (bench_serve: submit
                            -> journal -> worker -> artifact -> status,
                            cheap lin jobs so the daemon overhead dominates)

Gated keys, lower is better:
  fullchip_tile_ms        -- mean per-tile solve cost of the tiled driver
  fullchip_stitch_passes  -- stitch refinement passes executed (a jump
                             means the halo/stitch logic stopped converging)
  unet_infer_ms_1t        -- absolute single-thread latency of the compiled
                             inference session on the bench shape
  unet_infer_b8_ms_per_sample -- per-sample latency of a batch-8 session
                             run; keeps cross-candidate batching from ever
                             costing more per sample than batch-1
  unet_vjp_ms_1t          -- single-thread session forward-with-saving +
                             input VJP on the production architecture
                             (bench_inference); one layer of a fill gradient
  sqp_grad_ms             -- single-thread value+gradient call of the CMP
                             network, 16x16 windows x 3 layers
                             (bench_fill_throughput): what an accepted SQP
                             step costs
  serve_p99_ms            -- p99 ping round-trip latency against a live
                             daemon (bench_serve); what any client pays to
                             talk to the daemon at all

A higher-is-better value below (1 - tolerance) * baseline fails; a
lower-is-better value above (1 + tolerance) * baseline fails.  The default
20% tolerance absorbs CI-runner noise (shared cores, turbo variance); real
regressions from kernel or scheduler changes are far larger than that.
Keys missing from the baseline or from every fresh file fail loudly rather
than silently passing.
"""

import argparse
import json
import sys

GATED_KEYS_HIGHER = ("gemm_gflops_1t", "gemm_speedup_4t",
                     "conv2d_fwd_speedup_4t", "infer_vs_autograd_speedup",
                     "fill_evals_per_s", "serve_jobs_per_s")
GATED_KEYS_LOWER = ("fullchip_tile_ms", "fullchip_stitch_passes",
                    "unet_infer_ms_1t", "unet_infer_b8_ms_per_sample",
                    "unet_vjp_ms_1t", "sqp_grad_ms", "serve_p99_ms")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh", nargs="+")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional drift vs baseline (default 0.20)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    fresh = {}
    for path in args.fresh:
        with open(path) as f:
            fresh.update(json.load(f))

    failures = []
    gated = [(key, True) for key in GATED_KEYS_HIGHER] + \
            [(key, False) for key in GATED_KEYS_LOWER]
    for key, higher_is_better in gated:
        if key not in baseline:
            failures.append(f"{key}: missing from baseline {args.baseline}")
            continue
        if key not in fresh:
            failures.append(
                f"{key}: missing from fresh run(s) {', '.join(args.fresh)}")
            continue
        base, got = float(baseline[key]), float(fresh[key])
        if higher_is_better:
            bound = (1.0 - args.tolerance) * base
            ok = got >= bound
            relation = "floor"
        else:
            bound = (1.0 + args.tolerance) * base
            ok = got <= bound
            relation = "ceiling"
        status = "ok" if ok else "REGRESSION"
        print(f"{key}: baseline {base:.3f}  fresh {got:.3f}  "
              f"{relation} {bound:.3f}  {status}")
        if not ok:
            failures.append(
                f"{key}: {got:.3f} vs {relation} {bound:.3f} "
                f"({args.tolerance:.0%} band around baseline {base:.3f})")

    if failures:
        print("\nperf smoke FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
