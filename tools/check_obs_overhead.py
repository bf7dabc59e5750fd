#!/usr/bin/env python3
"""Gate the observability overhead from A/B (obs-ON vs obs-OFF) benchmarks.

Reads JSON files produced by `bench_kernels --acceptance` (kernel path:
a 512x64x64 matmul, which crosses only the counter increments in
kernels::Gemm) and/or `bench_serve --overhead` (serving path: the
micro-batched request loop over a synthetic 4096 x 4096, dim-64
artifact, which crosses counters, gauges, HDR histograms and disabled
trace spans). Each side may be given
SEVERAL runs of each benchmark; the gate compares the per-benchmark
MEDIANS, so one scheduler hiccup cannot flip the verdict the way a
single-run comparison can. Runs shorter than the --min-wall-ms floor
are rejected as too noisy to trust.

Medians do not protect against code-layout bias: the ON and OFF builds
place functions at different addresses, which skews the comparison by
a systematic few percent in either direction even when the hot loops
are instruction-identical (DESIGN.md section 12, "Overhead"). Build
both sides with -DKGAG_ALIGN_FUNCTIONS=ON so the measured delta is the
instrumentation, not the linker.

The check fails (exit 1) when, for any benchmark present on both
sides, the ON median is slower than the OFF median by more than
--budget percent.

Usage:
  check_obs_overhead.py --enabled on1.json on2.json ... \
      --disabled off1.json off2.json ... \
      [--budget 2.0] [--min-wall-ms 200] [--out BENCH_obs_overhead.json]
"""

import argparse
import json
import statistics
import sys

# bench name -> (ns-per-op field, how to compute the run's wall ms)
KINDS = {
    "bench_kernels_acceptance": (
        "blocked_ns",
        # min_secs * reps is the floor TimeBest enforces per measurement;
        # older files without the fields fall back to an optimistic 1s.
        lambda doc: 1e3 * float(doc.get("min_secs", 1.0))
        * float(doc.get("reps", 1)),
    ),
    "bench_serve_overhead": (
        "request_ns",
        lambda doc: float(doc["wall_ms"]),
    ),
}


def load(path, want_obs_enabled, min_wall_ms):
    with open(path) as f:
        doc = json.load(f)
    kind = doc.get("bench")
    if kind not in KINDS:
        sys.exit(f"{path}: bench={kind!r}, expected one of {sorted(KINDS)}")
    if doc.get("obs_enabled") != want_obs_enabled:
        sys.exit(
            f"{path}: obs_enabled={doc.get('obs_enabled')}, expected "
            f"{want_obs_enabled} — did you swap the two builds?"
        )
    if doc.get("smoke"):
        print(f"warning: {path} is a --smoke run; timings are noise",
              file=sys.stderr)
    metric_field, wall_ms_of = KINDS[kind]
    wall_ms = wall_ms_of(doc)
    if wall_ms < min_wall_ms and not doc.get("smoke"):
        sys.exit(
            f"{path}: measured for {wall_ms:.0f} ms, below the "
            f"{min_wall_ms:.0f} ms floor — rerun with a longer workload"
        )
    return kind, float(doc[metric_field])


def collect(paths, want_obs_enabled, min_wall_ms):
    by_kind = {}
    for path in paths:
        kind, ns = load(path, want_obs_enabled, min_wall_ms)
        by_kind.setdefault(kind, []).append(ns)
    return by_kind


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--enabled", required=True, nargs="+",
                    help="JSON file(s) from the obs-ON build")
    ap.add_argument("--disabled", required=True, nargs="+",
                    help="JSON file(s) from the obs-OFF build")
    ap.add_argument("--budget", type=float, default=2.0,
                    help="max allowed overhead in percent (default 2.0)")
    ap.add_argument("--min-wall-ms", type=float, default=200.0,
                    help="reject runs measured for less wall time than "
                         "this (default 200)")
    ap.add_argument("--out", default=None,
                    help="also write the verdict as a BENCH-style JSON")
    args = ap.parse_args()

    on = collect(args.enabled, True, args.min_wall_ms)
    off = collect(args.disabled, False, args.min_wall_ms)
    common = sorted(set(on) & set(off))
    if not common:
        sys.exit("no benchmark appears on both the ON and the OFF side")
    for kind in sorted(set(on) ^ set(off)):
        print(f"warning: {kind} appears on only one side; skipped",
              file=sys.stderr)

    results = {}
    ok = True
    for kind in common:
        on_ns = statistics.median(on[kind])
        off_ns = statistics.median(off[kind])
        overhead_pct = 100.0 * (on_ns - off_ns) / off_ns
        within = overhead_pct <= args.budget
        ok = ok and within
        results[kind] = {
            "obs_on_ns": on_ns,
            "obs_off_ns": off_ns,
            "runs_per_side": [len(on[kind]), len(off[kind])],
            "overhead_pct": round(overhead_pct, 3),
        }
        print(f"{kind}: ON {on_ns / 1e3:9.2f} us/op (median of "
              f"{len(on[kind])}), OFF {off_ns / 1e3:9.2f} us/op (median of "
              f"{len(off[kind])}), overhead {overhead_pct:+.2f}% "
              f"(budget {args.budget:.2f}%)"
              f"{'' if within else '  <-- OVER BUDGET'}")

    if args.out:
        doc = {
            "bench": "obs_overhead",
            "budget_pct": args.budget,
            "min_wall_ms": args.min_wall_ms,
            "benches": results,
            "overhead_pct": max(r["overhead_pct"] for r in results.values()),
            "ok": ok,
            "note": "median-of-N A/B: bench_kernels --acceptance and/or "
                    "bench_serve --overhead in KGAG_OBS_ENABLED=ON vs OFF "
                    "builds, both configured -DKGAG_ALIGN_FUNCTIONS=ON to "
                    "pin code layout; gate: tools/check_obs_overhead.py",
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")

    if not ok:
        print("FAIL: observability overhead exceeds budget", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
