"""wheelkit benchmark: time to a checked verdict, end to end and by layer.

Run from the root of a wheelkit checkout:

    python3 perfbench/run.py --workload disc-oracle --seed 1 --seconds 25 --trace 0

The library is imported from the checkout's `src/`.  The benchmark runs
passes one after another (a closed loop, one thread) until `--seconds`
have gone by.  Each pass is a fresh interpreter, as a user's verification
run is: it imports wheelkit and builds its inputs (timed as set-up), then
runs the workload's instances, timing each and checking its verdict.  So
no pass sees another's caches, and each pass draws its own string-hash
seed, which moved a pass's speed by up to about 20% in one measurement;
the hash seeds, like the inputs, follow from `--seed`.  Times
are scaled to a reference machine speed (see `speed.py`).

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` each pass runs twice on the same
inputs and hash seed, once plain and once traced, and the object holds the
per-layer metrics.  Lines before it give the environment and a readable
table.  Exit status 2 means the checkout holds no wheelkit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from layertrace import TRACED, Tracer
from workloads import WORKLOADS, PassResult, VerifySuite

PASS_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "instances_per_s": "1/s",
    "instance_ms_p50": "ms",
    "instance_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = "count/pass"
        out[f"{name}.self_s"] = "s/pass"
    for name in VerifySuite.EXPERIMENTS:
        out[f"experiments.{name}.wall_s"] = "s/pass"
    out["generate.dedup_ratio"] = "ratio"
    out["kernels.linkage_per_k5"] = "ratio"
    out["trace.overhead_ratio"] = "ratio"
    return out


# -- one pass, in its own interpreter -------------------------------------------


def one_pass(workload, seed: int, index: int, traced: bool) -> dict:
    result = PassResult()
    probe = result.probe
    probe.start()
    t0 = perf_counter()
    import networkx
    from wheelkit import kernels

    state = workload.setup()
    inputs = workload.inputs(state, random.Random(f"{workload.name}:{seed}:{index}"))
    t1 = perf_counter()

    tracer = Tracer(probe) if traced else None
    if tracer:
        tracer.install()
    try:
        workload.run(inputs, result)
    except Exception:
        result.failed += 1
        result.problems.append(traceback.format_exc())
    probe.stop()
    times = result.scaled_times()
    record = {
        "setup_s": probe.scaled(t0, t1),
        "wall": sum(times),
        "raw_wall": sum(probe.unscaled(start, end) for start, end in result.intervals),
        "times": times,
        "failed": result.failed,
        "problems": result.problems[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "networkx": networkx.__version__,
        "kernel_backend": kernels.BACKEND,
    }
    if tracer:
        record.update(calls=tracer.calls, self_s=tracer.self_s, yields=tracer.yields)
    return record


def spawn_pass(root: Path, workload, seed: int, index: int, traced: bool) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    hash_seed = random.Random(f"hash:{seed}:{index}").randrange(1 << 32)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--pass-index", str(index), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"pass {index} ran past {PASS_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"crash": f"pass {index} exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


# -- metrics --------------------------------------------------------------------


def percentile_ms(times: list[float], q: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1000


def end_to_end(plain: list[dict]) -> dict:
    times = [t for rec in plain for t in rec["times"]]
    walls = [rec["wall"] for rec in plain]
    return {
        "wall_s": statistics.fmean(walls),
        "instances_per_s": len(times) / sum(walls),
        # The median pass's median: pooled, verify-suite's eight experiments
        # per pass split four fast, four slow, and the pooled median fell in
        # the gap between them.
        "instance_ms_p50": statistics.median(percentile_ms(rec["times"], 50) for rec in plain),
        "instance_ms_p99": percentile_ms(times, 99),
        "setup_s": statistics.median(rec["setup_s"] for rec in plain),
        "peak_rss_mb": max(rec["peak_rss_mb"] for rec in plain),
    }


def _speed(records: list[dict]) -> float:
    """Reference-speed seconds per measured second over these passes."""
    return sum(r["wall"] for r in records) / sum(r["raw_wall"] for r in records)


def per_layer(workload, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics as means per traced pass; times at reference speed."""

    def total(field: str, name: str, scaled: bool = False):
        return sum(rec[field].get(name, 0) * (_speed([rec]) if scaled else 1) for rec in traced)

    k = len(traced)
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = total("calls", name) / k
        out[f"{name}.self_s"] = total("self_s", name, scaled=True) / k
    # An experiment's inclusive time is its instance time in the plain
    # passes of verify-suite, where instances follow EXPERIMENTS' order.
    suite = [rec["times"] for rec in plain
             if isinstance(workload, VerifySuite) and len(rec["times"]) == len(workload.EXPERIMENTS)]
    for i, name in enumerate(VerifySuite.EXPERIMENTS):
        out[f"experiments.{name}.wall_s"] = (
            statistics.fmean(times[i] for times in suite) if suite else 0.0)
    canon = total("calls", "generate.rooted_canonical_form")
    emitted = total("yields", "generate.generate_terminal_planar")
    out["generate.dedup_ratio"] = emitted / canon if canon else 0.0
    k5 = total("calls", "subdivisions.find_k5_subdivision")
    linkage = total("calls", "kernels.linkage_masks")
    out["kernels.linkage_per_k5"] = linkage / k5 if k5 else 0.0
    out["trace.overhead_ratio"] = sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain)
    return out


def environment(root: Path, record: dict) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "networkx": record.get("networkx", "unknown"),
        "kernel_backend": record.get("kernel_backend", "unknown"),
        "commit": commit,
    }


# -- main loop ------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-index", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "wheelkit" / "__init__.py").is_file():
        print(f"error: no wheelkit sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.pass_index is not None:
        sys.path.insert(0, str(src))
        print(json.dumps(one_pass(workload, args.seed, args.pass_index, bool(args.trace))))
        return 0

    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    crashed = 0
    start = perf_counter()
    index = 0
    while True:
        runs = [(plain, False)] + ([(traced, True)] if args.trace else [])
        for records, with_trace in runs:
            rec = spawn_pass(root, workload, args.seed, index, with_trace)
            if "crash" in rec:
                problems.append(rec["crash"])
                crashed += 1
                continue
            problems += rec["problems"]
            records.append(rec)
        index += 1
        if perf_counter() - start >= args.seconds:
            break
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    everything = plain + traced
    attempted = sum(len(rec["times"]) for rec in everything)
    failed = sum(rec["failed"] for rec in everything) + crashed
    if args.trace:
        values, units = per_layer(workload, plain, traced), layer_metrics()
    else:
        values, units = end_to_end(plain), END_TO_END
    print("environment " + json.dumps(environment(root, plain[0])))
    print(f"workload {workload.name}: seed {args.seed}, {index} passes, "
          f"{attempted} instances, {failed} failed, fail_ratio {failed / max(attempted, 1):.6f}, "
          f"unscaled wall_s {statistics.fmean(r['raw_wall'] for r in plain):.6f}, "
          f"machine speed {_speed(plain):.4f}")
    for name, value in values.items():
        if value:
            print(f"  {name:58s} {value:14.6f} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
