"""kolmex benchmark: time-to-result per experiment family.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn

Each batch runs in a fresh interpreter (bench/worker.py), so the package's
lru caches start cold as they do for every CLI call.  Batches repeat while
the next one fits in `--seconds` (at most RUN_DEADLINE_S - CLI_RESERVE_S),
at least MIN_BATCHES times.  Each metric is the median over the batches; op
latencies are pooled over them.  With `--trace 1` untraced and traced
batches alternate; the traced ones give the per-layer metrics.  Every batch
checks its outputs against oracles, and at the default seed against golden
digests; a `--trace 0` run at the default seed also checks the workload's
README CLI commands.

stdout: a table of every metric with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  The full result
with its stamp goes to .bench_out/result-<workload>-seed<N>-trace<T>.json
(compare two with bench/compare.py).  Exit 1 on a failed check, 2 when the
checkout has no kolmex sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from speed import REFERENCE_NS  # noqa: E402
from tracing import OVERHEAD_RATIO, metric_unit, per_layer_metric_names  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_BATCHES = 3         # untraced batches per --trace 0 run
MIN_TRACED_PAIRS = 2    # (untraced, traced) pairs per --trace 1 run; counts must repeat
RUN_DEADLINE_S = 170    # hard limit on a run; a worker still going then is killed
CLI_RESERVE_S = 30      # left free before the deadline for the README command pass
P90_MIN_OPS = 100

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """One fresh worker process; returns its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the next batch")
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags, "--start-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout's own repository; 'unknown' outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # never a parent repo
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(workload: str, seed: int, seconds: int, trace: int, first: dict) -> dict:
    res = time.get_clock_info("perf_counter")
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kolmex_version": first["kolmex_version"],
        "proxy_version": first["proxy_version"],
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "timer": f"perf_counter_ns ({res.implementation}, resolution {res.resolution})",
        "calibration": f"speed.REFERENCE_NS = {REFERENCE_NS}",
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    # stop before the batch that would overrun --seconds or eat into the reserve
    budget = min(seconds, RUN_DEADLINE_S - CLI_RESERVE_S)
    plain, traced = [], []
    minimum = MIN_TRACED_PAIRS if trace else MIN_BATCHES
    while True:
        plain.append(spawn(workload, seed, deadline))
        if trace:
            traced.append(spawn(workload, seed, deadline, "--trace"))
        n = len(plain)
        elapsed = time.monotonic() - start
        if n >= minimum and elapsed * (n + 1) / n > budget:
            break
    # the README commands have fixed configs, so one pass at the default seed
    cli = [spawn(workload, seed, deadline, "--cli")] if not trace and seed == DEFAULT_SEED else []
    workers = plain + traced + cli
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    failed = sum(w["failed"] for w in workers)

    # each batch's times at the reference speed (speed.py)
    scales = [w["speed_scale"] for w in plain]
    ops = [ms * f for w, f in zip(plain, scales) for ms in w["op_ms"]]
    raw_ops = [ms for w in plain for ms in w["op_ms"]]
    result = {
        "stamp": stamp(workload, seed, seconds, trace, plain[0]),
        "batches": len(plain),
        "batch_wall_s": [w["wall_s"] for w in plain],
        "batch_reference_ns": [w["reference_ns"] for w in plain],
        "ops": len(ops),
        "metrics": {
            "wall_s": statistics.median(w["wall_s"] * f for w, f in zip(plain, scales)),
            "op_p50_ms": statistics.median(ops),
            "setup_s": statistics.median(w["setup_s"] * f for w, f in zip(plain, scales)),
            "peak_rss_mib": statistics.median(w["peak_rss_mib"] for w in plain),
        },
        "extra": {
            "raw_wall_s": statistics.median(w["wall_s"] for w in plain),
            "raw_op_p50_ms": statistics.median(raw_ops),
            "raw_setup_s": statistics.median(w["setup_s"] for w in plain),
            "reference_ms": statistics.median(w["reference_ns"] for w in plain) / 1e6,
        },
    }
    if len(ops) >= P90_MIN_OPS:
        result["extra"]["op_p90_ms"] = percentile(ops, 0.9)
    if trace:
        layers = {}
        for name in per_layer_metric_names():
            if name == OVERHEAD_RATIO:
                continue
            if name.endswith(".self_s"):
                layers[name] = statistics.median(
                    w["layers"][name] * w["speed_scale"] for w in traced)
                continue
            values = {w["layers"][name] for w in traced}
            attempted += 1
            if len(values) > 1:  # counts from the wrappers must repeat exactly
                failed += 1
                failures.append(f"{name}: counts differ between traced batches {values}")
            layers[name] = traced[0]["layers"][name]
        layers[OVERHEAD_RATIO] = (statistics.median(w["wall_s"] for w in traced)
                                  / result["extra"]["raw_wall_s"])
        result["layers"] = layers
        result["calls_by_layer"] = traced[0]["calls_by_layer"]
    result["extra"]["error_rate"] = failed / attempted
    result.update(attempted=attempted, failed=failed, failures=failures[:50],
                  digests=plain[0]["digests"], caches=plain[0]["caches"],
                  cli_digests=cli[0]["digests"] if cli else {})
    return result


def report(workload: str, result: dict, trace: int) -> dict:
    """Print the table; return the metrics of the final JSON line."""
    print(f"== {workload}: {result['batches']} batches, {result['ops']} ops, "
          f"stamp {json.dumps(result['stamp'], sort_keys=True)}")
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": metric_unit(name)}
                   for name in per_layer_metric_names()}
    else:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        extra = result["extra"]
        if "op_p90_ms" in extra:
            print(f"  {'op_p90_ms':<56} {extra['op_p90_ms']:>14.6g} ms  (n={result['ops']})")
        for name, unit in (("raw_wall_s", "s"), ("raw_op_p50_ms", "ms"), ("raw_setup_s", "s"),
                           ("reference_ms", "ms")):
            print(f"  {name:<56} {extra[name]:>14.6g} {unit}  (not scaled)")
        print(f"  {'error_rate':<56} {extra['error_rate']:>14.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kolmex benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kolmex" / "__init__.py").is_file():
        print(f"error: no kolmex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        metrics = report(name, result, args.trace)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
