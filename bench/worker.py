"""Run one batch of one workload in this fresh interpreter; print its result.

    python3 bench/worker.py --workload NAME --seed N --start-ns NS [--trace] [--cli]

`--start-ns` is the parent's time.monotonic_ns() just before it started this
process, so set-up time covers interpreter start, the kolmex import, input
generation and fixtures.  A speed sampler (speed.py) runs from start to the
end of the batch; its own time is left out of every timing, and the result
carries its scale for the parent to apply.  `--trace` wraps the layers (see tracing.py);
`--cli` runs the workload's README CLI commands instead of the batch.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_kolmex():
    """Import kolmex from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import kolmex

    if Path(kolmex.__file__).resolve().parent != SRC / "kolmex":
        raise SystemExit(f"kolmex imported from {kolmex.__file__}, not {SRC}")
    return kolmex


def cache_state() -> dict:
    from kolmex import hopf
    from workloads import COLD_CACHES

    return {name: getattr(hopf, name).cache_info()._asdict() for name in COLD_CACHES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cli", action="store_true")
    args = parser.parse_args(argv)
    from speed import SpeedSampler

    sampler = SpeedSampler()
    if not args.cli:
        sampler.start()  # covers set-up as well as the batch

    kolmex = import_kolmex()
    import workloads
    from tracing import Tracer

    golden_path = BENCH / "golden.json"
    golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}
    caches: dict = {}
    tracer = Tracer() if args.trace else None

    def on_first():
        caches["first_op"] = state = cache_state()
        batch.check("hopf caches cold at the first op", all(
            c["hits"] == 0 and c["misses"] == 0 and c["currsize"] == 0 for c in state.values()))

    batch = workloads.Batch(tracer, on_first, sampler)
    result = {"workload": args.workload, "seed": args.seed,
              "kolmex_version": kolmex.__version__, "proxy_version": kolmex.PROXY_VERSION}

    if args.cli:
        OUT.mkdir(exist_ok=True)
        tmpdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        try:
            workloads.cli_pass(batch, args.workload, tmpdir)
        finally:
            shutil.rmtree(tmpdir)
        wanted = golden.get("cli", {}).get(args.workload, {})
    else:
        make_inputs, run_batch = workloads.WORKLOADS[args.workload]
        inputs = make_inputs(args.seed)
        if tracer is not None:
            tracer.install()
        try:
            run_batch(batch, inputs)
        except Exception as exc:  # report the failure; the result still prints
            batch.attempted += 1
            batch.failures.append(f"batch aborted: {exc!r}")
        sampler.stop()
        caches["end"] = cache_state()
        setup_ns = ((batch.first_ns or time.monotonic_ns()) - args.start_ns
                    - batch.paused_before_first_ns)
        result.update(
            wall_s=batch.wall_ns / 1e9,
            setup_s=setup_ns / 1e9,
            op_ms=[ns / 1e6 for ns in batch.op_ns],
            caches=caches,
            speed_samples=len(sampler.samples),
            reference_ns=sampler.reference_ns(),
            speed_scale=sampler.scale(),
        )
        if tracer is not None:
            tracer.uninstall()
            by_layer = tracer.calls_by_layer()
            for layer in workloads.UNTOUCHED[args.workload]:
                batch.check(f"bypass: no calls into {layer}", by_layer.get(layer, 0) == 0)
            result.update(layers=tracer.metrics(), calls_by_layer=by_layer)
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        wanted = (golden.get("workloads", {}).get(args.workload, {})
                  if args.seed == golden.get("seed") else {})

    for name, digest in sorted(wanted.items()):
        batch.check(f"golden {name}", batch.digests.get(name) == digest)
    result.update(
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=batch.attempted,
        failed=len(batch.failures),
        failures=batch.failures[:20],
        digests=batch.digests,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
