"""Each benchmark workload's batch, run once in process at the golden seed,
against the `workloads` digests pinned in bench/golden.json.

The batches call much of the package that no traced or audited name covers
(`RationalFunction`, `lift_to_permutation`, `MSElement.is_polar_only`,
`eq_through`, ...), so a change that breaks one fails here and not only at
the benchmark.  The batches and the digests come from bench/workloads.py
and bench/golden.json; neither file is changed here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def test_every_workload_is_pinned():
    assert sorted(GOLDEN["workloads"]) == sorted(WORKLOADS.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_batch_matches_golden(workload):
    make_inputs, run_batch = WORKLOADS.WORKLOADS[workload]
    batch = WORKLOADS.Batch()
    run_batch(batch, make_inputs(GOLDEN["seed"]))
    assert batch.failures == []
    assert batch.digests == GOLDEN["workloads"][workload]
