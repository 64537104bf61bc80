"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

`test_second_seed_passes_every_oracle_check` runs every workload once, traced,
on a second seed (about 30 s).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_inputs_are_a_pure_function_of_the_seed():
    for name, (make_inputs, _) in workloads.WORKLOADS.items():
        assert make_inputs(5) == make_inputs(5), name
        assert make_inputs(5) != make_inputs(6), name


def test_self_time_on_a_synthetic_nested_trace():
    # A [0, 100] holds B [10, 40] and D [50, 90]; B holds C [20, 30]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [30, 20, 10, 40]


def test_tracer_nests_spans_across_module_boundaries():
    from kolmex import hopf

    label = hopf.enumerate_connected_oriented(2, 4)[-1]
    ticks = iter(range(1000))
    targets = tuple(t for t in tracing.TARGETS
                    if t[0] in ("hopf.coproduct_of_monomial", "hopf.coproduct_of_generator"))
    tracer = tracing.Tracer(targets, clock=lambda: next(ticks))
    tracer.install()
    try:
        tracer.recording = True
        hopf.coproduct_of_monomial((label, label))
    finally:
        tracer.recording = False
        tracer.uninstall()
    # the monomial span holds one generator span per term it extends:
    # 1 for the first factor, len(delta) for the second, each of duration 1
    g = 1 + len(hopf.coproduct_of_generator(label))
    assert list(tracer.parents) == [-1] + [0] * g
    metrics = tracer.metrics()
    assert metrics["hopf.coproduct_of_monomial.calls"] == 1
    assert metrics["hopf.coproduct_of_generator.calls"] == g
    assert metrics["hopf.coproduct_of_monomial.self_s"] == (2 * g + 1 - g) / 1e9
    assert metrics["hopf.coproduct_of_generator.self_s"] == g / 1e9


def test_wrappers_return_values_unchanged_and_keep_cache_info():
    from kolmex import codes, complexity, graphs, hopf

    label = hopf.enumerate_connected_oriented(2, 4)[-1]
    want_delta = hopf.coproduct_of_generator(label)
    want_bits = complexity.DEFAULT_PROXY.complexity_bits(3**40)
    want_cuts = graphs.enumerate_cuts
    originals = {name: getattr(hopf, name) for name in ("coproduct_of_generator", "enumerate_cuts")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        hits = hopf.coproduct_of_generator.cache_info().hits
        assert hopf.coproduct_of_generator(label) is want_delta
        assert hopf.coproduct_of_generator.cache_info().hits == hits + 1
        assert complexity.DEFAULT_PROXY.complexity_bits(3**40) == want_bits
        # `from .graphs import enumerate_cuts` in hopf sees the same wrapper
        assert hopf.enumerate_cuts is graphs.enumerate_cuts is not want_cuts
        assert codes.sample_codes(2, 4, 3, 2, 9) == codes.sample_codes(2, 4, 3, 2, 9)
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert all(getattr(hopf, name) is fn for name, fn in originals.items())
    assert graphs.enumerate_cuts is want_cuts
    metrics = tracer.metrics()
    assert metrics["hopf.coproduct_of_generator.calls"] == 1
    assert metrics["hopf.coproduct_of_generator.misses"] == 0
    assert metrics["codes.sample_codes.calls"] == 2


def test_benchmark_json_names_every_metric_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_metric_names()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.metric_unit(m["name"])


def test_compare_refuses_stamps_that_differ_beyond_the_commit():
    base = {"commit": "a", "seed": 1, "python": "3.11.7"}
    assert compare.stamp_mismatch(base, dict(base, commit="b")) == []
    assert compare.stamp_mismatch(base, dict(base, seed=2)) == ["seed"]


def test_second_seed_passes_every_oracle_check():
    for name in workloads.WORKLOADS:
        result = run.spawn(name, 2, time.monotonic() + 170, "--trace")
        assert result["attempted"] > 0, name
        assert result["failed"] == 0, (name, result["failures"])


def test_speed_sampler_time_is_left_out_of_batch_timings():
    import signal

    import speed

    sampler = speed.SpeedSampler()
    batch = workloads.Batch(sampler=sampler)

    def op():
        time.sleep(0.05)
        sampler.paused_ns += 40_000_000  # as if the handler ran for 40 ms of it

    batch.op("op", op)
    assert 0 < batch.op_ns[0] < 30_000_000
    sampler.start()
    sampler.stop()
    assert len(sampler.samples) >= 2 and sampler.scale() > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
