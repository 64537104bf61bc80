"""The package names the benchmark reaches by text: the traced functions of
bench/tracing.py (`TARGETS`) and the caches of bench/workloads.py
(`COLD_CACHES`) that every batch reads.  Both files are loaded as they are,
so deleting or renaming a name they use fails here rather than in a traced
run of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [qual for qual, _, _ in _load("tracing").TARGETS]


@pytest.mark.parametrize("qual", TARGETS)
def test_traced_names_resolve(qual):
    # resolved as `Tracer.install` does: a function of the module, or a
    # method in its class's own namespace
    mod_name, *path = qual.split(".")
    owner = importlib.import_module(f"kolmex.{mod_name}")
    if len(path) == 2:
        owner = getattr(owner, path[0])
        assert path[1] in vars(owner)
    assert callable(getattr(owner, path[-1]))


@pytest.mark.parametrize("name", _load("workloads").COLD_CACHES)
def test_cold_caches_exist(name):
    from kolmex import hopf

    assert callable(getattr(hopf, name).cache_info)
