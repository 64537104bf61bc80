"""The scripts under `scripts/` run end to end at small sizes.

Each script is loaded from its file and its `run(argv)` called in process,
so a script that imports a name the package no longer has, or passes it
an argument it no longer takes, fails here.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv):
    """(exit status, stdout) of scripts/<name>.py run with `argv`."""
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = module.run(argv)
    return status, out.getvalue()


@pytest.mark.parametrize("colors", ["1", "2"])
def test_feynman_oracle_check(colors):
    status, out = run_script("feynman_oracle_check",
                             ["--trials", "1", "--order", "2", "--colors", colors])
    assert status == 0, out
    assert "-> ok" in out


def test_cloud_experiment(tmp_path):
    status, out = run_script("cloud_experiment", [
        "--count", "20", "--out", str(tmp_path / "cloud.csv"),
        "--svg", str(tmp_path / "cloud.svg")])
    assert status == 0, out
    assert (tmp_path / "cloud.svg").exists()
    assert "below" in out


def test_partition_sweep():
    status, out = run_script("partition_sweep", ["--count", "30"])
    assert status == 0, out
    assert out.startswith("beta")
