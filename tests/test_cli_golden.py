"""The README CLI commands, run through `kolmex.cli.main`, against the `cli`
digests pinned in bench/golden.json.

The commands, their input file and the digest rule come from
bench/workloads.py (`CLI_COMMANDS`, `cli_pass`); neither file is changed
here, so the benchmark and this test pin the same bytes.
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
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["cli"]


def test_every_readme_command_is_pinned():
    commands = sum(len(lines) for lines in WORKLOADS.CLI_COMMANDS.values())
    assert commands == 7
    assert sorted(GOLDEN) == sorted(WORKLOADS.CLI_COMMANDS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS.CLI_COMMANDS))
def test_readme_cli_outputs_match_golden(workload, tmp_path):
    batch = WORKLOADS.Batch()
    WORKLOADS.cli_pass(batch, workload, tmp_path)
    assert batch.failures == []
    assert batch.digests == GOLDEN[workload]
