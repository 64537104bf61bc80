"""Rewrite bench/golden.json from the current sources.

    python3 bench/update_golden.py

Runs one batch of every workload at the default seed, plus each workload's
README CLI commands, and stores the SHA-256 of their contract outputs.  Do
this only for a change that is meant to alter those bytes (for example a
PROXY_VERSION bump); the benchmark counts any other mismatch as a failure.
"""

from __future__ import annotations

import json
import sys
import time

from run import BENCH, BenchError, spawn
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    golden = {"seed": DEFAULT_SEED, "workloads": {}, "cli": {}}
    for name in WORKLOADS:
        deadline = time.monotonic() + 170
        for key, flags in (("workloads", ()), ("cli", ("--cli",))):
            try:
                result = spawn(name, DEFAULT_SEED, deadline, *flags)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            broken = [f for f in result["failures"] if not f.startswith("golden ")]
            if broken:
                print(f"error: {name} fails its oracles: {broken}", file=sys.stderr)
                return 1
            golden[key][name] = result["digests"]
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BENCH / 'golden.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
