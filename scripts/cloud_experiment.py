#!/usr/bin/env python3
"""Sample a code-point cloud and report how it sits against the bound curves.

Writes the cloud CSV (+ SVG) through `kolmex codes cloud`, then prints the
share of its points below each curve with a configurable margin -- the
calibration behind the cloud acceptance threshold.  The ensemble is sampled
once; the shares are read back from the CSV.

    python scripts/cloud_experiment.py --n 12 --size 64 --count 2000 --seed 5
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kolmex.cli import main as cli_main
from kolmex.codes import BOUND_KINDS, bound_curve


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--margin", type=float, default=0.05)
    ap.add_argument("--out", default="cloud.csv")
    ap.add_argument("--svg", default="cloud.svg")
    args = ap.parse_args(argv)

    status = cli_main([
        "codes", "cloud", "--q", str(args.q), "--n", str(args.n),
        "--size", str(args.size), "--count", str(args.count),
        "--seed", str(args.seed), "--out", args.out, "--svg", args.svg,
    ])
    if status:
        return status
    # R and delta are written with 17 significant digits, which round-trip
    # binary64 exactly, so the shares match those of the sampled ensemble
    with open(args.out) as f:
        rows = [line.split(",") for line in f if not line.startswith("#")][1:]
    points = [(float(row[5]), float(row[6])) for row in rows]
    for kind in BOUND_KINDS:
        below = sum(rate <= bound_curve(kind, args.q, delta) + args.margin
                    for rate, delta in points)
        print(f"below {kind} + {args.margin}: {below / max(len(points), 1):7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
