#!/usr/bin/env python3
"""Partition-sum trends on a sampled ensemble.

Sweeps the inverse temperature for several distance cutoffs and prints the
table; monotone decay in both directions is the property the partition sum
carries at truncated-ensemble scale.

    python scripts/partition_sweep.py --n 6 --size 4 --count 300
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kolmex.cli import _fraction
from kolmex.codes import partition_sum, sample_codes


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--size", type=int, default=4)
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--rate", type=_fraction, default=Fraction(1, 3))
    ap.add_argument("--eta", type=float, default=0.02)
    args = ap.parse_args(argv)

    ensemble = sample_codes(args.q, args.n, args.size, args.count, args.seed)
    betas = [0.02 * i for i in range(11)]
    cutoffs = [Fraction(k, args.n) for k in range(0, args.n + 1, 2)]

    header = "beta    " + "  ".join(f"Z(D={str(d):>4})" for d in cutoffs)
    print(header)
    for beta in betas:
        cells = []
        for cutoff in cutoffs:
            z, _ = partition_sum(ensemble, args.rate, cutoff, beta, args.eta)
            cells.append(f"{z:9.3e}")
        print(f"{beta:5.2f}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(run())
