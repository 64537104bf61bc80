#!/usr/bin/env python3
"""Random-theory agreement between the graph expansion and the Gaussian oracle.

    python scripts/feynman_oracle_check.py --trials 5 --order 3
    python scripts/feynman_oracle_check.py --trials 3 --order 3 --colors 2

One color draws (c3, c4); more colors draw a random symmetric invertible
metric and cubic and quartic tensors over every index multiset (entries
that come out zero are dropped, so the tensors are sparse).
"""

import argparse
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kolmex.feynman import (
    MAX_ORACLE_COLORS,
    Theory,
    TheoryError,
    gaussian_oracle,
    graph_expansion,
    invert_matrix,
)
from kolmex.rng import SplitMix64


def draw_theory(gen: SplitMix64, colors: int) -> tuple[Theory, str]:
    """A random theory and a one-line description of it."""
    if colors == 1:
        c3 = Fraction(*gen.fraction_pair(9, 6))
        c4 = Fraction(*gen.fraction_pair(9, 6))
        return Theory.single_color(c3=c3, c4=c4), f"c3={c3} c4={c4}"
    while True:
        metric = [[Fraction(0)] * colors for _ in range(colors)]
        for i in range(colors):
            for j in range(i, colors):
                metric[i][j] = metric[j][i] = Fraction(*gen.fraction_pair(4, 3))
        try:
            invert_matrix(metric)
            break
        except TheoryError:
            continue
    tensors = {
        k: {idx: Fraction(*gen.fraction_pair(4, 3))
            for idx in combinations_with_replacement(range(colors), k)}
        for k in (3, 4)
    }
    theory = Theory.build(colors, metric, tensors)
    entries = sum(len(entries) for _, entries in theory.tensors)
    return theory, f"colors={colors} tensor entries={entries}"


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--colors", type=int, default=1,
                    choices=range(1, MAX_ORACLE_COLORS + 1),
                    help=f"number of colors, 1-{MAX_ORACLE_COLORS} (the oracle's budget)")
    args = ap.parse_args(argv)

    gen = SplitMix64(args.seed)
    for trial in range(args.trials):
        theory, text = draw_theory(gen, args.colors)
        t0 = time.perf_counter()
        e = graph_expansion(theory, args.order)
        t1 = time.perf_counter()
        o = gaussian_oracle(theory, args.order)
        t2 = time.perf_counter()
        status = "ok" if e.coeffs == o.coeffs else "MISMATCH"
        print(f"trial {trial}: {text} -> {status} "
              f"(expansion {t1 - t0:.2f}s oracle {t2 - t1:.2f}s)")
        if status != "ok":
            print(f"  expansion: {e.pretty()}")
            print(f"  oracle:    {o.pretty()}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
