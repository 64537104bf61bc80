"""Literal references for the Wick pairing sums of `kolmex.feynman`."""

from fractions import Fraction


def wick_pairings_naive(colors: tuple, g_inv: tuple) -> Fraction:
    """Literal enumeration of all (M-1)!! pairings, for test-scale inputs."""
    if not colors:
        return Fraction(1)
    if len(colors) % 2:
        return Fraction(0)
    first, rest = colors[0], colors[1:]
    total = Fraction(0)
    for i in range(len(rest)):
        total += g_inv[first][rest[i]] * wick_pairings_naive(
            rest[:i] + rest[i + 1 :], g_inv
        )
    return total
