"""Literal references for `kolmex.feynman`: the Wick pairing enumeration,
the expansion summed over every vacuum class, the one-colour profile sums
on Fractions, and the Gaussian oracle summed over vertex multisets."""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, prod
from operator import add

from kolmex.feynman import LambdaSeries, graph_weight, wick_pairing_sum
from kolmex.graphs import _vacuum_classes_with_aut


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


def oracle_options(theory) -> list:
    """(valence, sorted index tuple, C_alpha / sym(alpha)) per tensor entry."""
    options = []
    for valence, entries in theory.tensors:
        for idx, coeff in entries:
            sym = Fraction(1)
            for c in set(idx):
                sym *= factorial(idx.count(c))
            options.append((valence, idx, coeff / sym))
    return options


def class_by_class_sums(theory, valences, order, budget=200_000, connected=False):
    """The sum of weight / |Aut| at each order 0..order, one `graph_weight`
    per class of the vacuum family of `valences` (only its connected
    non-empty classes with `connected`)."""
    coeffs = [Fraction(0)] * (order + 1)
    for _, data, aut in _vacuum_classes_with_aut(order, valences, budget, connected):
        n = data.n_flags // 2 - data.n_vertices  # E - V of a tail-free class
        if 0 <= n <= order:
            w = graph_weight(data, theory)
            if w:
                coeffs[n] += w / aut
    return coeffs


def fraction_profile_sums(table, theory) -> dict:
    """order -> the sum over the rows of a `_profile_table` of 1/|Aut| *
    prod_k C_k^(n_k) * (g^{-1})^E, in Fractions, for a one-colour theory;
    a profile with a valence the theory lacks adds nothing."""
    ((g_inv,),) = theory.metric_inverse
    couplings = {k: c for k, ((_, c),) in theory.tensors}
    sums: dict = {}
    for profile, edges, order, inverse_aut in table:
        if all(k in couplings for k, _ in profile):
            term = inverse_aut * g_inv**edges
            for k, count in profile:
                term *= couplings[k] ** count
            sums[order] = sums.get(order, 0) + term
    return sums


def full_class_expansion(theory, order, budget=200_000):
    """Sum lambda^(E-V) * weight / |Aut| over every tail-free class,
    connected or not."""
    return LambdaSeries(tuple(class_by_class_sums(theory, theory.valences(), order, budget)))


def multiset_oracle(theory, order):
    """The Gaussian oracle over every multiset of at most 2 * order
    vertices, each weighted 1 / prod_i m_i!."""
    options = oracle_options(theory)
    g_inv = theory.metric_inverse
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)  # the empty product
    memo: dict = {}
    for p in range(1, 2 * order + 1):
        for combo in combinations_with_replacement(options, p):
            slots = sum(k for k, _, _ in combo)
            n = slots // 2 - p
            if slots % 2 or not 0 <= n <= order:
                continue
            counts = [0] * theory.n_colors
            factor = Fraction(1)
            for _, idx, coeff in combo:
                factor *= coeff
                for c in idx:
                    counts[c] += 1
            for m in Counter(combo).values():
                factor /= factorial(m)
            coeffs[n] += factor * wick_pairing_sum(tuple(counts), g_inv, memo)
    return LambdaSeries(tuple(coeffs))


def wick_profile_sums(order, valences, cap=None, connected=True) -> dict:
    """profile -> the sum of 1/|Aut| over the vacuum classes with that
    valence profile (sorted (valence, vertex count) pairs), E - V <= order
    and at most `cap` vertices (2 * order by default); only the connected
    non-empty classes with `connected`.

    By Wick's theorem the classes of n_k vertices of valence k, connected
    or not, sum to (2E-1)!! / prod_k n_k! (k!)^(n_k), the pairings of their
    2E flags over the vertex and flag relabellings; the connected sums are
    the coefficients of the logarithm of that series."""
    valences = sorted(set(valences))
    if cap is None:
        if min(valences) <= 2:
            raise ValueError("valences <= 2 need a cap")
        cap = 2 * order
    z = {}
    for counts in product(range(cap + 1), repeat=len(valences)):
        flags = sum(k * n for k, n in zip(valences, counts))
        if sum(counts) <= cap and flags % 2 == 0:
            pairings = factorial(flags) // (2 ** (flags // 2) * factorial(flags // 2))
            symmetry = prod(factorial(n) * factorial(k) ** n for k, n in zip(valences, counts))
            z[counts] = Fraction(pairings, symmetry)
    if connected:  # log Z = sum_j (-1)^(j+1) (Z - 1)^j / j, truncated at `cap` vertices
        rest = {m: c for m, c in z.items() if any(m)}
        z, power = Counter(), {(0,) * len(valences): Fraction(1)}
        for j in range(1, cap + 1):
            nxt = Counter()
            for m, c in power.items():
                for m2, c2 in rest.items():
                    m3 = tuple(map(add, m, m2))
                    if sum(m3) <= cap:
                        nxt[m3] += c * c2
            power = nxt
            for m, c in power.items():
                z[m] += (-1) ** (j + 1) * c / j
    return {
        tuple((k, n) for k, n in zip(valences, m) if n): c for m, c in z.items()
        if c and sum(k * n for k, n in zip(valences, m)) // 2 - sum(m) <= order
    }
