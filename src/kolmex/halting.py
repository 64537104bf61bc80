"""Halting-problem deformation: permutation lifts, complexity-order
conjugation, the pole-detecting series and orbit probes.

A partial function f on Z_+ lifts to the pair permutation

    tau_f(x, y) = (x + g(y), y),      g(y) = f(y) if y in D(f) else 0,

where the one-point extension X + {*} carries a pinned torsion-free group
structure: the zig-zag bijection with the integers sending * to 0 and
1, 2, 3, 4, ... to 1, -1, 2, -2, ...  Fixed points of tau_f are exactly
the pairs whose second coordinate lies outside D(f), and every non-fixed
orbit is an arithmetic progression, hence infinite.  Restricting to pairs
with y in D(f) gives the partial permutation sigma_f, which equals tau_f on
its domain; since tau_f keeps y, an orbit that starts in D(sigma_f) never
leaves it, so the package conjugates tau_f itself (`tau_zplus`).  Pairs
encode into Z_+ by the Cantor pairing of their natural labels (* -> 0),
shifted by 1.

Semi-computability is modelled by fuel: a transparent function carries an
exact domain predicate (ground truth for tests), an opaque one only ever
answers within fuel, and probes on opaque functions return certified
finite verdicts or `inconclusive`, never a guessed infinitude.

The complexity order used for conjugation and for the series exponents is
the proxy order; every probe report carries its version stamp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from . import PROXY_VERSION
from .complexity import KolmogorovOrder, kolmogorov_order


class HaltingError(ValueError):
    pass


class WindowExhausted(HaltingError):
    """An iterate or rank left the finite window this run materialized."""


# ---------------------------------------------------------------------------
# the pinned group structure on X + {*}
# ---------------------------------------------------------------------------

def zigzag(n: int) -> int:
    """X + {*} -> Z: * (encoded 0) -> 0; 1,2,3,4,... -> 1,-1,2,-2,..."""
    if n == 0:
        return 0
    if n < 0:
        raise HaltingError("natural labels are * = 0 or positive")
    half = (n + 1) // 2
    return half if n % 2 else -half

def unzigzag(z: int) -> int:
    """Inverse of zigzag: 0 -> * (0); z > 0 -> 2z - 1; z < 0 -> -2z."""
    if z == 0:
        return 0
    return 2 * z - 1 if z > 0 else -2 * z


def cantor_pair(m: int, n: int) -> int:
    return (m + n) * (m + n + 1) // 2 + n


def cantor_unpair(c: int) -> tuple[int, int]:
    """Inverse of cantor_pair: w = m + n is the largest w with
    w(w+1)/2 <= c, i.e. 2w + 1 <= isqrt(8c + 1)."""
    if c < 0:
        raise HaltingError(f"Cantor codes are non-negative, got {c}")
    w = (math.isqrt(8 * c + 1) - 1) // 2
    n = c - w * (w + 1) // 2
    return w - n, n


def encode_pair(x_label: int, y_label: int) -> int:
    """(X + {*})^2 -> Z_+ via Cantor pairing of the natural labels."""
    return cantor_pair(x_label, y_label) + 1


def decode_pair(value: int) -> tuple[int, int]:
    if value < 1:
        raise HaltingError("pair codes live in Z_+")
    return cantor_unpair(value - 1)


# ---------------------------------------------------------------------------
# partial functions with fuel
# ---------------------------------------------------------------------------

UNKNOWN = None  # fuel ran out: explicitly not an answer


@dataclass(frozen=True)
class PartialFunction:
    """f: Z_+ -> Z_+ with a fuel-limited evaluator.

    `compute(y, fuel)` returns the value, or None when it did not halt
    within fuel.  Transparent mode adds the exact domain predicate; the
    invariant (evaluation halts within fuel exactly on the domain) is what
    the tests exercise.
    """

    compute: Callable[[int, int], Optional[int]]
    domain: Optional[Callable[[int], bool]] = None
    name: str = "f"

    @property
    def transparent(self) -> bool:
        return self.domain is not None

    @classmethod
    def empty(cls) -> "PartialFunction":
        return cls(compute=lambda y, fuel: None, domain=lambda y: False, name="empty")

    @classmethod
    def identity(cls) -> "PartialFunction":
        return cls(compute=lambda y, fuel: y, domain=lambda y: True, name="id")

    @classmethod
    def on_evens(cls) -> "PartialFunction":
        return cls(
            compute=lambda y, fuel: y // 2 + 1 if y % 2 == 0 else None,
            domain=lambda y: y % 2 == 0,
            name="evens",
        )

    def opaque(self) -> "PartialFunction":
        """The same evaluator with the domain predicate withheld."""
        return PartialFunction(self.compute, None, f"{self.name}?")


# ---------------------------------------------------------------------------
# the lift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftedPermutation:
    """tau_f on integer coordinates and on the encoded Z_+ domain."""

    f: PartialFunction
    fuel: int = 10_000

    @property
    def transparent(self) -> bool:
        return self.f.transparent

    def shift(self, zy: int) -> Optional[int]:
        """g(y) in integer coordinates; None when fuel runs out (opaque).

        Zero exactly when y lies outside D(f): values of f are in X, whose
        zig-zag images avoid 0.
        """
        y_label = unzigzag(zy)
        if y_label == 0:
            return 0  # y = * is never in the domain
        if self.f.transparent and not self.f.domain(y_label):
            return 0
        value = self.f.compute(y_label, self.fuel)
        if value is None:
            return 0 if self.f.transparent else UNKNOWN
        return zigzag(value)

    def tau(self, pair: tuple[int, int]) -> Optional[tuple[int, int]]:
        """One step of tau_f in integer coordinates; None if unknowable."""
        zx, zy = pair
        s = self.shift(zy)
        if s is UNKNOWN:
            return UNKNOWN
        return (zx + s, zy)

    def is_fixed(self, pair: tuple[int, int]) -> Optional[bool]:
        s = self.shift(pair[1])
        return None if s is UNKNOWN else s == 0

    # -- encodings into Z_+ ---------------------------------------------------

    @staticmethod
    def encode(pair: tuple[int, int]) -> int:
        zx, zy = pair
        return encode_pair(unzigzag(zx), unzigzag(zy))

    @staticmethod
    def decode(value: int) -> tuple[int, int]:
        x_label, y_label = decode_pair(value)
        return zigzag(x_label), zigzag(y_label)

    def tau_zplus(self, value: int) -> Optional[int]:
        nxt = self.tau(self.decode(value))
        return None if nxt is UNKNOWN else self.encode(nxt)


def lift_to_permutation(f: PartialFunction, fuel: int = 10_000) -> LiftedPermutation:
    """Reduce the halting problem for f to fixed-point recognition."""
    return LiftedPermutation(f, fuel)


# ---------------------------------------------------------------------------
# conjugation by the complexity order
# ---------------------------------------------------------------------------

StepFn = Union[dict, Callable[[int], Optional[int]]]


def _as_callable(sigma: StepFn) -> Callable[[int], Optional[int]]:
    if isinstance(sigma, dict):
        return lambda x: sigma.get(x)
    return sigma


class ConjugatedPermutation:
    """sigma_K = K . sigma . K^(-1), acting on ranks of the order window."""

    def __init__(self, sigma: StepFn, order: KolmogorovOrder):
        self._sigma = _as_callable(sigma)
        self.order = order

    def __call__(self, rank: int) -> int:
        if not 1 <= rank <= len(self.order):
            raise WindowExhausted(f"rank {rank} outside the materialized window")
        image = self._sigma(self.order.object_at(rank))
        if image is None:
            raise HaltingError(f"rank {rank} maps outside the domain of sigma")
        if image not in self.order:
            raise WindowExhausted(f"sigma image {image} left the ordered window")
        return self.order.rank_of(image)


def conjugate(sigma: StepFn, order: KolmogorovOrder) -> ConjugatedPermutation:
    return ConjugatedPermutation(sigma, order)


# ---------------------------------------------------------------------------
# the series Phi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiSeries:
    """Partial sum data: constant 1/k^2 plus terms z^K(n) / sigma_K^n(k)^2."""

    base_rank: int
    n_terms: int
    constant: Fraction
    terms: tuple  # ((exponent K(n), coefficient), ...) for n = 1..N

    def __post_init__(self):
        exponents = [e for e, _ in self.terms]
        if len(set(exponents)) != len(exponents):
            raise HaltingError("exponents must be distinct (K is a bijection)")
        if self.constant <= 0 or any(c <= 0 for _, c in self.terms):
            raise HaltingError("all coefficients are positive by construction")


def phi_partial(base_rank: int, sigma_k: ConjugatedPermutation, n_terms: int) -> PhiSeries:
    """Exact coefficients of the first n_terms series terms.

    Term n carries exponent K(n) (the rank of the integer n in the order)
    and coefficient 1 / sigma_K^n(k)^2.
    """
    order = sigma_k.order
    if base_rank < 1:
        raise HaltingError("the base point is a rank in Z_+")
    if n_terms > len(order):
        raise WindowExhausted(
            f"need ranks of 1..{n_terms} but the window holds {len(order)} objects"
        )
    terms = []
    current = base_rank
    for n in range(1, n_terms + 1):
        current = sigma_k(current)
        exponent = order.rank_of(n)
        terms.append((exponent, Fraction(1, current * current)))
    return PhiSeries(base_rank, n_terms, Fraction(1, base_rank * base_rank), tuple(terms))


@dataclass(frozen=True)
class RationalFunction:
    """num(z) / den(z) with exact coefficients, lowest degree first."""

    num: tuple
    den: tuple

    def __post_init__(self):
        object.__setattr__(self, "num", tuple(Fraction(c) for c in self.num))
        object.__setattr__(self, "den", tuple(Fraction(c) for c in self.den))


def fixed_point_closed_form(base_rank: int, sigma_k: ConjugatedPermutation) -> RationalFunction:
    """For a fixed point of sigma_K the whole series collapses: the
    exponents K(n) enumerate all of Z_+, every coefficient is 1/k^2, and

        Phi = (1/k^2) (1 + z + z^2 + ...) = 1 / (k^2 (1 - z)),

    a first-order pole at z = 1.  Requires the fixed point certificate."""
    if sigma_k(base_rank) != base_rank:
        raise HaltingError(f"rank {base_rank} is not a fixed point of sigma_K")
    k2 = base_rank * base_rank
    return RationalFunction((Fraction(1, k2),), (Fraction(1), Fraction(-1)))


# ---------------------------------------------------------------------------
# orbit classification
# ---------------------------------------------------------------------------

FINITE, INFINITE, INCONCLUSIVE = "finite_orbit", "infinite_orbit", "inconclusive"


@dataclass(frozen=True)
class OrbitReport:
    point: object
    verdict: str
    certificate: dict = field(default_factory=dict)
    budget_used: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "point": list(self.point) if isinstance(self.point, tuple) else self.point,
                "verdict": self.verdict,
                "certificate": self.certificate,
                "budget_used": self.budget_used,
                "proxy_version": PROXY_VERSION,
            },
            indent=1,
        )


def classify_orbit(point, sigma, budget: int) -> OrbitReport:
    """finite_orbit on a revisit certificate, infinite_orbit only on a
    transparent structural certificate, inconclusive otherwise.

    `sigma` is a LiftedPermutation (point = integer-coordinate pair), or a
    dict / callable step map on whatever the points are.  Certified answers
    are never wrong; `inconclusive` is the honest fallback.
    """
    if budget <= 0:
        return OrbitReport(point, INCONCLUSIVE, {"reason": "budget 0"}, 0)
    if isinstance(sigma, LiftedPermutation):
        return _classify_lifted(point, sigma, budget)
    return _classify_by_iteration(point, _as_callable(sigma), budget)


def _classify_lifted(pair, lifted: LiftedPermutation, budget: int) -> OrbitReport:
    if lifted.transparent:
        # exact: fixed iff y outside D(f); otherwise an arithmetic
        # progression with nonzero step, which never returns
        shift = lifted.shift(pair[1])
        if shift == 0:
            return OrbitReport(pair, FINITE, {"period": 1, "kind": "fixed_point"}, 1)
        return OrbitReport(
            pair, INFINITE,
            {"kind": "nonzero_shift", "step": shift,
             "witness": "x-coordinate grows by a fixed nonzero step"},
            1,
        )
    return _classify_by_iteration(
        pair, lambda p: lifted.tau(p), budget
    )


def _classify_by_iteration(point, step, budget: int) -> OrbitReport:
    seen = {point: 0}
    current = point
    for used in range(1, budget + 1):
        nxt = step(current)
        if nxt is None:
            return OrbitReport(
                point, INCONCLUSIVE,
                {"reason": "step unknowable within fuel"}, used,
            )
        if nxt in seen:
            period = used - seen[nxt]
            return OrbitReport(
                point, FINITE,
                {"period": period, "preperiod": seen[nxt], "kind": "revisit"},
                used,
            )
        seen[nxt] = used
        current = nxt
    return OrbitReport(
        point, INCONCLUSIVE, {"reason": "budget exhausted without revisit"}, budget
    )


def integer_window_order(size: int) -> KolmogorovOrder:
    """Complexity order of the integers 1..size (the usual probe window)."""
    return kolmogorov_order(range(1, size + 1))
