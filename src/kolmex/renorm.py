"""Minimal-subtraction algebras, convolution of characters and the
Birkhoff/BPHZ decomposition.

The target algebra is Laurent-style: a finite polar part (powers t^-1,
t^-2, ... with no constant term) plus a regular power series truncated at
a pinned order (default 16), all coefficients exact rationals.  The single
variable t covers both interpretations -- germs at zero (t = z) and the
disc-algebra coordinates (t = 1 - z); only documentation differs.

An element stores its coefficients as integer numerators over one shared
positive denominator, lowest power first, reduced by a single gcd per
element, so sums and products run on plain ints.  Most numerators are
zero (polar-only parts, short regular sides), so an element also keeps,
filled on its first product, the tuple of the indices of its nonzero
numerators: one int per nonzero, and no (index, numerator) pairs, which
would cost memory for every cached value.  A product walks the two index
tuples and stops at the result window's edge.  `Fraction` values are
built only at the boundary (`polar`, `regular`, `coeff`, repr); JSON text
is written straight from the numerators (`value_json`).

Truncation is a hard contract: every element tracks the regular order up
to which its coefficients are exact, operations propagate that window
(a polar factor of depth P consumes P orders of its partner's window:
a product of windows Vx, Vy and depths Px, Py is valid through
min(Vx - Py, Vy - Px)), and comparisons beyond the window raise
TruncationError instead of answering from garbage.  Only declared exact
zeros -- `MSElement.zero()`, a `polar_part()` with no polar terms, and
the `regular_part()` of an element whose regular side is declared zero --
are known at every order, so only they may give a product the wider
window max(Vx, Vy); a value that merely reads zero within its window gets
the rule above.

Characters are multiplicative maps from the graph bialgebra into this
algebra, stored on connected generators; convolution, the recursive
inverse and the BPHZ recursion work on arbitrary unit-preserving linear
maps, evaluated monomial by monomial with per-object caches.  The inverse
and the BPHZ bracket share one recursion over the reduced coproduct,
`hopf._cut_sum`, which the antipode takes as well.  Each step of it, and
each value of a convolution, is one `MSElement.accumulate`: the sum
first + sum c * (x * y) found in a single integer pass (result window
first, each product only through it, one denominator, one gcd) with
exactly the value, window and errors of the pairwise fold.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable

from . import rational
from .hopf import (
    UNIT_MONOMIAL,
    HopfError,
    Monomial,
    _cut_sum,
    check_generator,
    coproduct_of_monomial,
    monomial_degree,
)

DEFAULT_TRUNC = 16
# the largest truncation character JSON may declare, far above every use
# (16 at most); each value is padded to it, so it bounds the work
MAX_TRUNC = 4096


class TruncationError(ArithmeticError, ValueError):
    pass


class RenormError(ValueError):
    pass


class MSElement:
    """polar + regular with an explicit validity window on the regular part.

    `_nums[k] / _den` is the coefficient of t^(k - _depth): the polar part
    (depth `_depth`, deepest power first) followed by the regular part
    through t^valid_order.  `_den` is positive with gcd(_den, *_nums) == 1,
    and the deepest polar numerator is nonzero.  `_rzero`
    declares the regular side exactly zero at every order, beyond the
    window too.  `_nz` is None until the first product fills it with the
    indices of all nonzero `_nums`, whatever that product's window.
    Elements are immutable.
    """

    __slots__ = ("_nums", "_den", "_depth", "_rzero", "_nz")

    def __init__(self, polar: Iterable = (), regular: Iterable = ()):
        polar = list(polar)  # ints and Fractions, index i -> t^-(i+1)
        regular = list(regular)  # index j -> t^j
        if not regular:
            raise TruncationError("element carries no valid regular window")
        coeffs = polar[::-1] + regular
        den = lcm(*(c.denominator for c in coeffs))
        self._nums, self._den, self._depth = _reduced(
            [c.numerator * (den // c.denominator) for c in coeffs], den, len(polar))
        self._rzero = False
        self._nz = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int = DEFAULT_TRUNC) -> "MSElement":
        """The declared exact zero, valid through t^trunc."""
        return _new((0,) * (trunc + 1), 1, 0, True)

    @classmethod
    def one(cls, trunc: int = DEFAULT_TRUNC) -> "MSElement":
        return _new((1,) + (0,) * trunc, 1, 0, False)

    @classmethod
    def from_coeffs(cls, coeffs: dict, trunc: int = DEFAULT_TRUNC) -> "MSElement":
        """Build from {power: coefficient}; negative powers are polar."""
        depth = max((-p for p in coeffs if p < 0), default=0)
        polar = [coeffs.get(-(i + 1), 0) for i in range(depth)]
        regular = [coeffs.get(j, 0) for j in range(trunc + 1)]
        if any(p > trunc for p in coeffs):
            raise TruncationError("coefficient beyond the truncation order")
        return cls(polar, regular)

    # -- inspection -----------------------------------------------------------

    @property
    def polar(self) -> tuple:
        """Coefficients of t^-1, t^-2, ... down to the polar depth."""
        den = self._den
        return tuple(Fraction(n, den) for n in reversed(self._nums[:self._depth]))

    @property
    def regular(self) -> tuple:
        """Coefficients of t^0 .. t^valid_order."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums[self._depth:])

    @property
    def valid_order(self) -> int:
        return len(self._nums) - self._depth - 1

    def coeff(self, power: int) -> Fraction:
        if power > self.valid_order:
            raise TruncationError(
                f"t^{power} lies beyond the valid window (order {self.valid_order})"
            )
        if power < -self._depth:
            return Fraction(0)
        return Fraction(self._nums[self._depth + power], self._den)

    def is_polar_only(self) -> bool:
        return not any(self._nums[self._depth:])

    def is_regular_only(self) -> bool:
        return not self._depth

    def _is_exact_zero(self) -> bool:
        return self._rzero and not self._depth

    # -- the minimal-subtraction split ---------------------------------------

    def polar_part(self) -> "MSElement":
        """The polar side; its regular side is an exact zero."""
        depth = self._depth
        nums = self._nums[:depth] + (0,) * (len(self._nums) - depth)
        return _new(*_reduced(nums, self._den, depth), True)

    def regular_part(self) -> "MSElement":
        return _new(*_reduced(self._nums[self._depth:], self._den, 0), self._rzero)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "MSElement") -> "MSElement":
        xs, ys = self._nums, other._nums
        px, py = self._depth, other._depth
        depth = max(px, py)
        window = min(len(xs) - px, len(ys) - py)  # regular orders kept
        dx, dy = self._den, other._den
        if dx != dy:
            g = gcd(dx, dy)
            mx, my = dy // g, dx // g
            xs = [n * mx for n in xs[:px + window]]
            ys = [n * my for n in ys[:py + window]]
            dx *= mx
        else:
            xs, ys = xs[:px + window], ys[:py + window]
        if px != depth:
            xs = [0] * (depth - px) + list(xs)
        if py != depth:
            ys = [0] * (depth - py) + list(ys)
        return _new(*_reduced(list(map(add, xs, ys)), dx, depth),
                    self._rzero and other._rzero)

    def __neg__(self) -> "MSElement":
        return _new(tuple(-n for n in self._nums), self._den, self._depth,
                    self._rzero)

    def __sub__(self, other: "MSElement") -> "MSElement":
        return self + (-other)

    def __mul__(self, other: "MSElement") -> "MSElement":
        """Laurent convolution; the result window is min(Vx - Py, Vy - Px),
        or max(Vx, Vy) when a factor is a declared exact zero (see the
        module docstring)."""
        if not isinstance(other, MSElement):
            return NotImplemented
        if self._is_exact_zero() or other._is_exact_zero():
            return MSElement.zero(max(self.valid_order, other.valid_order))
        xs, ys = self._nums, other._nums
        px, py = self._depth, other._depth
        window = min(len(xs) - 1 - px - py, len(ys) - 1 - py - px)
        if window < 0:
            raise TruncationError("truncated windows too short for this product")
        out = [0] * (px + py + window + 1)
        _convolve_into(out, 0, self, other, 1)
        return _new(*_reduced(out, self._den * other._den, px + py), False)

    def accumulate(self, terms: Iterable) -> "MSElement":
        """self + sum c * (x * y) over (count, x, y) terms, count an int.

        The same element, window and TruncationError as the pairwise fold
        `self + c * (x * y) + ...`, in one pass: the result window is the
        minimum of self's and every product's (by the rule of `__mul__`),
        each product is computed only through it, and the numerators are
        summed over one common denominator with a single gcd at the end.
        Terms are read in order, and a product whose windows are too short
        raises as soon as it is read."""
        nums, depth, den, rzero = self._nums, self._depth, self._den, self._rzero
        regular = len(nums) - depth  # regular orders kept
        live = []
        for c, x, y in terms:
            px, py = x._depth, y._depth
            if (x._rzero and not px) or (y._rzero and not py):  # a declared zero
                regular = min(regular, max(len(x._nums) - px, len(y._nums) - py))
                continue
            kept = min(len(x._nums), len(y._nums)) - px - py
            if kept <= 0:
                raise TruncationError("truncated windows too short for this product")
            regular = min(regular, kept)
            depth = max(depth, px + py)
            den = lcm(den, x._den * y._den)
            live.append((c, x, y))
        if live:
            rzero = False
        size = depth + regular
        out = [0] * size
        offset, scale = depth - self._depth, den // self._den
        head = nums[:size - offset]
        out[offset:size] = head if scale == 1 else [n * scale for n in head]
        for c, x, y in live:
            _convolve_into(out, depth - x._depth - y._depth, x, y,
                           c * (den // (x._den * y._den)))
        return _new(*_reduced(out, den, depth), rzero)

    def __rmul__(self, scalar) -> "MSElement":
        scalar = rational.exact(scalar)
        if scalar == 1:
            return self
        num = scalar.numerator
        return _new(*_reduced([num * n for n in self._nums],
                              self._den * scalar.denominator, self._depth),
                    self._rzero)

    # -- comparison -----------------------------------------------------------

    def eq_through(self, other: "MSElement", order: int) -> bool:
        """Exact equality of all powers up to t^order (polar included)."""
        if order > min(self.valid_order, other.valid_order):
            raise TruncationError(
                f"cannot compare through t^{order}: windows are "
                f"{self.valid_order} and {other.valid_order}"
            )
        if self._depth != other._depth:
            return False
        size = self._depth + max(order + 1, 0)
        xs, ys = self._nums[:size], other._nums[:size]
        dx, dy = self._den, other._den
        if dx == dy:
            return xs == ys
        return all(a * dy == b * dx for a, b in zip(xs, ys))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MSElement):
            return NotImplemented
        return self.eq_through(other, min(self.valid_order, other.valid_order))

    def __repr__(self):
        depth = self._depth
        powers = list(range(-1, -depth - 1, -1)) + list(range(self.valid_order + 1))
        bits = [f"{c}*t^{p}" for p in powers if (c := self.coeff(p))]
        return "MS(" + (" + ".join(bits) if bits else "0") + f" |{self.valid_order})"


def _convolve_into(out: list, offset: int, x: MSElement, y: MSElement, scale: int):
    """out[offset + k] += scale * (x._nums convolved with y._nums)[k], for
    every k that fits in out."""
    size = len(out) - offset
    xs, ys, xi, yi = x._nums, y._nums, x._nz, y._nz
    if xi is None:
        xi = _nonzero(x)
    if yi is None:
        yi = _nonzero(y)
    for i in xi:
        if i >= size:
            break
        a, room, base = xs[i] * scale, size - i, offset + i
        for j in yi:
            if j >= room:
                break
            out[base + j] += a * ys[j]


def _nonzero(x: MSElement) -> tuple:
    """The indices of all of x's nonzero numerators, in order, cached on x."""
    x._nz = nz = tuple(compress(range(len(x._nums)), x._nums))
    return nz


def _reduced(nums, den: int, depth: int) -> tuple[tuple, int, int]:
    """(numerators, denominator, depth) in the stored form: zero deepest
    polar terms trimmed and the common gcd divided out."""
    lead = 0
    while lead < depth and not nums[lead]:
        lead += 1
    if lead:
        nums = nums[lead:]
        depth -= lead
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return tuple(nums), den, depth


def _new(nums: tuple, den: int, depth: int, rzero: bool) -> MSElement:
    """An element from numerators that already satisfy the invariants."""
    x = object.__new__(MSElement)
    x._nums = nums
    x._den = den
    x._depth = depth
    x._rzero = rzero
    x._nz = None
    return x


# ---------------------------------------------------------------------------
# maps from the bialgebra into A
# ---------------------------------------------------------------------------

class GMap:
    """Linear map H -> A determined by its values on monomials.

    Values get cached per map; `degree_bound` guards against silently
    running past the region the map was built for, and is checked only on a
    cache miss (a cached monomial has passed it).  The function decides its
    own unit value.
    """

    def __init__(self, fn: Callable[[Monomial], MSElement], degree_bound: int,
                 trunc: int = DEFAULT_TRUNC, name: str = "map"):
        self._fn = fn
        self.degree_bound = degree_bound
        self.trunc = trunc
        self.name = name
        self._cache: dict = {}

    def __call__(self, mono: Monomial) -> MSElement:
        value = self._cache.get(mono)
        if value is None:
            if monomial_degree(mono) > self.degree_bound:
                raise RenormError(
                    f"{self.name}: monomial degree {rational.shown(monomial_degree(mono))} "
                    f"exceeds bound {self.degree_bound}"
                )
            value = self._cache[mono] = self._fn(mono)
        return value


class Character(GMap):
    """Multiplicative map: a value per connected generator, extended by
    products over the monomial's components."""

    def __init__(self, generator_values: dict, degree_bound: int,
                 trunc: int = DEFAULT_TRUNC, name: str = "phi"):
        self.generator_values = dict(generator_values)

        def fn(mono: Monomial) -> MSElement:
            acc = None
            for label in mono:
                if label not in self.generator_values:
                    raise RenormError(f"{name}: no value for generator {label}")
                value = self.generator_values[label]
                acc = value if acc is None else acc * value
            return MSElement.one(trunc) if acc is None else acc

        super().__init__(fn, degree_bound, trunc, name)


def convolution(phi: GMap, psi: GMap) -> GMap:
    """(phi * psi)(x) = m_A (phi x psi) Delta(x)."""
    bound = min(phi.degree_bound, psi.degree_bound)
    trunc = min(phi.trunc, psi.trunc)

    def fn(mono: Monomial) -> MSElement:
        return MSElement.zero(trunc).accumulate(
            (c, phi(left), psi(right))
            for (left, right), c in coproduct_of_monomial(mono).items())

    return GMap(fn, bound, trunc, f"({phi.name}*{psi.name})")


def conv_inverse(phi: GMap) -> GMap:
    """phi^(*-1)(1) = 1 and phi^(*-1)(x) = -phi(x) - sum phi^(*-1)(x') phi(x'')
    over the reduced coproduct, for a unit-preserving phi.

    This is (phi^(*-1) * phi)(x) = 0 solved for the x (x) 1 term.  A
    unit-preserving phi is invertible (e - phi vanishes on the unit, so
    its convolution powers die on each x) and convolution is associative,
    so this left inverse is the two-sided one.  For a character it equals
    phi o S.

    No convolution powers are built: the inverse recurses through its own
    cache, so each monomial costs one reduced-coproduct sum of
    integer-numerator products, with the windows those products carry.  The
    step is `hopf._cut_sum`, the one the antipode and Birkhoff's bracket
    take.
    """
    trunc = phi.trunc

    def inverse_value(mono: Monomial) -> MSElement:
        if mono == UNIT_MONOMIAL:
            return MSElement.one(trunc)
        return -_cut_sum(mono, phi(mono), inverse, phi)

    inverse = GMap(inverse_value, phi.degree_bound, trunc, f"{phi.name}^-1")
    return inverse


def birkhoff(phi: Character) -> tuple[GMap, GMap]:
    """The BPHZ recursion.  On ker eps:

        phi_minus(x) = -pi(phi(x) + sum phi_minus(x') phi(x''))
        phi_plus(x)  = (id - pi)(same bracket),

    the sum running over the reduced coproduct.  phi_minus lands in the
    polar subalgebra on ker eps, phi_plus in the regular one, and
    phi = phi_minus^(*-1) * phi_plus exactly.

    Requires a character: the factors are multiplicative (and the
    decomposition unique) only for multiplicative phi.  The bracket is a
    map of its own, so it is computed once per monomial, by `hopf._cut_sum`,
    the recursion step the antipode and `conv_inverse` share.
    """
    if not isinstance(phi, Character):
        raise RenormError("birkhoff needs a character (multiplicative map)")
    trunc = phi.trunc
    bracket = GMap(
        lambda mono: _cut_sum(mono, phi(mono), phi_minus, phi),
        phi.degree_bound,
        trunc,
        f"[{phi.name}]",
    )

    def minus_value(mono: Monomial) -> MSElement:
        if mono == UNIT_MONOMIAL:
            return MSElement.one(trunc)
        b = bracket(mono)  # -b.polar_part(), built as one element
        nums, depth = b._nums, b._depth
        return _new(*_reduced([-n for n in nums[:depth]] + [0] * (len(nums) - depth),
                              b._den, depth), True)

    phi_minus = GMap(minus_value, phi.degree_bound, trunc, f"{phi.name}-")
    phi_plus = GMap(
        lambda mono: bracket(mono).regular_part(),
        phi.degree_bound,
        trunc,
        f"{phi.name}+",
    )
    return phi_minus, phi_plus


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def value_json(val: MSElement, order: int | None = None) -> dict:
    """{"polar": [...], "regular": [...]}: the texts `rational.text` writes
    for val's `polar` and `regular` coefficients, the latter through
    t^order (default: its whole window).  Each is written from its
    numerator over the shared denominator, with no Fraction built."""
    nums, den, depth = val._nums, val._den, val._depth
    stop = len(nums) if order is None else depth + order + 1
    return {"polar": [_ratio_text(n, den) for n in reversed(nums[:depth])],
            "regular": [_ratio_text(n, den) for n in nums[depth:stop]]}


def _ratio_text(n: int, den: int) -> str:
    """rational.text(Fraction(n, den)) for den > 0."""
    g = gcd(n, den)
    if g == den:
        return rational.text(n // g)
    return f"{rational.text(n // g)}/{rational.text(den // g)}"


def character_to_json(chi: Character) -> str:
    """Character JSON; a value known through fewer orders than the
    truncation carries its window as "valid"."""
    values = []
    for label, val in sorted(chi.generator_values.items()):
        value = value_json(val, chi.trunc)
        if val.valid_order < chi.trunc:
            value["valid"] = val.valid_order
        values.append({"graph": label, "value": value})
    doc = {"degree_bound": chi.degree_bound, "truncation": chi.trunc, "values": values}
    return json.dumps(doc, indent=1)


def character_from_json(text: str) -> Character:
    """Parse character JSON; malformed input raises RenormError naming the
    entry and key at fault, and so does a graph that is not a generator
    (checked once the rest has parsed).  A value is known through its optional "valid" order
    (0..truncation, default truncation); its regular list is padded with
    zeros up to that order."""
    try:
        doc = json.loads(text, parse_int=rational.decimal_int)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise RenormError(f"bad character JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise RenormError("character JSON must be an object")
    degree_bound = _count(doc, "degree_bound")
    trunc = _count(doc, "truncation") if "truncation" in doc else DEFAULT_TRUNC
    if trunc > MAX_TRUNC:
        raise RenormError(f"character JSON: truncation must be at most {MAX_TRUNC}, "
                          f"got {rational.shown(trunc)}")
    entries = _field(doc, "values", list, "character JSON")
    values, first = {}, {}
    for i, entry in enumerate(entries):
        where = f"values[{i}]"
        if not isinstance(entry, dict):
            raise RenormError(f"{where} must be an object")
        label = _field(entry, "graph", str, where)
        if label in first:
            raise RenormError(
                f"{where}: graph {rational.shown(label)} repeats values[{first[label]}]")
        first[label] = i
        val = _field(entry, "value", dict, where)
        polar = _coeffs(val, "polar", f"{where}.value")
        regular = _coeffs(val, "regular", f"{where}.value")
        valid, bound = trunc, "truncation"
        if "valid" in val:
            valid, bound = val["valid"], "valid"
            if isinstance(valid, bool) or not isinstance(valid, int) or not 0 <= valid <= trunc:
                raise RenormError(f"{where}.value.valid must be an integer in 0..{trunc}, "
                                  f"got {rational.shown(valid)}")
        if len(regular) > valid + 1:
            raise RenormError(
                f"{where}.value.regular has {len(regular)} coefficients, more than "
                f"{bound} + 1 = {valid + 1}")
        regular += [Fraction(0)] * (valid + 1 - len(regular))
        values[label] = MSElement(polar, regular)
    for label, i in first.items():
        try:
            check_generator(label)
        except HopfError as exc:
            raise RenormError(f"values[{i}].graph: {exc}") from None
    return Character(values, degree_bound, trunc)


_KIND_NAMES = {list: "list", dict: "object", str: "string"}


def _field(obj: dict, key: str, kind: type, where: str):
    if key not in obj:
        raise RenormError(f"{where} lacks {key!r}")
    if not isinstance(obj[key], kind):
        raise RenormError(f"{where}: {key} must be a {_KIND_NAMES[kind]}")
    return obj[key]


def _count(doc: dict, key: str) -> int:
    if key not in doc:
        raise RenormError(f"character JSON lacks {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise RenormError(
            f"character JSON: {key} must be a non-negative integer, got {rational.shown(value)}"
        )
    return value


def _coeffs(val: dict, key: str, where: str) -> list:
    out = []
    for j, c in enumerate(_field(val, key, list, where)):
        try:
            out.append(rational.exact(c))
        except (TypeError, ValueError):
            raise RenormError(f"{where}.{key}[{j}]: bad coefficient {rational.shown(c)}") from None
    return out
