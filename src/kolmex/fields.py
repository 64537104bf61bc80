"""Finite-field arithmetic for small q.

Prime q is handled by modular arithmetic.  q in {4, 8, 9, 16} uses tables
generated from pinned irreducible polynomials; elements are integers whose
base-p digits are the polynomial coefficients, constant term first:

    GF(4):  x^2 + x + 1       over GF(2)
    GF(8):  x^3 + x + 1       over GF(2)
    GF(9):  x^2 + 1           over GF(3)
    GF(16): x^4 + x + 1       over GF(2)

Other prime powers are rejected.  Field axioms are verified exhaustively at
construction (q <= 16 makes that cheap), so a table typo cannot survive.
"""

from __future__ import annotations

from functools import lru_cache

# q -> (p, irreducible polynomial as little-endian coefficient tuple, incl. leading 1)
_PINNED_POLYS = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (1, 0, 1)),
    16: (2, (1, 1, 0, 0, 1)),
}


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Arithmetic tables for GF(q)."""

    def __init__(self, q: int, add, mul):
        self.q = q
        self._add = add
        self._mul = mul
        self._verify_axioms()

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def pow(self, a: int, e: int) -> int:
        result = 1
        for _ in range(e):
            result = self._mul[result][a]
        return result

    def _verify_axioms(self):
        q, add, mul = self.q, self._add, self._mul
        rng = range(q)
        for a in rng:
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise FieldError(f"identity axiom fails at {a}")
            for b in rng:
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise FieldError(f"commutativity fails at ({a},{b})")
                for c in rng:
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise FieldError("additive associativity fails")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise FieldError("multiplicative associativity fails")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise FieldError("distributivity fails")
        for a in rng:
            if 0 not in add[a]:
                raise FieldError(f"{a} has no additive inverse")
            if a != 0 and 1 not in self._mul[a]:
                raise FieldError(f"{a} has no multiplicative inverse")


def _prime_field(p: int) -> Field:
    add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
    mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
    return Field(p, add, mul)


def _poly_field(q: int) -> Field:
    p, modulus = _PINNED_POLYS[q]
    deg = len(modulus) - 1

    def to_digits(a: int) -> list[int]:
        digits = []
        for _ in range(deg):
            digits.append(a % p)
            a //= p
        return digits

    def from_digits(digits) -> int:
        value = 0
        for d in reversed(digits):
            value = value * p + d
        return value

    def add_elems(a: int, b: int) -> int:
        da, db = to_digits(a), to_digits(b)
        return from_digits([(x + y) % p for x, y in zip(da, db)])

    def mul_elems(a: int, b: int) -> int:
        da, db = to_digits(a), to_digits(b)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the pinned polynomial: x^deg = -(lower terms)
        for i in range(len(prod) - 1, deg - 1, -1):
            coeff = prod[i]
            if coeff:
                prod[i] = 0
                for j in range(deg):
                    prod[i - deg + j] = (prod[i - deg + j] - coeff * modulus[j]) % p
        return from_digits(prod[:deg])

    add = tuple(tuple(add_elems(a, b) for b in range(q)) for a in range(q))
    mul = tuple(tuple(mul_elems(a, b) for b in range(q)) for a in range(q))
    return Field(q, add, mul)


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    """The field with q elements; raises FieldError for unsupported q."""
    if _is_prime(q):
        return _prime_field(q)
    if q in _PINNED_POLYS:
        return _poly_field(q)
    raise FieldError(f"q={q} is not prime and has no pinned table")


def rs_evaluation_rows(f: Field, n: int, k: int, points) -> list[tuple[int, ...]]:
    """Generator rows (points^i)_i=0..k-1 of the evaluation code."""
    points = tuple(points)
    if len(set(points)) != len(points):
        raise ValueError("evaluation points must be distinct")
    if not 1 <= k <= n <= f.q:
        raise ValueError(f"need 1 <= k <= n <= q, got k={k} n={n} q={f.q}")
    if len(points) != n:
        raise ValueError("need exactly n evaluation points")
    rows = []
    for i in range(k):
        rows.append(tuple(f.pow(x, i) for x in points))
    return rows


def row_space(f: Field, rows, n: int) -> frozenset[tuple[int, ...]]:
    """Every F_q-linear combination of the rows, as length-n tuples; each
    word is one vector addition of a multiple of a row to an earlier word."""
    add, mul = f._add, f._mul
    words = [(0,) * n]
    for row in rows:
        multiples = [tuple(mul[c][s] for s in row) for c in range(1, f.q)]
        words += [tuple(add[a][b] for a, b in zip(w, m)) for m in multiples for w in words]
    return frozenset(words)


def rs_wordset(f: Field, n: int, k: int, points) -> frozenset[tuple[int, ...]]:
    """All evaluation vectors (f(x_1)..f(x_n)) of polynomials of degree < k."""
    return row_space(f, rs_evaluation_rows(f, n, k, points), n)


def min_weight_of_rowspace(f: Field, rows, n: int) -> int:
    """Minimum Hamming weight over nonzero row-space combinations.

    Scans one representative per projective class: rows[lead] plus the span
    of the rows after it (first nonzero coefficient = 1); weight is
    scaling-invariant, so the scan is exhaustive.
    """
    add = f._add
    return min(
        (sum(1 for a, b in zip(row, w) if add[a][b])
         for lead, row in enumerate(rows)
         for w in row_space(f, rows[lead + 1 :], n)),
        default=n,
    )
