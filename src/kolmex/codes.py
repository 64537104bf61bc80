"""Error-correcting code parameters, bound curves, ensembles and the
complexity-weighted partition sum.

Conventions:

* a code stores its words once, as a sorted tuple of ints packed with
  w = (q-1).bit_length() bits per symbol, first symbol most significant;
  packed order is tuple order and word-string order, and for q a power of
  two a packed word is its index in the word space.  Tuples of integer
  symbols in range(q) and symbol strings are views built on demand;
* k is floor(log_q card) -- ensembles contain codes of non-power sizes, so
  the bracket convention matters and is pinned here;
* codes of cardinality 1 are rejected outright (the minimum distance is a
  minimum over distinct pairs and would be undefined);
* for linear codes the minimum distance is computed as the minimum nonzero
  codeword weight, which equals the pairwise minimum and keeps large
  Reed-Solomon checks tractable;
* for unstructured codes d = 1 iff masking one symbol field makes two
  packed words collide, else d is the pairwise minimum of
  bit_count(fold(a ^ b)), each symbol field folded onto one bit.

Everything here is exact except partition sums, which are evaluated in
binary64 with compensated summation (the exponents are real numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import fields
from .complexity import (
    DEFAULT_PROXY,
    CodeWords,
    RsCode,
    WORD_SYMBOLS,
    pack_word,
    word_strings,
)
from .rng import SplitMix64


class CodeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# basic objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alphabet:
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise CodeError(f"alphabet needs q >= 2, got {self.q}")
        if self.q > len(WORD_SYMBOLS):
            raise CodeError(f"q={self.q} exceeds the pinned symbol table")

    @property
    def field(self) -> fields.Field:
        return fields.field(self.q)


@dataclass(frozen=True, init=False)
class Code:
    """A finite set of equal-length words over a q-ary alphabet, stored once
    as `packed`.  Words come as symbol tuples (`words`), as packed ints
    (`packed=`: strictly increasing, every field below q) or from a
    generator, where `words=None` means its row space.  `words`,
    `sorted_words()` and `to_code_words()` are built on each call."""

    alphabet: Alphabet
    n: int
    packed: tuple
    generator: Optional[tuple] = None  # rows over the field, for linear codes
    rs_params: Optional[tuple] = None  # (q, n, k, points) when built as RS

    def __init__(self, alphabet: Alphabet, n: int, words: Optional[Iterable] = None,
                 generator: Optional[tuple] = None, rs_params: Optional[tuple] = None,
                 *, packed: Optional[Sequence[int]] = None):
        for name, value in (("alphabet", alphabet), ("n", n), ("generator", generator),
                            ("rs_params", rs_params)):
            object.__setattr__(self, name, value)
        self.__post_init__(words, packed)

    def __post_init__(self, words, packed):
        n, q = self.n, self.alphabet.q
        if n < 1:
            raise CodeError("block length must be >= 1")
        if self.generator is not None:
            span = fields.row_space(self.alphabet.field, self.generator, n)
            if words is None:
                words = span
            elif span != words:
                raise CodeError("words are not the row space of the generator")
        w = (q - 1).bit_length()
        if (words is None) == (packed is None):
            raise CodeError("give either words or packed words")
        if packed is None:
            symbols = frozenset(range(q))
            packed = set()
            for word in words:
                if len(word) != n:
                    raise CodeError(f"word {word} has length {len(word)}, expected {n}")
                if not symbols.issuperset(word):
                    raise CodeError(f"word {word} has symbols outside range({q})")
                packed.add(pack_word(word, w))
            packed = sorted(packed)
        else:
            mask = (1 << w) - 1
            if any(a >= b for a, b in zip(packed, packed[1:])):
                raise CodeError("packed words must be strictly increasing")
            if packed and (packed[0] < 0 or packed[-1] >> n * w) or q != mask + 1 and any(
                    v >> s & mask >= q for v in packed for s in range(0, n * w, w)):
                raise CodeError(f"packed words need {n} symbols from range({q})")
        if len(packed) < 2:
            raise CodeError("codes need at least 2 words (d is a pairwise minimum)")
        object.__setattr__(self, "packed", tuple(packed))

    @property
    def q(self) -> int:
        return self.alphabet.q

    @property
    def words(self) -> frozenset:
        return frozenset(self.sorted_words())

    def card(self) -> int:
        return len(self.packed)

    def sorted_words(self) -> list[tuple]:
        w = (self.q - 1).bit_length()
        shifts = range((self.n - 1) * w, -1, -w)
        return [tuple(v >> s & (1 << w) - 1 for s in shifts) for v in self.packed]

    def canonical_string(self) -> str:
        return self.to_code_words().canonical_string()

    def to_code_words(self) -> CodeWords:
        """Value form with the sorted words as symbol strings."""
        return CodeWords(self.q, self.n, word_strings(self.packed, self.q, self.n))

    def description_hints(self) -> tuple:
        if self.rs_params is not None:
            q, n, k, points = self.rs_params
            return (RsCode(q, n, k, points),)
        return ()


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int
    rate: Fraction
    delta: Fraction

    def __post_init__(self):
        if not 0 < self.d <= self.n:
            raise CodeError("need 0 < d <= n")
        if not 0 <= self.k <= self.n:
            raise CodeError("need 0 <= k <= n")


def floor_log(q: int, card: int) -> int:
    """Largest k with q**k <= card."""
    k = 0
    power = q
    while power <= card:
        k += 1
        power *= q
    return k


def code_params(code: Code) -> CodeParams:
    """[n, k, d] parameters and the code point (k/n, d/n)."""
    n, q = code.n, code.q
    k = floor_log(q, code.card())
    if code.generator is not None:
        d = fields.min_weight_of_rowspace(code.alphabet.field, code.generator, n)
    else:
        d = _min_distance(code.packed, q, n)
    params = CodeParams(n, k, d, Fraction(k, n), Fraction(d, n))
    # Singleton bound (k/n + d/n <= 1 + 1/n) holds for every code; treat
    # violation as corruption.
    if k + d > n + 1:
        raise CodeError(f"Singleton bound violated: {params}")
    return params


def _min_distance(packed: Sequence[int], q: int, n: int) -> int:
    """Minimum Hamming distance of at least two distinct packed words."""
    w = (q - 1).bit_length()
    # d = 1 iff two words agree once some one position j is masked out
    symbol = (1 << w) - 1
    for j in range(n):
        keep = ~(symbol << (j * w))
        if len({v & keep for v in packed}) < len(packed):
            return 1
    # A field of x = a ^ b is nonzero iff its top bit is set in
    # ((x & rest) + rest) | x: adding `rest` carries out of any nonzero
    # lower bits, and never out of the field.
    ones = sum(1 << (j * w) for j in range(n))
    top = ones << (w - 1)
    rest = top - ones
    best = n
    for i, a in enumerate(packed):
        for b in packed[i + 1 :]:
            x = a ^ b
            dist = ((((x & rest) + rest) | x) & top).bit_count()
            if dist < best:
                if dist == 2:  # the least distance left once d = 1 is ruled out
                    return 2
                best = dist
    return best


# ---------------------------------------------------------------------------
# bound curves
# ---------------------------------------------------------------------------

def q_entropy(q: int, delta: float) -> float:
    """H_q(d) = d log_q(q-1) - d log_q d - (1-d) log_q (1-d), with 0 log 0 = 0."""
    if q < 2:
        raise CodeError("entropy needs q >= 2")
    if not 0.0 <= delta <= 1.0:
        raise CodeError(f"delta={delta} outside [0, 1]")
    logq = math.log(q)
    value = delta * math.log(q - 1) / logq if q > 2 else 0.0
    if 0.0 < delta:
        value -= delta * math.log(delta) / logq
    if delta < 1.0:
        value -= (1.0 - delta) * math.log(1.0 - delta) / logq
    return value


BOUND_KINDS = ("hamming", "gilbert_varshamov", "singleton")


def bound_curve(kind: str, q: int, delta: float) -> float:
    """R value of the named bound curve at delta, clamped below at 0."""
    if kind == "hamming":
        value = 1.0 - q_entropy(q, delta / 2.0)
    elif kind == "gilbert_varshamov":
        value = 1.0 - q_entropy(q, delta)
    elif kind == "singleton":
        if not 0.0 <= delta <= 1.0:
            raise CodeError(f"delta={delta} outside [0, 1]")
        value = 1.0 - delta
    else:
        raise CodeError(f"unknown bound {kind!r}; pick from {BOUND_KINDS}")
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def reed_solomon(q: int, n: int, k: int) -> Code:
    """Evaluation code of polynomials of degree < k at the first n field
    elements.  d = n + 1 - k (verified brute-force in the tests, not
    assumed here).
    """
    f = fields.field(q)
    points = tuple(range(n))
    rows = fields.rs_evaluation_rows(f, n, k, points)
    return Code(
        alphabet=Alphabet(q),
        n=n,
        words=None,
        generator=tuple(rows),
        rs_params=(q, n, k, points),
    )


def reed_solomon_min_distance(q: int, n: int, k: int) -> int:
    """Exhaustive minimum distance of the evaluation code on the first n
    field elements, one projective representative per codeword, never
    materializing the whole word set."""
    f = fields.field(q)
    rows = fields.rs_evaluation_rows(f, n, k, tuple(range(n)))
    return fields.min_weight_of_rowspace(f, rows, n)


def enumerate_linear_codes(q: int, n: int) -> "CodeEnsemble":
    """One code per linear subspace of F_q^n of dimension 1..n, via RREF
    generator matrices."""
    f = fields.field(q)
    dims = list(range(1, n + 1))
    codes = []
    for k in dims:
        for rows in _rref_matrices(f, n, k):
            codes.append(Code(Alphabet(q), n, None, generator=rows))
    provenance = {"kind": "enumerate_linear", "q": q, "n": n, "dims": dims}
    return CodeEnsemble.build(codes, provenance)


def _rref_matrices(f: fields.Field, n: int, k: int):
    """All reduced-row-echelon k x n matrices of rank k over the field."""
    from itertools import combinations, product

    q = f.q
    for pivots in combinations(range(n), k):
        free_positions = [
            (r, c)
            for r in range(k)
            for c in range(n)
            if c > pivots[r] and c not in pivots
        ]
        for values in product(range(q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


def sample_codes(q: int, n: int, size: int, count: int, seed: int) -> "CodeEnsemble":
    """`count` uniform random size-subsets of the full word space.

    Draws from the pinned deterministic generator, so a seed regenerates
    the ensemble byte-identically.
    """
    space = q**n
    if space > 1 << 64:
        raise CodeError(f"q^n = {space} exceeds the sampler's 2^64 word indices")
    if size > space:
        raise CodeError(f"size {size} exceeds q^n = {space}")
    if size < 2:
        raise CodeError("codes need at least 2 words")
    gen = SplitMix64(seed)
    codes = []
    for _ in range(count):
        packed = _packed_indices(gen.sample_sorted(space, size), q, n)
        codes.append(Code(Alphabet(q), n, packed=packed))
    provenance = {
        "kind": "sample",
        "q": q,
        "n": n,
        "size": size,
        "count": count,
        "seed": seed,
    }
    return CodeEnsemble.build(codes, provenance)


def _packed_indices(indices: list[int], q: int, n: int) -> list[int]:
    """Word-space indices (base-q numerals of n digits) as packed words, in
    the same order; for q a power of two they already are."""
    w = (q - 1).bit_length()
    if q == 1 << w:
        return indices
    c = min(n, floor_log(q, 4096))  # digits per lookup, q**c <= 4096
    table, base = _rebase_table(q, c), q**c
    out = []
    for v in indices:
        p = shift = 0
        while v:
            v, r = divmod(v, base)
            p |= table[r] << shift
            shift += c * w
        out.append(p)
    return out


@lru_cache(maxsize=8)
def _rebase_table(q: int, c: int) -> list[int]:
    """Packed form of every c-digit base-q numeral, indexed by its value."""
    w = (q - 1).bit_length()
    table = [0]
    for _ in range(c):
        table = [v << w | s for v in table for s in range(q)]
    return table


# ---------------------------------------------------------------------------
# ensembles and the partition sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleEntry:
    code: Code
    params: CodeParams
    complexity: int  # K as a big integer, = 2**bits

    @property
    def complexity_bits(self) -> int:
        return self.complexity.bit_length() - 1


@dataclass(frozen=True)
class CodeEnsemble:
    """Codes sorted ascending by (complexity, canonical serialization)."""

    q: int
    entries: tuple
    provenance: dict = dc_field(compare=False)

    @classmethod
    def build(cls, codes: Iterable[Code], provenance: dict) -> "CodeEnsemble":
        ranked = []  # ((K, canonical string), entry)
        q = None
        for code in codes:
            q = code.q if q is None else q
            if code.q != q:
                raise CodeError("mixed alphabets in one ensemble")
            words = code.to_code_words()
            k_hat = DEFAULT_PROXY.proxy_complexity(words, hints=code.description_hints())
            entry = EnsembleEntry(code, code_params(code), k_hat)
            ranked.append(((k_hat, words.canonical_string()), entry))
        ranked.sort(key=lambda pair: pair[0])
        return cls(q or 0, tuple(e for _, e in ranked), provenance)

    def __len__(self):
        return len(self.entries)


def partition_sum(ensemble: CodeEnsemble, rate: Fraction, delta_min: Fraction,
                  beta: float, eta: float = 0.01) -> tuple[float, int]:
    """Z = sum over selected codes of K^(-beta + delta(C) - 1).

    Selection: |R(C) - rate| <= eta and delta_min <= delta(C) <= 1.  Returns
    (value, number of contributing terms); an empty selection gives 0.
    Terms are 2**(bits * exponent), evaluated in binary64 and combined with
    compensated summation.
    """
    selected = _selection(ensemble, rate, delta_min, eta)
    return _z(selected, beta), len(selected)


def _selection(ensemble: CodeEnsemble, rate: Fraction, delta_min: Fraction,
               eta: float) -> list[tuple[int, float]]:
    """(K bits, float delta) of each code the partition sum selects, in
    ensemble order."""
    if eta < 0:
        raise CodeError("eta must be >= 0")
    eta_exact = Fraction(eta)
    return [(e.complexity_bits, float(e.params.delta)) for e in ensemble.entries
            if abs(e.params.rate - rate) <= eta_exact and delta_min <= e.params.delta <= 1]


def _z(selected: list[tuple[int, float]], beta: float) -> float:
    ln2 = math.log(2.0)
    return math.fsum([math.exp(bits * (-beta + delta - 1.0) * ln2)
                      for bits, delta in selected])


# ---------------------------------------------------------------------------
# CSV schemas (exact column orders are part of the contract)
# ---------------------------------------------------------------------------

def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def cloud_rows(ensemble: CodeEnsemble) -> list[str]:
    """Rows in the pinned cloud schema: q,n,size,k,d,R,delta,K_bits."""
    rows = ["q,n,size,k,d,R,delta,K_bits"]
    for e in ensemble.entries:
        p = e.params
        rows.append(
            f"{ensemble.q},{p.n},{e.code.card()},{p.k},{p.d},"
            f"{fmt17(float(p.rate))},{fmt17(float(p.delta))},{e.complexity_bits}"
        )
    return rows


def sweep_rows(ensemble: CodeEnsemble, rate: Fraction, delta_min: Fraction,
               betas: Sequence[float], eta: float = 0.01) -> list[str]:
    """Rows in the pinned sweep schema: R,Delta,beta,Z,terms."""
    selected = _selection(ensemble, rate, delta_min, eta)  # the same at every beta
    rows = ["R,Delta,beta,Z,terms"]
    for beta in betas:
        rows.append(
            f"{fmt17(float(rate))},{fmt17(float(delta_min))},"
            f"{fmt17(beta)},{fmt17(_z(selected, beta))},{len(selected)}"
        )
    return rows
