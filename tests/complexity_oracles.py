"""Node-building reference for the proxy search.

`NodeSearch` is the bounded search as a tree of `Description` nodes: every
candidate is built as a node and the winner is the node with the least
(bits, serialization).  The live search ranks the same candidates as
canonical text, in the same order and with the same budget spends, and
parses only the winner; `NodeSearch` is what it must agree with.

`perfect_power_ref` is the integer search's root loop alone, without the live
search's table of small perfect powers or its square-residue filter;
`NodeSearch` uses it, so the two searches share no perfect-power code.

`synthetic_zipf_corpus_ref` draws the Zipf corpus as floats: one uniform in
[0, 1) per token from the one-value SplitMix64 stream, and one float bisect
of the cumulative weights; `zipf_cumulative_ref` is those weights.
"""

import math
from bisect import bisect_left
from functools import lru_cache

from code_oracles import splitmix64_ref

from kolmex.complexity import (
    BITS_PER_CHAR,
    Add,
    Blob,
    CodeBlob,
    CodeLit,
    CodeWords,
    Description,
    DescriptionError,
    Lit,
    Mul,
    Pow,
    Rep,
    Tower,
    WordLit,
    _Budget,
    _tower_pairs,
    lzw_compress,
)


def iroot_ref(x: int, b: int) -> int:
    """Largest a with a**b <= x (x >= 1, b >= 1), by Newton's method."""
    if b == 1:
        return x
    a = 1 << (x.bit_length() // b + 1)
    while True:
        nxt = ((b - 1) * a + x // a ** (b - 1)) // b
        if nxt >= a:
            return a
        a = nxt


@lru_cache(maxsize=None)
def primes_ref(n: int) -> tuple[int, ...]:
    """Primes below n, by trial division."""
    return tuple(p for p in range(2, n) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def exact_root_ref(y: int, p: int):
    """r with r**p == y, or None (y >= 2, p >= 2): a float estimate rules
    out most y while the root is below 2**32, else Newton's root."""
    if y.bit_length() <= 32 * p:
        f = 2.0 ** (math.log2(y) / p)
        r = round(f)
        if abs(f - r) > 1e-3:
            return None
    else:
        r = iroot_ref(y, p)
    return r if r**p == y else None


def perfect_power_ref(x: int, top: int) -> tuple[int, int]:
    """(m, e) with m**e == x and e the largest exponent whose prime factors
    are all <= top: take p-th roots for each prime p <= top while they are
    exact."""
    e = 1
    for p in primes_ref(top + 1):
        if p >= x.bit_length():  # m**p == x needs m >= 2
            break
        while (r := exact_root_ref(x, p)) is not None:
            x, e = r, e * p
    return x, e


def desc_sort_key(d: Description):
    s = d.serialize()
    return (BITS_PER_CHAR * len(s), s)


class NodeSearch:
    """The pinned search on description nodes; one memo per search, keyed on
    the object, so the first depth that reaches a value decides its entry."""

    def search(self, x, budget: _Budget) -> Description:
        return self._search(x, budget, {}, depth=0)

    def _search(self, x, budget: _Budget, memo, depth) -> Description:
        key = (type(x).__name__, x)
        if key in memo:
            return memo[key]
        if isinstance(x, int):
            best = self._search_int(x, budget, memo, depth)
        elif isinstance(x, str):
            best = self._search_word(x, budget, memo, depth)
        elif isinstance(x, CodeWords):
            best = self._search_code(x, budget, memo, depth)
        else:
            raise DescriptionError(f"not describable: {x!r}")
        memo[key] = best
        return best

    def _search_int(self, x: int, budget: _Budget, memo, depth) -> Description:
        if x < 0:
            raise DescriptionError("negative integers are not in the grammar")
        candidates = [Lit(x)]

        def sub(v: int) -> Description:
            return self._search(v, budget, memo, depth + 1)

        if depth < 12 and x >= 16:
            top = 1 + budget.spend(x.bit_length() - 1)
            m, e = perfect_power_ref(x, top)
            root_pairs = [(m ** (e // b), b)
                          for b in range(2, min(e, top) + 1) if e % b == 0]
            bases = budget.spend(35)
            tower_pairs = _tower_pairs(m, e, 1 + bases) if bases else []
            for a, b in root_pairs:
                candidates.append(Pow(sub(a), sub(b)))
            for base, height in tower_pairs:
                candidates.append(Tower(sub(base), sub(height)))
        if depth < 2 and x >= 16:
            log2_x = math.log2(x)
            for a in range(2, 11):
                if not budget.spend(1):
                    break
                e = int(log2_x / math.log2(a))
                power = a**e
                while power > x:
                    power //= a
                    e -= 1
                while power * a <= x:
                    power *= a
                    e += 1
                r = x - power
                if e >= 2 and 0 < r <= 1_000_000:
                    candidates.append(Add(Pow(sub(a), sub(e)), sub(r)))
            for d in range(2, 65):
                if d * d > x:
                    break
                if not budget.spend(1):
                    break
                if x % d == 0:
                    candidates.append(Mul(sub(d), sub(x // d)))
        return min(candidates, key=desc_sort_key)

    def _search_word(self, x: str, budget: _Budget, memo, depth) -> Description:
        candidates: list[Description] = [WordLit(x)] if x else []
        if not x:
            raise DescriptionError("empty words are not describable")
        n = len(x)
        for period in range(1, n // 2 + 1):
            if n % period:
                continue
            if not budget.spend(1):
                break
            if x == x[:period] * (n // period):
                count = self._search(n // period, budget, memo, depth + 1)
                candidates.append(Rep(x[:period], count))
        if budget.spend(1):
            candidates.append(Blob(*lzw_compress(x.encode("ascii"))))
        return min(candidates, key=desc_sort_key)

    def _search_code(self, x: CodeWords, budget: _Budget, memo, depth) -> Description:
        candidates: list[Description] = [CodeLit(x.q, x.n, x.words)]
        if budget.spend(1):
            data = "".join(x.words).encode("ascii")
            candidates.append(CodeBlob(x.q, x.n, *lzw_compress(data)))
        return min(candidates, key=desc_sort_key)


def zipf_cumulative_ref(n_types: int, exponent: float) -> list[float]:
    """The cumulative weights of p_k proportional to 1/k**exponent, the last
    set to 1.0."""
    weights = [1.0 / (k**exponent) for k in range(1, n_types + 1)]
    total = math.fsum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    return cumulative


def zipf_rank_ref(cumulative, v: int) -> int:
    """The first j with cumulative[j] >= u, for the uniform u = (v >> 11) *
    2**-53 of the 64-bit draw v."""
    return bisect_left(cumulative, (v >> 11) * 2.0**-53)


def synthetic_zipf_corpus_ref(n_types: int, n_tokens: int, seed: int,
                              exponent: float = 1.0) -> list[str]:
    cumulative = zipf_cumulative_ref(n_types, exponent)
    width = len(str(n_types))
    names = [f"w{str(k).zfill(width)}" for k in range(1, n_types + 1)]
    draws, _ = splitmix64_ref(seed, n_tokens)
    return [names[zipf_rank_ref(cumulative, v)] for v in draws]
