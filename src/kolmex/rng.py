"""Deterministic pseudo-randomness for reproducible experiments.

Everything that samples (code ensembles, synthetic corpora, randomized
characters) draws from this generator rather than ``random``: the stdlib
does not promise byte-identical behaviour of its sampling methods across
Python versions, and ensembles must be regenerable byte-identically from
their provenance.  The generator is SplitMix64 with the usual constants;
the stream for a given seed is pinned forever.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_SPAN = 1 << 64  # the largest population a 64-bit draw can index
_UNIT = 2.0**-53  # a 53-bit integer times this is a float in [0, 1)


class SplitMix64:
    """Tiny 64-bit SplitMix generator, easy to pin and to port."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return self.next_u64s(1)[0]

    def next_u64s(self, count: int) -> list[int]:
        """The next `count` outputs of the stream, drawn with the state in a
        local: the batch draws that samplers use, and the one place the
        mixing constants are applied."""
        s = self._state
        out = []
        append = out.append
        for _ in range(count):
            s = (s + 0x9E3779B97F4A7C15) & _MASK64
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            append(z ^ (z >> 31))
        self._state = s
        return out

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), rejection sampled (no modulo bias)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        if n > _SPAN:
            raise ValueError(f"below() draws from at most 2^64 values, not {n}")
        bits = (n - 1).bit_length()
        if bits == 0:
            return 0
        while True:
            r = self.next_u64() >> (64 - bits)
            if r < n:
                return r

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _UNIT

    def uniforms(self, count: int) -> list[float]:
        """The next `count` values of uniform(), drawn in one batch."""
        return [(v >> 11) * _UNIT for v in self.next_u64s(count)]

    def sample_sorted(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), ascending.

        Draws the complement when k > n/2 so dense subsets stay cheap.
        """
        if k < 0 or k > n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        if n > _SPAN:
            raise ValueError(f"sample_sorted() draws from at most 2^64 values, not {n}")
        if 2 * k > n:
            drop = set(self.sample_sorted(n, n - k))
            return [v for v in range(n) if v not in drop]
        # below(n) in a loop, batched: a batch of the values still missing
        # can complete the set only on its last draw, so no draw is wasted
        shift = 64 - (n - 1).bit_length()
        seen: set[int] = set()
        while len(seen) < k:
            for r in self.next_u64s(k - len(seen)):
                r >>= shift
                if r < n:
                    seen.add(r)
        return sorted(seen)

    def fraction_pair(self, num_bound: int, den_bound: int) -> tuple[int, int]:
        """(numerator, denominator) with |num| <= num_bound, 1 <= den <= den_bound."""
        num = self.below(2 * num_bound + 1) - num_bound
        den = 1 + self.below(den_bound)
        return num, den
