"""Deterministic pseudo-randomness for reproducible experiments.

Everything that samples (code ensembles, synthetic corpora, randomized
characters) draws from this generator rather than ``random``: the stdlib
does not promise byte-identical behaviour of its sampling methods across
Python versions, and ensembles must be regenerable byte-identically from
their provenance.  The generator is SplitMix64 with the usual constants;
the stream for a given seed is pinned forever.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_SPAN = 1 << 64  # the largest population a 64-bit draw can index
_GAMMA = 0x9E3779B97F4A7C15  # the state's step
_CHUNK = 1024  # the most lanes mixed in one int; bounds the cached constants


@lru_cache(maxsize=16)
def _lanes(n: int):
    """The per-size constants of an n-lane chunk: a 1 in every lane, the
    steps (i+1)*gamma, a 64-bit mask per lane, and the unpacker that reads
    each lane's low word, little-endian whatever the machine."""
    lanes = struct.Struct("<" + "Q8x" * n)
    ones = int.from_bytes(lanes.pack(*[1] * n), "little")
    gammas = int.from_bytes(lanes.pack(*range(1, n + 1)), "little") * _GAMMA
    return ones, gammas, ones * _MASK64, lanes.unpack


class SplitMix64:
    """Tiny 64-bit SplitMix generator, easy to pin and to port."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return self.next_u64s(1)[0]

    def next_u64s(self, count: int) -> list[int]:
        """The next `count` outputs of the stream: the batch draws that
        samplers use, and the one place the mixing constants are applied.

        A chunk of n draws is mixed as n 128-bit lanes of one int, lane i
        holding the state s + (i+1)*gamma, so each xor-shift and each
        multiply is one big-int operation.  Every lane is cut to 64 bits
        before each multiply, so a 128-bit product never carries into the
        next lane, and the bits a right shift pulls in from the next lane
        land above bit 64, where the next mask (or the unpack) drops them.
        """
        out: list[int] = []
        s = self._state
        for start in range(0, count, _CHUNK):
            n = min(_CHUNK, count - start)
            ones, gammas, mask, unpack = _lanes(n)
            z = (s * ones + gammas) & mask
            s = (s + n * _GAMMA) & _MASK64
            z = (z ^ (z >> 30)) & mask
            z = (z * 0xBF58476D1CE4E5B9) & mask
            z = (z ^ (z >> 27)) & mask
            z = (z * 0x94D049BB133111EB) & mask
            out += unpack((z ^ (z >> 31)).to_bytes(16 * n, "little"))
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
