"""Tuple-path references for the packed code-word path.

Sampled codes used to be decoded word by word into tuples of base-q digits
(`decode_word`), turned into strings one symbol at a time (`word_string`)
and re-packed into ints for the distance (`pack_words`); `sampled_codes_ref`
is that route end to end.  `lzw_compress_ref` is the pinned LZW built on
byte strings, and `b58_encode_ref`/`b58_decode_ref` are base 58 one digit at
a time.  `partition_sum_ref` is the partition sum with its selection and its
terms in one loop over the ensemble.  `splitmix64_ref` is the SplitMix64
stream one 64-bit value at a time, the loop the lane-parallel batch
replaces.  `hamming_distance` compares two words position by position, the
plain reference for every packed distance.
"""

import math
from fractions import Fraction

from kolmex.codes import CodeError, CodeParams, floor_log
from kolmex.complexity import CodeWords, WORD_SYMBOLS
from kolmex.rng import SplitMix64

BASE58 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHJKMNPQRSTVWXYZ"


def hamming_distance(a, b) -> int:
    """Number of positions where two equal-length words differ."""
    if len(a) != len(b):
        raise CodeError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


MASK64 = (1 << 64) - 1


def splitmix64_ref(state: int, count: int) -> tuple[list[int], int]:
    """The next `count` SplitMix64 outputs from `state`, and the state after
    them, mixed one value at a time."""
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out, state


def decode_word(value: int, q: int, n: int) -> tuple:
    """The word of index `value` in the word space: its n base-q digits."""
    word = []
    for _ in range(n):
        word.append(value % q)
        value //= q
    return tuple(reversed(word))


def word_string(word) -> str:
    return "".join(WORD_SYMBOLS[s] for s in word)


def pack_words(words, q: int) -> list[int]:
    """Each tuple word as an int, (q-1).bit_length() bits per symbol."""
    w = (q - 1).bit_length()
    packed = []
    for word in words:
        v = 0
        for s in word:
            v = (v << w) | s
        packed.append(v)
    return packed


def sampled_codes_ref(q: int, n: int, size: int, count: int, seed: int):
    """(tuple words, CodeWords, CodeParams) of each code `sample_codes`
    draws, in draw order; d is the pairwise minimum of tuple distances."""
    gen = SplitMix64(seed)
    out = []
    for _ in range(count):
        words = sorted(decode_word(v, q, n) for v in gen.sample_sorted(q**n, size))
        d = min(hamming_distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :])
        k = floor_log(q, len(words))
        params = CodeParams(n, k, d, Fraction(k, n), Fraction(d, n))
        out.append((words, CodeWords(q, n, tuple(map(word_string, words))), params))
    return out


def lzw_compress_ref(data: bytes) -> tuple[bytes, int]:
    """The pinned LZW on byte strings: (code, width) pairs, zero padding,
    and the code count."""
    codes = []
    table = {bytes([i]): i for i in range(256)}
    w = b""
    for byte in data:
        wc = w + bytes([byte])
        if wc in table:
            w = wc
        else:
            codes.append((table[w], (len(table) - 1).bit_length()))
            table[wc] = len(table)
            w = bytes([byte])
    if w:
        codes.append((table[w], (len(table) - 1).bit_length()))
    bits = "".join(format(code, f"0{width}b") for code, width in codes)
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8)), len(codes)


def b58_encode_ref(data: bytes) -> str:
    value = int.from_bytes(data, "big")
    digits = []
    while value:
        value, r = divmod(value, 58)
        digits.append(BASE58[r])
    return "".join(reversed(digits)) or BASE58[0]


def b58_decode_ref(text: str, n_bytes: int) -> bytes:
    value = 0
    for ch in text:
        value = value * 58 + BASE58.index(ch)
    return value.to_bytes(n_bytes, "big")


def partition_sum_ref(ensemble, rate, delta_min, beta, eta) -> tuple[float, int]:
    """(Z, terms): each entry is selected and its term evaluated in turn."""
    terms = []
    for entry in ensemble.entries:
        if abs(entry.params.rate - rate) > Fraction(eta):
            continue
        delta = entry.params.delta
        if not delta_min <= delta <= 1:
            continue
        exponent = -beta + float(delta) - 1.0
        log2_term = entry.complexity_bits * exponent
        terms.append(math.exp(log2_term * math.log(2.0)))
    return math.fsum(terms), len(terms)
