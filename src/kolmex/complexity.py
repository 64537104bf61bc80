"""A pinned, computable stand-in for exponential description complexity.

True description complexity is uncomputable, so this module fixes a small
self-delimiting expression grammar plus a bounded deterministic search and
treats the result as a versioned contract: identical input and identical
``PROXY_VERSION`` give identical answers.  Values are *exponential*,

    K(x) = 2 ** bits(shortest description found),

so they order objects directly and can sit in partition-function exponents
without a log convention.  The prefix variant KP adds an Elias-gamma header
for the bit length, making descriptions self-delimiting:

    KP(x) = 2 ** (bits + gamma_length(bits)).

Grammar (canonical serialization; every compound child is parenthesized,
so no precedence rules exist):

    integers   Lit      "123"
               Pow      "2^32"          base^exponent
               Mul      "3*(2^20)"
               Add      "(10^9)+7"
               Tower    "3^^5"  "100^^" b^^h is the h-fold tower b^b^...^b;
                                the trailing form abbreviates h = b
    words      WordLit  "w(0110)"       symbols over 0-9a-z
               Rep      "r(01,3)"       block repeated count times
               Blob     "b(L,N,PAYLOAD)"  LZW bytes: L byte count, N code
                                          count, base-58 payload
    codes      CodeLit  "c(2,3,000,111)"
               CodeBlob "cb(2,3,L,N,PAYLOAD)" blob of the joined sorted words
               RsCode   "rs(7,7,3,0123456)"   evaluation code on the points

Serialized characters come from a fixed 64-symbol alphabet; the pinned cost
convention is 8 bits per character, so bits = 8 * len(serialization).
The LZW compressor (initial dictionary = 256 byte values, output codes at
the width of the current dictionary size, MSB first, zero-padded) is part
of the contract and never changes without a PROXY_VERSION bump.

The search spends one budget unit per candidate in a pinned order, from a
budget of SEARCH_BUDGET = 4096 units.  The budget is part of the contract
like the compressor: no caller can set it, and it changes only with a
PROXY_VERSION bump.  The integer search grants its exponent loop
(2..bit_length) and tower loop (bases 2..36) in one step each: roots come
from x's maximal perfect-power exponent, found from prime exponents (float
prefilter, exact check; squares by a mod-64 residue filter and isqrt), and
towers from the same decomposition.
Candidates are ranked as canonical text, never as nodes: an integer
sub-search returns its text as a child (digits, or parenthesized), each
candidate is formatted from its children's texts, and the least
(length, text) wins.  A blob candidate is a Blob or CodeBlob node sized from
its payload's value; its base-58 digits are built only when its text is
read, once, by the node's serialization: to break a tie with a hint, or by a
reader of the node `search` returns.  Among the other candidates a blob
never ties on text, since "b(" sorts before "r(" and "w(", and "c(" before
"cb(".  `complexity_bits` is 8 * len(winning text); `search` returns a
winning blob's node as it is, parses any other winner, and reports budget
exhaustion.

A child at depth 2..11 below 2**20 that is not a perfect power is a leaf:
it has no root or tower, and depth >= 2 lists no sum or divisor, so its text
is its literal.  The search settles it in one step, spending the exponent
and tower-base grants at once, cut unless both are granted in full.

The 1,134 perfect powers below 2**20 come from a table built on first use,
which keeps each value's smallest base and so its maximal exponent.  The
table answers only when the exponent grant `top` is at least
bit_length - 1: then `top` excludes no prime exponent of x.  A budget-cut
grant below that, and every larger x, take the roots.  Either way the
spends, the candidates and the per-search memo are the same.  The leaf test
reads the same table.

A search of 16 <= x < 2**11 is settled from its exact spend, without
listing.  Below 10**6 no sum or divisor candidate can win: a sum "(A^E)+R"
has at least 7 characters and the literal at most 6, and a divisor "D*Q"
has at least digits(x) + 1, since digits(d) + digits(q) >= digits(dq), or
7 when a child is parenthesized.  So the text of such a value, at any depth
below 12, is that of the search at depth 2, which lists only roots and
towers.  Every grant is non-negative, so a search is cut exactly when its
untruncated spend exceeds the budget.  That spend is bit_length + 34 for
each value >= 16 the search reaches, plus 9 sum bases and
min(63, isqrt(v) - 1) divisors for each value v searched at depth 0 or 1:
x, and each child of x that no earlier child's search reached.  What a
depth-1 search of a child reaches depends on the child alone, and a table
(an lru_cache keyed on the child, below 2**11) keeps it as a bit mask.  A
search whose spend fits its budget spends it and returns the depth-2 text;
any other search, and every x >= 2**11, runs the depth-0 search.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from statistics import StatisticsError, correlation, linear_regression
from typing import Iterable, Optional, Sequence, Union

from . import fields
from . import rational
from .rng import SplitMix64

# The 64-symbol serialization alphabet (uppercase skips I, L, O, U).
ALPHABET = (
    "0123456789"
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHJKMNPQRSTVWXYZ"
    "()+*^,"
)
assert len(ALPHABET) == 64 and len(set(ALPHABET)) == 64

_BASE58 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHJKMNPQRSTVWXYZ"
WORD_SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyz"

BITS_PER_CHAR = 8


class DescriptionError(ValueError):
    pass


class BudgetExhausted(DescriptionError):
    pass


# ---------------------------------------------------------------------------
# described values
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class CodeWords:
    """Value form of a code: alphabet size, block length, sorted word strings.

    Words given in any order are stored sorted, so one code has one value
    and one text."""

    q: int
    n: int
    words: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(sorted(self.words)))

    def canonical_string(self) -> str:
        return f"{self.q},{self.n}," + ",".join(self.words)


Obj = Union[int, str, CodeWords]


def pack_word(word: Iterable[int], w: int) -> int:
    """A word of integer symbols as one int, w bits per symbol, first symbol
    most significant: packed order is tuple order and word-string order."""
    v = 0
    for s in word:
        v = v << w | s
    return v


@lru_cache(maxsize=16)
def _chunk_strings(w: int, c: int) -> str:
    """Symbol strings of every c-symbol chunk of w-bit fields, joined in
    packed order: chunk v is [v * c : v * c + c].  Fields of q or more,
    which validated words never hold, read as '?'."""
    symbols = (WORD_SYMBOLS + "?" * 64)[: 1 << w]
    return "".join(map("".join, product(symbols, repeat=c)))


def word_strings(packed: Sequence[int], q: int, n: int) -> tuple[str, ...]:
    """Symbol strings of packed words.  Each chunk of up to 12 // w symbols
    is one slice of a joined table, so binary words with n <= 12 take one
    slice each."""
    w = (q - 1).bit_length()
    c = min(n, 12 // w)  # a chunk table has at most 2**12 entries
    table = _chunk_strings(w, c)
    if c == n:
        return tuple([table[v * c : v * c + c] for v in packed])
    high = word_strings([v >> c * w for v in packed], q, n - c)
    mask = (1 << c * w) - 1
    return tuple([h + table[(v & mask) * c : (v & mask) * c + c]
                  for h, v in zip(high, packed)])


def object_key(x: Obj) -> str:
    """Canonical serialization of a described object (used for tie-breaks)."""
    if isinstance(x, bool):
        raise DescriptionError("booleans are not describable objects")
    if isinstance(x, int):
        return rational.text(x)
    if isinstance(x, str):
        return x
    if isinstance(x, CodeWords):
        return x.canonical_string()
    raise DescriptionError(f"not a describable object: {x!r}")


# ---------------------------------------------------------------------------
# pinned LZW compressor
# ---------------------------------------------------------------------------

_ALL_BYTES = bytes(range(256))


def lzw_compress(data: bytes) -> tuple[bytes, int]:
    """Pinned LZW: the zero-padded MSB-first payload and its code count.
    The string table (Welch 1984) is a trie over the input's k distinct
    bytes, each read as its rank among them.  A node is a list: slot r
    holds the child on rank r, slot k the node's code.  A child with no
    children is stored as its bare code, and the walk makes it a list on
    entering it, since the next byte, if any, becomes its first child.  So
    a byte costs a list subscript, a None test and, on a match, a type
    test.  Every 64 codes the width is updated, which suffices since it
    grows at powers of two, and whole bytes of the output are banked, so
    no shift copies more than 64 codes' bits.

    Memory grows with k: every inner node holds k + 1 slots.  Over random
    bytes (k = 256) the peak is 4.6-5.9x that of a dict keyed on (prefix
    code, next byte).  Every caller in the package passes text over
    WORD_SYMBOLS, so k <= 36."""
    if not data:
        return b"", 0
    symbols = _ALL_BYTES.translate(None, _ALL_BYTES.translate(None, data))
    k = len(symbols)
    ranks = data.translate(bytes.maketrans(symbols, _ALL_BYTES[:k]))
    blank = [None] * k
    roots = [blank + [b] for b in symbols]
    size = 256  # codes in use: one per byte value, then one per table entry
    width = 8
    acc = n_bits = 0
    out = bytearray()
    node = roots[ranks[0]]
    for r in ranks[1:]:
        child = node[r]
        if child is None:
            acc = acc << width | node[k]
            n_bits += width
            node[r] = size
            if not size & 63:  # powers of two from 256 on are multiples of 64
                width = size.bit_length()
                n_bits, n_bytes = n_bits & 7, n_bits >> 3
                out += (acc >> n_bits).to_bytes(n_bytes, "big")
                acc &= (1 << n_bits) - 1
            size += 1
            node = roots[r]
        elif type(child) is int:
            node[r] = node = blank + [child]
        else:
            node = child
    acc = acc << width | node[k]
    n_bits += width
    pad = -n_bits % 8
    out += (acc << pad).to_bytes((n_bits + pad) // 8, "big")
    return bytes(out), size - 255


def lzw_decompress(payload: bytes, n_codes: int) -> bytes:
    bits = "".join(format(b, "08b") for b in payload)
    table: dict[int, bytes] = {i: bytes([i]) for i in range(256)}
    out = bytearray()
    pos = 0
    prev: Optional[bytes] = None
    for _ in range(n_codes):
        width = (len(table) - 1 + (prev is not None)).bit_length()
        if pos + width > len(bits):
            raise DescriptionError("truncated LZW stream")
        code = int(bits[pos : pos + width], 2)
        pos += width
        if prev is None:
            entry = table[code]
        elif code in table:
            entry = table[code]
            table[len(table)] = prev + entry[:1]
        elif code == len(table):  # KwKwK case
            entry = prev + prev[:1]
            table[len(table)] = entry
        else:
            raise DescriptionError("corrupt LZW stream")
        out.extend(entry)
        prev = entry
    return bytes(out)


_B58_CHUNK = 58**10  # ten digits per divmod
_B58_DIGITS = {ch: i for i, ch in enumerate(_BASE58)}


@lru_cache(maxsize=1)
def _b58_pairs() -> str:
    """The 58**2 two-digit strings, joined: digit pair p is [2p : 2p + 2]."""
    return "".join(a + b for a in _BASE58 for b in _BASE58)


def _b58_encode(data: bytes) -> str:
    value = int.from_bytes(data, "big")
    pairs = _b58_pairs()
    parts = []  # two-digit groups, least significant first
    while value:
        value, chunk = divmod(value, _B58_CHUNK)
        for _ in range(5):
            chunk, p = divmod(chunk, 3364)
            parts.append(pairs[2 * p : 2 * p + 2])
    return "".join(reversed(parts)).lstrip(_BASE58[0]) or _BASE58[0]


_LOG2_58 = math.log2(58)


def _b58_size(data: bytes) -> int:
    """len(_b58_encode(data)) without its digits: the least k with
    58**k > value, or 1 for a zero value."""
    value = int.from_bytes(data, "big")
    if not value:
        return 1
    k = int((value.bit_length() - 1) / _LOG2_58)  # 58**k <= value, up to rounding
    power = 58**k
    while power > value:
        power //= 58
        k -= 1
    while power <= value:
        power *= 58
        k += 1
    return k


def _b58_decode(text: str, n_bytes: int) -> bytes:
    text = text.rjust(-(-len(text) // 10) * 10, _BASE58[0])  # whole chunks
    value = 0
    for start in range(0, len(text), 10):
        chunk = 0
        for ch in text[start : start + 10]:
            if ch not in _B58_DIGITS:
                raise DescriptionError(f"bad base-58 digit {ch!r}")
            chunk = chunk * 58 + _B58_DIGITS[ch]
        value = value * _B58_CHUNK + chunk
    if value.bit_length() > 8 * n_bytes:
        raise DescriptionError(f"base-58 value does not fit in {n_bytes} bytes")
    return value.to_bytes(n_bytes, "big")


# ---------------------------------------------------------------------------
# description nodes
# ---------------------------------------------------------------------------

_EVAL_BIT_LIMIT = 1 << 20  # evaluation refuses to materialize anything larger


class Description:
    """Base class; concrete nodes implement _serialize and value().

    Nodes are immutable, so each one serializes once and keeps the text.
    """

    _text: Optional[str] = None

    def serialize(self) -> str:
        text = self._text
        if text is None:
            text = self._text = self._serialize()
        return text

    def bits(self) -> int:
        return BITS_PER_CHAR * len(self.serialize())

    def value(self) -> Obj:
        raise NotImplementedError

    def _serialize(self) -> str:
        raise NotImplementedError

    def _wrapped(self) -> str:
        """Serialization as a child: compound nodes get parentheses."""
        s = self._text or self.serialize()
        return s if isinstance(self, Lit) else f"({s})"

    def __repr__(self):
        return f"<{type(self).__name__} {self.serialize()!r}>"

    def __eq__(self, other):
        return type(self) is type(other) and self.serialize() == other.serialize()

    def __hash__(self):
        return hash((type(self).__name__, self.serialize()))


class Lit(Description):
    def __init__(self, digits: Union[str, int]):
        if isinstance(digits, int):
            digits = rational.text(digits)
        if not (digits.isascii() and digits.isdigit()) or (digits != "0" and digits[0] == "0"):
            raise DescriptionError(f"bad literal {digits!r}")
        self.digits = digits

    def _serialize(self):
        return self.digits

    def value(self):
        return rational.decimal_int(self.digits)


class _Binary(Description):
    op = "?"

    def __init__(self, left: Description, right: Description):
        self.left = left
        self.right = right

    def _serialize(self):
        return f"{self.left._wrapped()}{self.op}{self.right._wrapped()}"


class Pow(_Binary):
    op = "^"

    def value(self):
        base, exp = self.left.value(), self.right.value()
        if base <= 1:
            return base ** min(exp, 2)
        if exp * base.bit_length() > _EVAL_BIT_LIMIT:
            raise BudgetExhausted("value too large to materialize")
        return base**exp


class Mul(_Binary):
    op = "*"

    def value(self):
        return self.left.value() * self.right.value()


class Add(_Binary):
    op = "+"

    def value(self):
        return self.left.value() + self.right.value()


class Tower(Description):
    """h-fold exponential tower b^b^...^b (right associated)."""

    def __init__(self, base: Description, height: Description):
        self.base = base
        self.height = height

    def _serialize(self):
        b = self.base._wrapped()
        h = self.height._wrapped()
        return f"{b}^^" if b == h else f"{b}^^{h}"

    def value(self):
        b, h = self.base.value(), self.height.value()
        if h < 1:
            raise DescriptionError("tower height must be >= 1")
        acc = b
        for _ in range(h - 1):
            if acc * max(b.bit_length(), 1) > _EVAL_BIT_LIMIT:
                raise BudgetExhausted("tower too large to materialize")
            acc = b**acc
        return acc


class WordLit(Description):
    def __init__(self, symbols: str):
        if any(ch not in WORD_SYMBOLS for ch in symbols):
            raise DescriptionError(f"bad word symbols {symbols!r}")
        self.symbols = symbols

    def _serialize(self):
        return f"w({self.symbols})"

    def value(self):
        return self.symbols


class Rep(Description):
    def __init__(self, block: str, count: Description):
        if not block or any(ch not in WORD_SYMBOLS for ch in block):
            raise DescriptionError(f"bad block {block!r}")
        self.block = block
        self.count = count

    def _serialize(self):
        return f"r({self.block},{self.count.serialize()})"

    def value(self):
        n = self.count.value()
        if n * len(self.block) > _EVAL_BIT_LIMIT:
            raise BudgetExhausted("repetition too large")
        return self.block * n


_WORD_BYTES = WORD_SYMBOLS.encode("ascii")


def _blob_text(payload: bytes, n_codes: int) -> str:
    """The decompressed bytes of a blob as text over WORD_SYMBOLS."""
    data = lzw_decompress(payload, n_codes)
    if data.translate(None, _WORD_BYTES):
        raise DescriptionError("blob holds bytes outside the word symbols")
    return data.decode("ascii")


class Blob(Description):
    """LZW-compressed byte string; evaluates to its text over WORD_SYMBOLS."""

    def __init__(self, payload: bytes, n_codes: int):
        self.payload = payload
        self.n_codes = n_codes

    def _head(self):
        """The text before the base-58 payload."""
        return f"b({len(self.payload)},{self.n_codes},"

    def _serialize(self):
        return f"{self._head()}{_b58_encode(self.payload)})"

    def value(self):
        return _blob_text(self.payload, self.n_codes)


class CodeLit(Description):
    def __init__(self, q: int, n: int, words: tuple[str, ...]):
        self.q = q
        self.n = n
        self.words = tuple(sorted(words))

    def _serialize(self):
        return f"c({self.q},{self.n},{','.join(self.words)})"

    def value(self):
        return _code_words(self.q, self.n, self.words)


class CodeBlob(Description):
    def __init__(self, q: int, n: int, payload: bytes, n_codes: int):
        self.q = q
        self.n = n
        self.payload = payload
        self.n_codes = n_codes

    def _head(self):
        return f"cb({self.q},{self.n},{len(self.payload)},{self.n_codes},"

    def _serialize(self):
        return f"{self._head()}{_b58_encode(self.payload)})"

    def value(self):
        if self.n < 1:
            raise DescriptionError("code blob needs n >= 1")
        text = _blob_text(self.payload, self.n_codes)
        if len(text) % self.n:
            raise DescriptionError("code blob length mismatch")
        return _code_words(self.q, self.n, [text[i : i + self.n]
                                            for i in range(0, len(text), self.n)])


def _code_words(q: int, n: int, words) -> CodeWords:
    """CodeWords of the words, each of which must be n symbols from
    range(q)."""
    if n < 1:
        raise DescriptionError("codes need n >= 1")
    symbols = set(WORD_SYMBOLS[:q])
    for word in words:
        if len(word) != n or not symbols.issuperset(word):
            raise DescriptionError(f"word {word!r} is not {n} symbols from range({q})")
    return CodeWords(q, n, tuple(words))


class RsCode(Description):
    """Evaluation code of all polynomials of degree < k on the given points."""

    def __init__(self, q: int, n: int, k: int, points: tuple[int, ...]):
        self.q = q
        self.n = n
        self.k = k
        self.points = tuple(points)

    def _serialize(self):
        pts = "".join(WORD_SYMBOLS[p] for p in self.points)
        return f"rs({self.q},{self.n},{self.k},{pts})"

    def value(self):
        f = fields.field(self.q)
        w = (self.q - 1).bit_length()
        words = fields.rs_wordset(f, self.n, self.k, self.points)
        packed = sorted(pack_word(word, w) for word in words)
        return CodeWords(self.q, self.n, word_strings(packed, self.q, self.n))


# ---------------------------------------------------------------------------
# parser (canonical serializations round-trip)
# ---------------------------------------------------------------------------

def parse(text: str) -> Description:
    desc, pos = _parse_expr(text, 0)
    if pos != len(text):
        raise DescriptionError(f"trailing input at {pos} in {text!r}")
    return desc


def _parse_expr(s: str, pos: int) -> tuple[Description, int]:
    left, pos = _parse_operand(s, pos)
    if pos < len(s) and s[pos] in "+*^":
        op = s[pos]
        pos += 1
        if op == "^" and pos < len(s) and s[pos] == "^":
            pos += 1
            if pos == len(s) or s[pos] == ")":
                return Tower(left, left), pos
            right, pos = _parse_operand(s, pos)
            return Tower(left, right), pos
        right, pos = _parse_operand(s, pos)
        return {"+": Add, "*": Mul, "^": Pow}[op](left, right), pos
    return left, pos


_DIGITS = frozenset("0123456789")  # a literal's digits are ASCII only


def _parse_operand(s: str, pos: int) -> tuple[Description, int]:
    if pos >= len(s):
        raise DescriptionError("unexpected end of input")
    ch = s[pos]
    if ch == "(":
        inner, pos = _parse_expr(s, pos + 1)
        if pos >= len(s) or s[pos] != ")":
            raise DescriptionError(f"missing ')' at {pos}")
        return inner, pos + 1
    if ch in _DIGITS:
        end = pos
        while end < len(s) and s[end] in _DIGITS:
            end += 1
        return Lit(s[pos:end]), end
    for tag in ("rs", "cb", "c", "w", "r", "b"):
        if s.startswith(tag + "(", pos):
            end = _matching_paren(s, pos + len(tag))
            fieldstr = s[pos + len(tag) + 1 : end]
            try:
                return _parse_tagged(tag, fieldstr), end + 1
            except (ValueError, OverflowError) as err:  # DescriptionError included
                raise DescriptionError(f"bad {tag}(...) at {pos}: {err}") from None
    raise DescriptionError(f"cannot parse at {pos} in {s!r}")


def _matching_paren(s: str, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(s)):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise DescriptionError("unbalanced parentheses")


def _count(field: str) -> int:
    if not (field.isascii() and field.isdigit()):
        raise DescriptionError(f"bad count {field!r}")
    return int(field)


def _parse_tagged(tag: str, body: str) -> Description:
    """The node of one tagged body; a malformed body raises ValueError or
    OverflowError."""
    if tag == "w":
        return WordLit(body)
    if tag == "r":
        block, _, count = body.partition(",")
        return Rep(block, parse(count))
    if tag == "b":
        size, n_codes, payload = body.split(",")
        return Blob(_b58_decode(payload, _count(size)), _count(n_codes))
    if tag == "c":
        q, n, *words = body.split(",")
        if words == [""]:  # "c(q,n,)": the code with no words
            words = []
        return CodeLit(_count(q), _count(n), tuple(words))
    if tag == "cb":
        q, n, size, n_codes, payload = body.split(",")
        return CodeBlob(_count(q), _count(n), _b58_decode(payload, _count(size)),
                        _count(n_codes))
    if tag == "rs":
        q, n, k, pts = body.split(",")
        return RsCode(_count(q), _count(n), _count(k), tuple(map(WORD_SYMBOLS.index, pts)))
    raise DescriptionError(f"unknown tag {tag}")


# ---------------------------------------------------------------------------
# bounded search
# ---------------------------------------------------------------------------

def _iroot(x: int, b: int) -> int:
    """Largest a with a**b <= x (x >= 1, b >= 1)."""
    if b == 1:
        return x
    a = 1 << (x.bit_length() // b + 1)
    while True:
        nxt = ((b - 1) * a + x // a ** (b - 1)) // b
        if nxt >= a:
            return a
        a = nxt


@lru_cache(maxsize=8)
def _primes_below(n: int) -> tuple[int, ...]:
    """Primes below n; callers pass powers of two, so few tables are kept."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


# bit r is set iff r is a square mod 64: 12 of the 64 residues pass
_SQUARES_MOD_64 = sum(1 << r for r in {k * k % 64 for k in range(64)})
_SMALL_POWER_BITS = 20
_SMALL_POWER_LIMIT = 1 << _SMALL_POWER_BITS


def _exact_root(y: int, p: int) -> Optional[int]:
    """r with r**p == y, or None (y >= 2, p >= 2; r = 1 never qualifies)."""
    if p == 2:
        if not _SQUARES_MOD_64 >> (y & 63) & 1:
            return None
        r = math.isqrt(y)
        return r if r * r == y else None
    if y.bit_length() <= 32 * p:
        # the root is below 2**32, where 2**(log2(y)/p) is off by < 1e-4:
        # a float far from every integer rules y out before any big power
        f = 2.0 ** (math.log2(y) / p)
        r = round(f)
        if abs(f - r) > 1e-3:
            return None
    else:
        r = _iroot(y, p)
    return r if r**p == y else None


@lru_cache(maxsize=1)
def _small_powers() -> dict[int, tuple[int, int]]:
    """(m, e) of each of the 1,134 perfect powers below 2**20, with e maximal:
    filled by ascending base, so the first base to reach a value is not itself
    a perfect power."""
    table: dict[int, tuple[int, int]] = {}
    for m in range(2, 1 << (_SMALL_POWER_BITS // 2)):
        v, e = m * m, 2
        while v < _SMALL_POWER_LIMIT:
            table.setdefault(v, (m, e))
            v, e = v * m, e + 1
    return table


def _perfect_power(x: int, top: int) -> tuple[int, int]:
    """(m, e) with m**e == x and e the largest exponent whose prime factors
    are all <= top.  x is a perfect b-th power, for b <= top, iff b | e."""
    n = x.bit_length()
    if n <= _SMALL_POWER_BITS and top >= n - 1:
        # every prime exponent of x is below n, so top excludes none
        return _small_powers().get(x, (x, 1))
    e = 1
    for p in _primes_below(1 << top.bit_length()):
        if p > top or p >= x.bit_length():  # m**p == x needs m >= 2
            break
        while (r := _exact_root(x, p)) is not None:
            x, e = r, e * p
    return x, e


def _tower_pairs(m: int, e: int, top: int) -> list[tuple[int, int]]:
    """(base, height >= 2) of every tower base^^height equal to m**e with
    base <= top; m is not a perfect power, so every such base is a power m**j."""
    pairs = []
    base, j = m, 1
    while base <= top:
        acc, height = base, 2  # base^^height == base**acc == m**(j * acc)
        while j * acc < e:
            acc, height = base**acc, height + 1
        if j * acc == e:
            pairs.append((base, height))
        base, j = base * m, j + 1
    return pairs


def _unwrap(text: str) -> str:
    """A child's text as a whole description: without its parentheses."""
    return text[1:-1] if text[0] == "(" else text


def _text_key(text: str) -> tuple[int, str]:
    return len(text), text


class _BlobText:
    """The text of a Blob or CodeBlob candidate, sized from its payload's
    value.  Ranking reads only its length; str() is the node's serialization,
    which builds the digits once, and a search that wins with it returns
    the node itself."""

    __slots__ = ("node", "size")

    def __init__(self, node: Union[Blob, CodeBlob]):
        self.node = node
        self.size = len(node._head()) + _b58_size(node.payload) + 1

    def __len__(self):
        return self.size

    def __str__(self):
        return self.node.serialize()


class _Budget:
    """Candidates left to generate, and whether a request was ever cut."""

    __slots__ = ("left", "cut")

    def __init__(self, left: int):
        self.left = left
        self.cut = False

    def spend(self, n: int) -> int:
        """Grant up to n candidates; returns how many were granted."""
        if n > self.left:
            n, self.cut = self.left, True
        self.left -= n
        return n


# below 16 the literal is the only candidate, at every depth
_SMALL_TEXTS = {v: str(v) for v in range(16)}
# the bases of the x = a^e + r candidates, with log2(a)
_ADD_BASES = tuple((a, math.log2(a)) for a in range(2, 11))


def _int_text(budget: _Budget, memo: dict, depth: int, x: int) -> str:
    """Text of the least description of x as a child: digits for a literal,
    parenthesized otherwise.  `memo` is keyed on x alone, so the first depth
    that reaches a value decides its entry; it starts with _SMALL_TEXTS.
    The search looks each child up in the memo itself and calls only on a
    miss, so a memo hit costs no call."""
    get = memo.get
    text = get(x)
    if text is not None:
        return text
    if x < 0:
        raise DescriptionError("negative integers are not in the grammar")
    if 2 <= depth < 12 and x < _SMALL_POWER_LIMIT and x not in _small_powers():
        # a leaf: e == 1 lists no root or tower and depth >= 2 no sum or
        # divisor, so the literal wins and the search only spends the
        # exponent and tower-base grants, fused: spend(bit_length - 1),
        # then spend(35), cut unless both are granted in full
        n = x.bit_length() + 34
        if budget.left < n:
            budget.left, budget.cut = 0, True
        else:
            budget.left -= n
        text = memo[x] = str(x)
        return text
    cands = [rational.text(x)]
    child = depth + 1
    if depth < 12:
        # collect cheap structural facts before any recursion, so deep
        # refinement of one candidate cannot starve the listing of others;
        # exponents 2..bit_length, then tower bases 2..36, cost one each
        top = 1 + budget.spend(x.bit_length() - 1)
        m, e = _perfect_power(x, top)
        # bases get budget only after every exponent did, so e is maximal
        bases = budget.spend(35)
        if e > 1:  # e == 1: x has no root and no tower
            root_pairs = [(m ** (e // b), b)
                          for b in range(2, min(e, top) + 1) if e % b == 0]
            tower_pairs = _tower_pairs(m, e, 1 + bases) if bases else []
            for a, b in root_pairs:
                cands.append(f"{get(a) or _int_text(budget, memo, child, a)}^"
                             f"{get(b) or _int_text(budget, memo, child, b)}")
            for base, height in tower_pairs:
                b = get(base) or _int_text(budget, memo, child, base)
                h = get(height) or _int_text(budget, memo, child, height)
                cands.append(f"{b}^^" if b == h else f"{b}^^{h}")
    if depth < 2:
        # x = a^e + r with a small base and small remainder; this loop and
        # the divisor loop spend their one unit each inline
        log2_x = math.log2(x)
        for a, log2_a in _ADD_BASES:
            if not budget.left:
                budget.cut = True
                break
            budget.left -= 1
            e = int(log2_x / log2_a)  # floor(log_a x), corrected below
            power = a**e
            while power > x:
                power //= a
                e -= 1
            while power * a <= x:
                power *= a
                e += 1
            r = x - power
            if e >= 2 and 0 < r <= 1_000_000:
                cands.append(f"({get(a) or _int_text(budget, memo, child, a)}^"
                             f"{get(e) or _int_text(budget, memo, child, e)})+"
                             f"{get(r) or _int_text(budget, memo, child, r)}")
        # small-divisor factorizations
        for d in range(2, 65):
            if d * d > x:
                break
            if not budget.left:
                budget.cut = True
                break
            budget.left -= 1
            if x % d == 0:
                q = x // d
                cands.append(f"{get(d) or _int_text(budget, memo, child, d)}*"
                             f"{get(q) or _int_text(budget, memo, child, q)}")
    if len(cands) == 1:
        text = cands[0]
    else:
        best = min(cands, key=_text_key)
        text = best if best is cands[0] else f"({best})"
    memo[x] = text
    return text


# searches of 16 <= x < 2**11 are settled from their spend (module docstring)
_SPEND_TABLE_LIMIT = 1 << 11


def _children(v: int, depth: int) -> list[int]:
    """The children of v's candidates at `depth` (< 12) when every exponent
    and tower base is granted, in listing order.  v < 2**11, so a sum's base
    and exponent are below 16 and are left out."""
    m, e = _perfect_power(v, v.bit_length())
    children = []
    if e > 1:  # e == 1: v has no root and no tower
        for b in range(2, e + 1):
            if e % b == 0:
                children += (m ** (e // b), b)
        for pair in _tower_pairs(m, e, 36):
            children += pair
    if depth < 2:
        for a, _ in _ADD_BASES:
            power = a  # a^e for the largest e with a^e <= v
            while power * a <= v:
                power *= a
            if a < power < v:  # e >= 2 and 0 < r <= 10**6: a candidate
                children.append(v - power)
        for d in range(2, min(64, math.isqrt(v)) + 1):
            if v % d == 0:
                children += (d, v // d)
    return children


def _reach(v: int, depth: int) -> int:
    """Bit mask of v (>= 16) and the values >= 16 that an uncut search of v
    at `depth` (1..11) reaches with an empty memo.  v's children sit at
    depth 2 or more, where what a search lists does not depend on its
    depth."""
    mask = 1 << v
    if depth < 2 or v in _small_powers():  # else v is a leaf
        for c in _children(v, depth):
            if c >= 16:
                mask |= _reach(c, 2)
    return mask


@lru_cache(maxsize=None)
def _depth1_reach(c: int) -> int:
    """_reach(c, 1), the spend table: its callers pass 16 <= c < 2**11."""
    return _reach(c, 1)


def _listing_spend(v: int) -> int:
    """Units a search of v >= 16 at depth 0 or 1 spends on sum bases and
    divisors."""
    return len(_ADD_BASES) + min(64, math.isqrt(v)) - 1


def _small_int_spend(x: int) -> int:
    """The spend of the depth-0 search of x (16 <= x < 2**11) under an
    unlimited budget.  Each value >= 16 it reaches spends bit_length + 34
    on its exponents and tower bases; x, and each child of x that no
    earlier child's search reached, is searched at depth 0 or 1 and spends
    its listing too."""
    reached = 1 << x
    spend = _listing_spend(x)
    for c in _children(x, 0):
        if c >= 16 and not reached >> c & 1:
            reached |= _depth1_reach(c)
            spend += _listing_spend(c)
    # bit_length(v) is the number of j >= 0 with v >= 2**j
    return spend + 34 * reached.bit_count() + sum(
        (reached >> (1 << j)).bit_count() for j in range(11))


def _word_text(x: str, budget: _Budget) -> Union[str, _BlobText]:
    if any(ch not in WORD_SYMBOLS for ch in x):
        raise DescriptionError(f"bad word symbols {x!r}")
    if not x:
        raise DescriptionError("empty words are not describable")
    cands = [f"w({x})"]
    memo = dict(_SMALL_TEXTS)
    n = len(x)
    for period in range(1, n // 2 + 1):
        if n % period:
            continue
        if not budget.spend(1):
            break
        if x == x[:period] * (n // period):
            count = _int_text(budget, memo, 1, n // period)
            cands.append(f"r({x[:period]},{_unwrap(count)})")
    best = min(cands, key=_text_key)
    if budget.spend(1):
        blob = _BlobText(Blob(*lzw_compress(x.encode("ascii"))))
        if len(blob) <= len(best):  # "b(" sorts before "r(" and "w("
            return blob
    return best


def _code_text(x: CodeWords, budget: _Budget) -> Union[str, _BlobText]:
    literal = f"c({x.q},{x.n},{','.join(x.words)})"
    if budget.spend(1):
        data = "".join(x.words).encode("ascii")
        blob = _BlobText(CodeBlob(x.q, x.n, *lzw_compress(data)))
        if len(blob) < len(literal):  # "c(" sorts before "cb("
            return blob
    return literal


def _search_text(x: Obj, budget: _Budget) -> Union[str, _BlobText]:
    """Canonical text of the least candidate the search generates for x; a
    winning blob is a _BlobText, whose str() is the text."""
    if isinstance(x, int):
        if 16 <= x < _SPEND_TABLE_LIMIT:
            spend = _small_int_spend(x)
            if spend <= budget.left:
                # uncut, and no sum or divisor wins below 10**6: the text
                # is the one of the search that lists neither
                budget.left -= spend
                return _unwrap(_int_text(_Budget(spend), dict(_SMALL_TEXTS), 2, x))
        return _unwrap(_int_text(budget, dict(_SMALL_TEXTS), 0, x))
    if isinstance(x, str):
        return _word_text(x, budget)
    if isinstance(x, CodeWords):
        return _code_text(x, budget)
    raise DescriptionError(f"not describable: {x!r}")


# Candidates one search may generate: part of the PROXY_VERSION contract,
# so no caller can set it.
SEARCH_BUDGET = 4096


@dataclass(frozen=True)
class ComplexityProxy:
    """The pinned bounded search, which generates at most SEARCH_BUDGET
    candidates."""

    def search(self, x: Obj, hints: tuple = ()) -> tuple[Description, bool]:
        """Minimum-bit description among all candidates the search generates,
        and whether the budget cut the search short.

        Ties break on lexicographic serialization.  `hints` are extra
        candidate descriptions (verified against x before use); a winning
        hint is returned as given, a winning blob as the node it was sized
        from, and any other winner is parsed from its text.
        """
        text, winner, cut = self._best(x, hints)
        if winner is None:
            winner = text.node if isinstance(text, _BlobText) else parse(text)
        return winner, cut

    def complexity_bits(self, x: Obj, hints: tuple = (), cuts: Optional[list] = None) -> int:
        """Bits of the shortest description found; x is appended to `cuts`,
        when given, if the budget cut its search short."""
        text, _, cut = self._best(x, hints)
        if cut and cuts is not None:
            cuts.append(x)
        return BITS_PER_CHAR * len(text)

    def proxy_complexity(self, x: Obj, prefix: bool = False, hints: tuple = ()) -> int:
        """K(x) = 2**bits, or the prefix form 2**(bits + gamma header)."""
        bits = self.complexity_bits(x, hints)
        if prefix:
            bits += gamma_length(bits)
        return 1 << bits

    # -- search internals ---------------------------------------------------

    def _best(self, x: Obj, hints: tuple
              ) -> tuple[Union[str, _BlobText], Optional[Description], bool]:
        """(winning text, the winning hint or None, budget cut) of one search."""
        budget = _Budget(SEARCH_BUDGET)
        text = _search_text(x, budget)
        winner = None
        for hint in hints:
            if hint.value() == x:
                h = hint.serialize()
                # only a tie of lengths reads a winning blob's digits
                if len(h) < len(text) or len(h) == len(text) and h < str(text):
                    text, winner = h, hint
        return text, winner, budget.cut


def gamma_length(m: int) -> int:
    """Bit length of the Elias-gamma code of m >= 1."""
    if m < 1:
        raise ValueError("gamma code needs m >= 1")
    return 2 * (m.bit_length() - 1) + 1


DEFAULT_PROXY = ComplexityProxy()


# ---------------------------------------------------------------------------
# complexity order and Levin weights
# ---------------------------------------------------------------------------

class KolmogorovOrder:
    """Rank bijection of a finite universe, ascending in (K, object key).

    `budget_cuts` counts the objects whose search the budget cut short; it
    describes how the order was made and takes no part in equality.
    """

    def __init__(self, objects: tuple, budget_cuts: int = 0):
        self.objects = tuple(objects)  # position i holds the object of rank i+1
        self._budget_cuts = budget_cuts
        self._index = {object_key(x): i for i, x in enumerate(self.objects)}

    @property
    def budget_cuts(self) -> int:
        return self._budget_cuts

    def rank_of(self, x: Obj) -> int:
        try:
            return self._index[object_key(x)] + 1
        except KeyError:
            raise KeyError(f"object outside ordered universe: {x!r}") from None

    def object_at(self, rank: int) -> Obj:
        if not 1 <= rank <= len(self.objects):
            raise IndexError(f"rank {rank} outside 1..{len(self.objects)}")
        return self.objects[rank - 1]

    def __len__(self):
        return len(self.objects)

    def __contains__(self, x: Obj) -> bool:
        return object_key(x) in self._index

    def __eq__(self, other):
        return isinstance(other, KolmogorovOrder) and self.objects == other.objects


def kolmogorov_order(universe: Iterable[Obj]) -> KolmogorovOrder:
    """Sort a finite universe by (proxy complexity, canonical object key)."""
    items = list(universe)
    keys = [object_key(x) for x in items]
    if len(set(keys)) != len(keys):
        raise DescriptionError("universe contains duplicate objects")
    cuts: list = []
    bits = [DEFAULT_PROXY.complexity_bits(x, cuts=cuts) for x in items]
    # keys are distinct, so no two entries compare their objects
    ranked = sorted(zip(bits, keys, items))
    return KolmogorovOrder(tuple(x for _, _, x in ranked), len(cuts))


def levin_weights(universe: Iterable[Obj]) -> dict:
    """Normalized weights proportional to 1/KP(x), the proxy's prefix
    complexity, as exact rationals."""
    items = list(universe)
    if not items:
        raise DescriptionError("empty universe has no weights")
    kp = DEFAULT_PROXY.proxy_complexity
    raw = [(x, Fraction(1, kp(x, prefix=True))) for x in items]
    total = sum(w for _, w in raw)
    return {x: w / total for x, w in raw}


# ---------------------------------------------------------------------------
# Zipf rank-frequency analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZipfRow:
    rank: int
    token: str
    count: int
    frequency: float


@dataclass(frozen=True)
class ZipfFit:
    table: tuple[ZipfRow, ...]
    exponent: Optional[float]
    r_squared: Optional[float]

    @property
    def fit_defined(self) -> bool:
        return self.exponent is not None


def zipf_analyze(tokens: Iterable[str]) -> ZipfFit:
    """Rank tokens by descending frequency and fit log p_k against log k.

    Ties rank lexicographically.  With fewer than two distinct types the
    ranking is still returned but the fit is flagged undefined.
    """
    counts = Counter(tokens)
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    table = tuple(
        ZipfRow(i + 1, tok, cnt, cnt / total) for i, (tok, cnt) in enumerate(ranked)
    )
    if len(table) < 2:
        return ZipfFit(table, None, None)
    xs = [math.log(row.rank) for row in table]
    ys = [math.log(row.frequency) for row in table]
    slope, _ = linear_regression(xs, ys)
    try:
        r2 = correlation(xs, ys) ** 2
    except StatisticsError:
        r2 = None
    return ZipfFit(table, slope, r2)


_GUIDE_SHIFT = 52  # a draw's guide bucket is its top 12 bits


def _u64_ranker(cumulative: Sequence[float], labels: Sequence):
    """The function that maps a list of raw 64-bit draws v to the labels[j]
    of the first j with cumulative[j] >= (v >> 11) * 2**-53, the uniform
    float in [0, 1) that the top 53 bits of v make; cumulative must be
    ascending and end at 1.0 or above.

    The test runs on integers: with F = floor(c * 2**53), c >= (v >> 11) /
    2**53 holds iff (v >> 11) <= F, iff v <= ((F + 1) << 11) - 1, the end of
    c.  A guide table (Chen and Asau, 1974) over the top 12 bits of v names
    the label of each bucket that holds no end; a draw in any other bucket
    bisects the ends from the bucket's first candidate.
    """
    ends = [((math.floor(math.ldexp(c, 53)) + 1) << 11) - 1 for c in cumulative]
    first: list[int] = []
    whole: list = []
    j = 0
    for b in range(1 << (64 - _GUIDE_SHIFT)):
        while ends[j] < b << _GUIDE_SHIFT:
            j += 1
        first.append(j)
        whole.append(labels[j] if ends[j] >= ((b + 1) << _GUIDE_SHIFT) - 1 else None)

    def rank(draws: Iterable[int]) -> list:
        return [
            t if (t := whole[v >> _GUIDE_SHIFT]) is not None
            else labels[bisect_left(ends, v, first[v >> _GUIDE_SHIFT])]
            for v in draws
        ]

    return rank


def synthetic_zipf_corpus(n_types: int, n_tokens: int, seed: int) -> list[str]:
    """Tokens drawn i.i.d. from p_k proportional to 1/k."""
    if n_types < 1:
        raise ValueError("need at least one type")
    weights = [1.0 / k for k in range(1, n_types + 1)]
    total = math.fsum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    width = len(str(n_types))
    rank = _u64_ranker(
        cumulative, [f"w{str(k).zfill(width)}" for k in range(1, n_types + 1)])
    gen = SplitMix64(seed)
    out: list[str] = []
    # draws come in batches of 4096, so no list of all the draws is held;
    # each token is the first type whose cumulative weight reaches the
    # draw's uniform float, as with one float bisect per draw
    for start in range(0, n_tokens, 4096):
        out += rank(gen.next_u64s(min(4096, n_tokens - start)))
    return out
