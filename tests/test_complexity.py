import math
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from code_oracles import b58_decode_ref, b58_encode_ref, lzw_compress_ref
from complexity_oracles import (
    NodeSearch,
    desc_sort_key,
    iroot_ref,
    perfect_power_ref,
    synthetic_zipf_corpus_ref,
    zipf_cumulative_ref,
    zipf_rank_ref,
)
from kolmex import complexity as cx
from kolmex.codes import sample_codes
from kolmex.rng import SplitMix64

proxy = cx.DEFAULT_PROXY


# -- grammar and serialization ------------------------------------------------

def test_single_digit_is_minimal():
    d = proxy.search(5)[0]
    assert d.serialize() == "5"
    assert d.bits() == 8
    assert proxy.proxy_complexity(5) == 2**8


def test_power_of_two_compresses():
    d = proxy.search(4294967296)[0]
    assert d.bits() == 32  # a 4-character power form vs 80 bits for the literal
    assert d.value() == 4294967296
    assert cx.Lit("4294967296").bits() == 80


def test_billion_compresses():
    d = proxy.search(10**9)[0]
    assert d.serialize() == "10^9"
    assert d.bits() == 32


def test_power_beats_long_literal():
    assert proxy.proxy_complexity(2**32) < proxy.proxy_complexity(1234567891)


def test_literal_upper_bound():
    for x in [0, 7, 123, 99991, 10**9 + 7]:
        # the decimal literal is always a candidate
        assert proxy.complexity_bits(x) <= cx.BITS_PER_CHAR * len(str(x))
        assert proxy.proxy_complexity(x) >= 2


@given(st.integers(0, 10**12))
def test_search_value_round_trip(x):
    d = proxy.search(x)[0]
    assert d.value() == x


@pytest.mark.parametrize(
    "text",
    ["5", "2^32", "10^9", "(10^9)+7", "3*(2^4)", "w(0110)", "r(01,3)",
     "3^^5", "100^^", "(2^16)^2", "c(2,3,000,111)", "rs(7,7,3,0123456)"],
)
def test_parse_round_trip(text):
    assert cx.parse(text).serialize() == text


def test_alphabet_covers_serializations():
    for x in [5, 2**32, 10**9 + 7, "010101", cx.CodeWords(2, 2, ("00", "11"))]:
        for ch in proxy.search(x)[0].serialize():
            assert ch in cx.ALPHABET


def test_determinism():
    a = proxy.search(2**20)[0].serialize()
    b = proxy.search(2**20)[0].serialize()
    assert a == b


# -- words and blobs ----------------------------------------------------------

def test_periodic_word_uses_repetition():
    d = proxy.search("01" * 40)[0]
    assert d.serialize() == "r(01,40)"
    assert d.value() == "01" * 40


@given(st.binary(max_size=300))
def test_lzw_round_trip(data):
    payload, n_codes = cx.lzw_compress(data)
    assert cx.lzw_decompress(payload, n_codes) == data


def test_lzw_empty_blob_payload_is_truncated():
    with pytest.raises(cx.DescriptionError, match="truncated LZW stream"):
        cx.parse("b(1,2,0)").value()


def test_lzw_short_tail_is_truncated():
    # 6 codes fill 53 of the 56 payload bits: a 7th would read the 3 padding bits
    payload, n_codes = cx.lzw_compress(b"abcabcabc")
    assert (len(payload), n_codes) == (7, 6)
    with pytest.raises(cx.DescriptionError, match="truncated LZW stream"):
        cx.lzw_decompress(payload, n_codes + 1)
    with pytest.raises(cx.DescriptionError, match="truncated LZW stream"):
        cx.lzw_decompress(payload[:-1], n_codes)


@given(st.one_of(st.binary(max_size=1200),
                 st.text(alphabet="0126", max_size=3000).map(str.encode)))
def test_lzw_matches_reference(data):
    assert cx.lzw_compress(data) == lzw_compress_ref(data)


def _joined_words(q, n, size, count, seed):
    return ["".join(e.code.to_code_words().words).encode("ascii")
            for e in sample_codes(q, n, size, count, seed).entries]


def _lzw_edge_inputs():
    # the benchmark's traffic: 64 sorted 12-bit binary words, 343 words of q = 7
    yield from _joined_words(2, 12, 64, 4, 11)
    yield from _joined_words(7, 7, 343, 2, 12)
    # one byte repeated: phrase i is i + 1 copies, so every phrase extends the
    # last, and 1,794 codes pass the 512, 1,024 and 2,048 widths
    yield b"\x07" * (1793 * 1794 // 2 + 3)
    # all 256 byte values, so rank 255 is used, in order and shuffled
    yield bytes(range(256)) * 3
    everything = list(range(256)) * 12
    Random(5).shuffle(everything)
    yield bytes(everything)
    yield bytes(range(255, -1, -1)) + b"\xff\xfe\xff\xfe\x00\x01\x00"
    # the last phrase ends on a leaf, which the walk enters at the final byte ...
    yield from (b"abab", b"abababa", b"aaaaaa", b"abcabca", b"\xff\xff\xff")
    # ... on a node that already has children, or on a one-byte root
    yield from (b"ababab", b"aaaaa", b"aababab", b"\xfe\xff\xfe\xff\xfe\xff", b"aab", b"aba")
    # one and two bytes
    yield from (b"\x00", b"\xff", b"z", b"zz", b"zy", b"\x00\xff", b"\xff\x00")


def test_lzw_matches_reference_at_the_edges():
    for data in _lzw_edge_inputs():
        got = cx.lzw_compress(data)
        assert got == lzw_compress_ref(data), data[:40]
        assert cx.lzw_decompress(*got) == data
    # 7 at 8 bits, then 256, 257 and 258 at 9 bits, then 5 bits of padding
    assert cx.lzw_compress(b"\x07" * 10) == (
        bytes([0b00000111, 0b10000000, 0b01000000, 0b01100000, 0b01000000]), 4)


# -- base 58 -------------------------------------------------------------------

@given(st.integers(0, 30), st.binary(max_size=80))
def test_b58_matches_per_digit_reference(zeros, data):
    data = bytes(zeros) + data
    text = cx._b58_encode(data)
    assert text == b58_encode_ref(data)
    assert cx._b58_decode(text, len(data)) == data == b58_decode_ref(text, len(data))


@given(st.integers(1, 4), st.integers(1, 58**3), st.sampled_from([-1, 1]),
       st.integers(0, 3))
def test_b58_at_chunk_boundaries(j, k, step, zeros):
    value = 58 ** (10 * j) * k + step  # the last chunk all zeros or all 'Z'
    data = bytes(zeros) + value.to_bytes(-(-value.bit_length() // 8), "big")
    text = cx._b58_encode(data)
    assert text == b58_encode_ref(data)
    assert cx._b58_decode(text, len(data)) == data
    assert cx._b58_decode(b58_encode_ref(data), len(data)) == data


@st.composite
def b58_payloads(draw):
    """Payloads with 0-4 leading zero bytes: random bytes (empty and all-zero
    ones included), or a value next to a power of 58."""
    zeros = draw(st.integers(0, 4))
    if draw(st.booleans()):
        return bytes(zeros) + draw(st.binary(max_size=300))
    value = 58 ** draw(st.integers(1, 400)) + draw(st.sampled_from([-1, 0, 1]))
    return bytes(zeros) + value.to_bytes(-(-value.bit_length() // 8), "big")


@given(b58_payloads())
def test_b58_size_is_the_encoded_length(data):
    assert cx._b58_size(data) == len(cx._b58_encode(data)) == len(b58_encode_ref(data))


def test_b58_size_next_to_every_power_of_58():
    assert cx._b58_size(b"") == cx._b58_size(bytes(7)) == 1
    for k in range(1, 300):
        for value in (58**k - 1, 58**k, 58**k + 1):
            data = bytes(2) + value.to_bytes(-(-value.bit_length() // 8), "big")
            assert cx._b58_size(data) == len(b58_encode_ref(data)) == k + (value >= 58**k)


def test_b58_decode_rejects_bad_digits_and_overflow():
    with pytest.raises(cx.DescriptionError, match="digit 'I'"):
        cx._b58_decode("I0", 2)
    with pytest.raises(cx.DescriptionError, match="1 bytes"):
        cx._b58_decode("zz", 1)
    assert cx._b58_decode("0", 3) == bytes(3)


# -- parser errors --------------------------------------------------------------

@pytest.mark.parametrize("text, where", [
    ("b(1,2)", r"b\(\.\.\.\) at 0"),
    ("cb(2,3,1,1)", r"cb\(\.\.\.\) at 0"),
    ("c(x,3,000)", r"c\(\.\.\.\) at 0"),
    ("b(1,2,I0)", r"b\(\.\.\.\) at 0"),
    ("b(1,1,zzzzzz)", r"b\(\.\.\.\) at 0"),
    ("(2^3)+b(1,2)", r"b\(\.\.\.\) at 6"),
    ("rs(7,7,3,01I)", r"rs\(\.\.\.\) at 0"),
    ("c(2,-3,000)", r"c\(\.\.\.\) at 0"),
])
def test_parse_errors_name_the_tag_and_offset(text, where):
    with pytest.raises(cx.DescriptionError, match=where):
        cx.parse(text)


@pytest.mark.parametrize("text", ["²", "٣", "１２", "1²", "2^٣", "r(ab,٣)"])
def test_literals_take_ascii_digits_only(text):
    # str.isdigit holds for superscripts and other scripts' digits, and
    # int() reads some of them; the grammar's digits are 0-9
    with pytest.raises(cx.DescriptionError):
        cx.parse(text)
    if "(" not in text and "^" not in text:
        with pytest.raises(cx.DescriptionError, match="bad literal"):
            cx.Lit(text)


@pytest.mark.parametrize("text", ["c(2,3,012,111)", "c(2,3,01,111)", "c(2,0,)"])
def test_code_literal_rejects_bad_words(text):
    with pytest.raises(cx.DescriptionError):
        cx.parse(text).value()


@pytest.mark.parametrize("text", ["b(1,1,4n)", "cb(2,1,1,1,4n)", "b(3,2,g8lu)"])
def test_blobs_reject_bytes_outside_word_symbols(text):
    # a byte >= 0x80, and '0!' from a payload that decodes cleanly as ASCII
    with pytest.raises(cx.DescriptionError, match="outside the word symbols"):
        cx.parse(text).value()


def test_empty_code_round_trips():
    empty = cx.CodeWords(2, 3, ())
    assert cx.parse("c(2,3,)").value() == empty
    desc, cut = proxy.search(empty)
    assert (desc.serialize(), cut) == ("c(2,3,)", False)
    assert desc.value() == empty
    assert cx.parse("cb(2,3,0,0,0)").value() == empty


def test_code_blob_rejects_bad_words():
    payload, n_codes = cx.lzw_compress(b"012111")
    with pytest.raises(cx.DescriptionError, match="range"):
        cx.CodeBlob(2, 3, payload, n_codes).value()
    with pytest.raises(cx.DescriptionError, match="length mismatch"):
        cx.CodeBlob(3, 4, payload, n_codes).value()
    assert cx.CodeBlob(3, 3, payload, n_codes).value() == cx.CodeWords(3, 3, ("012", "111"))


@given(st.text(alphabet="0123456789abcdef", min_size=1, max_size=120))
def test_word_descriptions_evaluate_back(word):
    d = proxy.search(word)[0]
    assert d.value() == word


# -- tower numbers ------------------------------------------------------------

def test_tower_bound_symbolic():
    # description length stays logarithmic in n, never materializing the value
    for n in range(1, 101):
        tower = cx.Tower(cx.Lit(n), cx.Lit(n))
        assert tower.bits() <= 8 * (6 + len(str(n)))
    assert cx.Tower(cx.Lit(100), cx.Lit(100)).serialize() == "100^^"


def test_small_towers_evaluate():
    assert cx.Tower(cx.Lit(2), cx.Lit(2)).value() == 4
    assert cx.Tower(cx.Lit(2), cx.Lit(3)).value() == 16
    assert cx.Tower(cx.Lit(3), cx.Lit(2)).value() == 27
    assert cx.Tower(cx.Lit(2), cx.Lit(4)).value() == 65536
    with pytest.raises(cx.BudgetExhausted):
        cx.Tower(cx.Lit(10), cx.Lit(10)).value()


def test_tower_found_by_search():
    d = proxy.search(65536)[0]
    assert d.bits() <= 32  # 2^^4 or an equally short power form
    assert d.value() == 65536


# -- prefix complexity --------------------------------------------------------

def test_gamma_header_examples():
    assert cx.gamma_length(1) == 1
    assert cx.gamma_length(8) == 7
    assert proxy.proxy_complexity(5, prefix=True) == 2 ** (8 + 7)


def test_prefix_plain_relation_on_random_inputs():
    gen = SplitMix64(2026)
    for _ in range(100):
        x = gen.below(10**12)
        bits = proxy.complexity_bits(x)
        plain = proxy.proxy_complexity(x)
        prefixed = proxy.proxy_complexity(x, prefix=True)
        header = cx.gamma_length(bits)
        assert prefixed == plain * 2**header
        assert plain <= prefixed
        assert header == 2 * (bits.bit_length() - 1) + 1


# -- Kolmogorov order ---------------------------------------------------------

def test_order_singleton():
    order = cx.kolmogorov_order([42])
    assert order.rank_of(42) == 1 and order.object_at(1) == 42


def test_order_first_ten_naturals():
    order = cx.kolmogorov_order(range(1, 11))
    assert order.objects == tuple(range(1, 11))


def test_order_million_before_999999():
    order = cx.kolmogorov_order([999999, 1000000])
    assert order.objects == (1000000, 999999)


def test_order_is_stable_permutation():
    universe = list(range(1, 60))
    a = cx.kolmogorov_order(universe)
    b = cx.kolmogorov_order(universe)
    assert a == b
    assert sorted(a.objects) == universe
    ranks = [a.rank_of(x) for x in universe]
    assert sorted(ranks) == list(range(1, 60))


def test_order_counts_budget_cuts():
    small = cx.kolmogorov_order(range(1, 65))
    assert small.budget_cuts == 0
    window = cx.kolmogorov_order(range(1, 1025))
    assert window.budget_cuts == 21
    assert sum(proxy.search(x)[1] for x in window.objects) == 21
    with pytest.raises(AttributeError):
        window.budget_cuts = 0
    # the count describes how the order was made, not the order
    assert window == cx.KolmogorovOrder(window.objects)


def test_order_rejects_duplicates():
    with pytest.raises(cx.DescriptionError):
        cx.kolmogorov_order([3, 3])


# -- Levin weights ------------------------------------------------------------

def test_levin_singleton():
    assert cx.levin_weights([9]) == {9: Fraction(1)}


def test_levin_uniform_on_digits():
    w = cx.levin_weights(range(1, 10))
    assert all(v == Fraction(1, 9) for v in w.values())


def test_levin_ratio_example():
    # one more character costs the prefix complexity eight bits
    kp = cx.DEFAULT_PROXY.proxy_complexity
    assert (kp("a", prefix=True), kp("ab", prefix=True)) == (2**43, 2**51)
    w = cx.levin_weights(["a", "ab"])
    assert w == {"a": Fraction(256, 257), "ab": Fraction(1, 257)}


@given(st.sets(st.integers(1, 5000), min_size=1, max_size=12))
def test_levin_sums_to_one_exactly(universe):
    assert sum(cx.levin_weights(universe).values()) == 1


def test_levin_rejects_empty():
    with pytest.raises(cx.DescriptionError):
        cx.levin_weights([])


# -- Zipf ---------------------------------------------------------------------

def test_zipf_counting_example():
    fit = cx.zipf_analyze("a b a c a b".split())
    assert [(r.token, r.count) for r in fit.table] == [("a", 3), ("b", 2), ("c", 1)]
    assert fit.table[0].rank == 1


def test_zipf_single_type_flagged():
    fit = cx.zipf_analyze(["x", "x", "x"])
    assert not fit.fit_defined
    assert len(fit.table) == 1


def test_zipf_tie_break_lexicographic():
    fit = cx.zipf_analyze("b a b a".split())
    assert [r.token for r in fit.table] == ["a", "b"]


def test_synthetic_corpus_recovers_exponent():
    corpus = cx.synthetic_zipf_corpus(1000, 100_000, seed=20260809)
    fit = cx.zipf_analyze(corpus)
    assert fit.fit_defined
    assert abs(fit.exponent - (-1.0)) <= 0.1
    assert fit.r_squared > 0.9


def test_synthetic_corpus_deterministic():
    a = cx.synthetic_zipf_corpus(50, 2000, seed=3)
    b = cx.synthetic_zipf_corpus(50, 2000, seed=3)
    assert a == b


def test_zipf_counts_any_iterable():
    assert cx.zipf_analyze(iter("b a b c".split())) == cx.zipf_analyze(["b", "a", "b", "c"])
    assert cx.zipf_analyze([]).table == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000),
       st.one_of(st.integers(0, 100), st.sampled_from([4095, 4096, 4097, 8191, 8193]),
                 st.integers(0, 9000)),
       st.integers(0, 2**64 - 1))
def test_zipf_corpus_matches_float_bisect_reference(n_types, n_tokens, seed):
    assert (cx.synthetic_zipf_corpus(n_types, n_tokens, seed)
            == synthetic_zipf_corpus_ref(n_types, n_tokens, seed, 1.0))


def _threshold_draws(c: float) -> set[int]:
    """The 64-bit draws at and next to the last one whose uniform is <= c:
    (F << 11) has the uniform F / 2**53, which is c itself when c * 2**53
    is an integer, and ((F + 1) << 11) - 1 is the last draw with that
    uniform."""
    f = math.floor(Fraction(c) * 2**53)
    near = {(f << 11) - 1, f << 11, ((f + 1) << 11) - 1, (f + 1) << 11}
    return {v for v in near if 0 <= v < 2**64}


@pytest.mark.parametrize("cumulative", [
    [0.25, 0.5, 0.75, 1.0],
    [0.5, 0.5, 1.0],  # a type of weight 0 is never drawn
    [1.0],
    [2.0**-60, 0.1, 1.0 - 2.0**-53, 1.0],
    zipf_cumulative_ref(10, 0.5),
    zipf_cumulative_ref(1000, 1.0),
    zipf_cumulative_ref(3000, 3.0),
], ids=["quarters", "tie", "one", "extremes", "10x0.5", "1000x1", "3000x3"])
def test_integer_ranks_agree_with_floats_at_every_threshold(cumulative):
    """Each type's integer end is exactly where its float comparison flips:
    at the last draw whose uniform reaches no further than its cumulative
    weight, at the draw after it, and at a draw whose uniform equals that
    weight."""
    rank = cx._u64_ranker(cumulative, range(len(cumulative)))
    draws = sorted({0, 2**64 - 1}.union(*map(_threshold_draws, cumulative)))
    assert rank(draws) == [zipf_rank_ref(cumulative, v) for v in draws]
    uniforms = {(v >> 11) * 2.0**-53 for v in draws}
    assert all(c in uniforms for c in cumulative if c < 1 and (c * 2**53).is_integer())


# -- budget exhaustion --------------------------------------------------------

def _searched(p, x, budget):
    """(serialization, spends left, cut) of one search with a fresh budget:
    the live proxy's winning text, or the serialized node of a reference."""
    b = cx._Budget(budget)
    if isinstance(p, cx.ComplexityProxy):
        text = str(cx._search_text(x, b))
    else:
        text = p.search(x, b).serialize()
    return text, b.left, b.cut


def test_search_reports_budget_exhaustion():
    assert proxy.search(1024) == (cx.parse("4^5"), False)
    assert _searched(proxy, 1024, cx.SEARCH_BUDGET) == ("4^5", 1686, False)
    for x, text in [(10**100, "100^50"), (999983, "999983")]:
        desc, exhausted = proxy.search(x)
        assert (desc.serialize(), exhausted) == (text, True)
        assert _searched(proxy, x, cx.SEARCH_BUDGET) == (text, 0, True)
    assert proxy.complexity_bits(10**100) == proxy.search(10**100)[0].bits()


# -- the integer search against its reference --------------------------------

class LoopSearch(NodeSearch):
    """The integer search as one budget unit per loop step: an iroot per
    exponent, a tower climb per base and a power loop per small base."""

    def _search_int(self, x, budget, memo, depth):
        if x < 0:
            raise cx.DescriptionError("negative integers are not in the grammar")
        candidates = [cx.Lit(str(x))]
        if depth < 12 and x >= 16:
            root_pairs = []
            for b in range(2, x.bit_length() + 1):
                if not budget.spend(1):
                    break
                a = iroot_ref(x, b)
                if a >= 2 and a**b == x:
                    root_pairs.append((a, b))
            tower_pairs = []
            for base in range(2, 37):
                if not budget.spend(1):
                    break
                acc, height = base, 1
                while acc < x:
                    if acc > x.bit_length() + 1:
                        break
                    acc = base**acc
                    height += 1
                if acc == x and height >= 2:
                    tower_pairs.append((base, height))
            for a, b in root_pairs:
                candidates.append(cx.Pow(
                    self._search(a, budget, memo, depth + 1),
                    self._search(b, budget, memo, depth + 1)))
            for base, height in tower_pairs:
                candidates.append(cx.Tower(
                    self._search(base, budget, memo, depth + 1),
                    self._search(height, budget, memo, depth + 1)))
        if depth < 2 and x >= 16:
            for a in range(2, 11):
                if not budget.spend(1):
                    break
                e = 1
                while a ** (e + 1) <= x:
                    e += 1
                r = x - a**e
                if e >= 2 and 0 < r <= 1_000_000:
                    candidates.append(cx.Add(
                        cx.Pow(self._search(a, budget, memo, depth + 1),
                               self._search(e, budget, memo, depth + 1)),
                        self._search(r, budget, memo, depth + 1)))
            for d in range(2, 65):
                if d * d > x:
                    break
                if not budget.spend(1):
                    break
                if x % d == 0:
                    candidates.append(cx.Mul(
                        self._search(d, budget, memo, depth + 1),
                        self._search(x // d, budget, memo, depth + 1)))
        return min(candidates, key=desc_sort_key)


loop_proxy = LoopSearch()


def _tower(base, height):
    value = base
    for _ in range(height - 1):
        value = base**value
    return value


TOWERS = [_tower(b, 2) for b in range(2, 37)] + [
    _tower(2, 3), _tower(2, 4), _tower(3, 3), _tower(4, 3), _tower(2, 4) ** 3,
    _tower(3, 3) ** 2, 4**128, 3 * _tower(2, 4)]

# one strategy per branch class of the integer search
branch_ints = st.one_of(
    st.integers(0, 10**4),
    st.integers(0, 10**12),
    st.builds(pow, st.integers(2, 200), st.integers(2, 40)),
    st.builds(lambda a, e, r: a**e + r,
              st.integers(2, 10), st.integers(2, 60), st.integers(1, 10**6)),
    st.sampled_from(TOWERS),
    st.builds(lambda a, b, c: 2**a * 3**b * c,
              st.integers(0, 40), st.integers(0, 40), st.integers(1, 64)),
)


@settings(max_examples=300, deadline=None)
@given(branch_ints, st.one_of(st.integers(1, 300), st.just(4096)))
def test_int_search_matches_loop_reference(x, budget):
    assert _searched(proxy, x, budget) == _searched(loop_proxy, x, budget)


def test_int_search_matches_loop_reference_on_every_budget():
    xs = [9973, 65536, 10**9 + 7, 2**60, 6**24, 3**27, 4**256, 7**15 + 5,
          12 * 2**30, 999983]
    for x in xs:
        for budget in [*range(1, 301), 4096]:
            assert _searched(proxy, x, budget) == _searched(loop_proxy, x, budget), (x, budget)


def test_int_search_matches_loop_reference_on_small_base_powers():
    # exact powers a^k, where a float estimate of log_a x may land below k
    for a in range(2, 11):
        for k in range(2, 31):
            for budget in (60, 4096):
                x = a**k
                assert _searched(proxy, x, budget) == _searched(loop_proxy, x, budget), (a, k)


def test_huge_integers_need_no_digit_limit():
    x = 7**5200  # 4395 decimal digits, past the default conversion limit
    got = [_searched(proxy, x, budget) for budget in (1, 40)]
    big = cx.DEFAULT_PROXY.search(2**65536)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert got == [_searched(loop_proxy, x, budget) for budget in (1, 40)]
        assert big == (cx.parse("65536^4096"), True)
        assert cx.object_key(x) == str(x)
        assert cx.Lit(x).value() == x
    finally:
        sys.set_int_max_str_digits(limit)


# -- the perfect-power decomposition against its root loop ------------------

def test_small_power_table_matches_root_loop():
    table = cx._small_powers()
    assert len(table) == 1134
    for x, (m, e) in table.items():
        n = x.bit_length()
        assert e >= 2 and m**e == x < 2**20
        for top in (n - 1, n, n + 5, 40):
            assert cx._perfect_power(x, top) == perfect_power_ref(x, top) == (m, e), (x, top)


def test_perfect_power_matches_root_loop_below_2_16():
    # the reference depends on top only through the primes <= top, so it is
    # recomputed where top is prime; the live value is checked at every top
    for x in range(1 << 16):
        expected = perfect_power_ref(x, 1)
        for top in range(1, x.bit_length() + 2):
            if top in (2, 3, 5, 7, 11, 13, 17):
                expected = perfect_power_ref(x, top)
            assert cx._perfect_power(x, top) == expected, (x, top)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 2**20), st.integers(2**20, 2**64),
                 st.builds(pow, st.integers(2, 2**12), st.integers(2, 12))),
       st.integers(1, 70))
def test_perfect_power_matches_root_loop(x, top):
    assert cx._perfect_power(x, top) == perfect_power_ref(x, top)


# -- the text search against the node-building oracle ---------------------------

oracle = NodeSearch()
budgets = st.one_of(st.integers(1, 300), st.just(cx.SEARCH_BUDGET))


def _check_against_oracle(x, budget):
    """Same (text, spends left, cut) as the node search; the winning text
    parses to a description that evaluates back to x, and at SEARCH_BUDGET
    `search` returns that description and cut."""
    got = _searched(proxy, x, budget)
    assert got == _searched(oracle, x, budget)
    desc = cx.parse(got[0])
    assert desc.serialize() == got[0]
    assert desc.value() == x
    if budget == cx.SEARCH_BUDGET:
        assert proxy.search(x) == (desc, got[2])


class _Spends(cx._Budget):
    """A budget that records each spend: how much was spent before it, and
    how much it asked for."""

    def __init__(self, left):
        super().__init__(left)
        self.total = left
        self.spends = []

    def spend(self, n):
        self.spends.append((self.total - self.left, n))
        return super().spend(n)


def _cut_budgets(x, depth=0):
    """Budgets one unit short of each spend of x's search at `depth`, exactly
    enough for it, and one unit more: the cut edges of the exponent and
    tower-base grants, of a leaf's fused grant and of the add and divisor
    loop steps."""
    b = _Spends(4096)
    oracle._search(x, b, {}, depth)
    return sorted({s + n + k for s, n in b.spends for k in (-1, 0, 1)} - {0})


@st.composite
def ints_and_budgets(draw):
    x = draw(branch_ints)
    edges = _cut_budgets(x)
    return x, draw(st.one_of(budgets, st.sampled_from(edges)) if edges else budgets)


@settings(max_examples=200, deadline=None)
@given(ints_and_budgets())
def test_int_text_search_matches_node_oracle(case):
    _check_against_oracle(*case)


def test_window_search_matches_node_oracle_at_every_cut_edge():
    for x in range(16, 1025, 37):
        for budget in _cut_budgets(x):
            assert _searched(proxy, x, budget) == _searched(oracle, x, budget), (x, budget)


def test_window_search_matches_node_oracle():
    cuts = 0
    for x in range(1, 1025):
        got = _searched(proxy, x, cx.SEARCH_BUDGET)
        assert got == _searched(oracle, x, cx.SEARCH_BUDGET), x
        cuts += got[2]
    assert cuts == 21


def _child_searched(p, x, depth, budget):
    """(child text, spends left, cut) of x searched as a child at `depth`
    with a fresh budget and memo, by the live search or the node oracle."""
    b = cx._Budget(budget)
    if p is proxy:
        text = cx._int_text(b, dict(cx._SMALL_TEXTS), depth, x)
    else:
        text = p._search(x, b, {}, depth)._wrapped()
    return text, b.left, b.cut


@pytest.mark.parametrize("x, depth", [
    (2**20, 2), (3**13, 2),  # perfect powers at and past 2^20: the bound
    (1024, 2), (3**12, 2),  # perfect powers below 2^20: the table lookup
    (1001, 1), (999983, 0),  # depths that list sums and divisors
    (17, 12), (1001, 11),  # depth 12 lists nothing; depth 11 is a leaf
])
def test_leaf_test_guards(x, depth):
    """Each guard of the one-step leaf settles a child the full listing
    would treat differently, at every cut edge of the oracle's spends."""
    for budget in [1, *_cut_budgets(x, depth), 4096]:
        got = _child_searched(proxy, x, depth, budget)
        assert got == _child_searched(oracle, x, depth, budget), budget


def test_a_root_chain_reaches_a_leaf_guard_at_depth_12():
    # 17^(2^12): each root child halves the exponent, so 17 is searched at
    # depth 12, where nothing is listed and nothing spent
    x = 17 ** 2**12
    assert _searched(proxy, x, 10**6) == _searched(oracle, x, 10**6)


# -- the spend table against the depth-0 search -------------------------------

UNLIMITED = 10**9


def _depth_searched(x, depth, budget=UNLIMITED):
    """(text, spends left, cut) of the listing search of x at `depth`, with
    a fresh budget and memo."""
    b = cx._Budget(budget)
    text = cx._unwrap(cx._int_text(b, dict(cx._SMALL_TEXTS), depth, x))
    return text, b.left, b.cut


def test_spend_table_matches_depth_0_search_below_2_11():
    for x in range(16, cx._SPEND_TABLE_LIMIT):
        text, left, cut = _depth_searched(x, 0)
        assert not cut and cx._small_int_spend(x) == UNLIMITED - left, x
        assert _searched(proxy, x, UNLIMITED) == (text, left, False), x


@st.composite
def small_ints_and_budgets(draw):
    """x below 2**11 and a budget, often within two units of x's spend."""
    x = draw(st.integers(1, cx._SPEND_TABLE_LIMIT - 1))
    budget = draw(st.integers(1, 4096))
    if x >= 16 and draw(st.booleans()):
        budget = max(1, cx._small_int_spend(x) + draw(st.integers(-2, 2)))
    return x, budget


@settings(max_examples=400, deadline=None)
@given(small_ints_and_budgets())
def test_small_int_search_matches_depth_0_search(case):
    x, budget = case
    assert _searched(proxy, x, budget) == _depth_searched(x, 0, budget)


def test_no_sum_or_divisor_wins_below_10_6():
    rnd = Random(24)
    xs = [rnd.randrange(16, 10**6) for _ in range(4000)]
    xs += [10**6 - 1, 999983, 2**19, 3**12, 1000, 1024, 100**3, 2**19 + 1]
    for x in xs:
        assert _depth_searched(x, 0)[0] == _depth_searched(x, 2)[0], x


SYMBOLS = st.sampled_from(cx.WORD_SYMBOLS)
words = st.one_of(
    st.text(SYMBOLS, min_size=1, max_size=40),
    st.text(SYMBOLS, min_size=1, max_size=8).flatmap(
        lambda block: st.integers(1, 40 // len(block)).map(lambda k: block * k)),
)


@settings(max_examples=150, deadline=None)
@given(words, budgets)
def test_word_text_search_matches_node_oracle(word, budget):
    _check_against_oracle(word, budget)


@st.composite
def code_words(draw):
    """Codes with 0-12 distinct words in any order, sorted or not."""
    q = draw(st.integers(2, 36))
    n = draw(st.integers(1, 6))
    word = st.text(st.sampled_from(cx.WORD_SYMBOLS[:q]), min_size=n, max_size=n)
    ws = draw(st.lists(word, max_size=12, unique=True))
    return cx.CodeWords(q, n, tuple(ws))


@settings(max_examples=150, deadline=None)
@given(code_words(), budgets)
def test_code_text_search_matches_node_oracle(code, budget):
    _check_against_oracle(code, budget)


def test_code_value_does_not_depend_on_word_order():
    # random 8-bit words: compressed in the given order, a shuffled list read
    # fewer bits than the sorted one, although both are the same code
    rng = SplitMix64(7)
    words = sorted({format(rng.below(256), "08b") for _ in range(40)})
    shuffled = list(words)
    Random(3).shuffle(shuffled)
    assert shuffled != words
    ordered = cx.CodeWords(2, 8, tuple(words))
    mixed = cx.CodeWords(2, 8, tuple(shuffled))
    assert mixed == ordered and mixed.words == tuple(words)
    assert proxy.search(mixed)[0].serialize() == proxy.search(ordered)[0].serialize()
    assert proxy.complexity_bits(mixed) == proxy.complexity_bits(ordered)


def test_text_search_matches_node_oracle_on_fixed_cases():
    cases = [cx.CodeWords(2, 3, ()), cx.CodeWords(2, 3, ("111", "000")),
             "01" * 20, "0" * 16, "abc" * 13, "z", 10**100, 2**64 + 1,
             "01" * 1024, "xyz" * 729]  # counts 4^5 and 3^6 are compound
    for x in cases:
        for budget in (1, 2, 3, 40, cx.SEARCH_BUDGET):
            _check_against_oracle(x, budget)


# words and codes that LZW shortens, so a blob often wins their search
blob_words = st.one_of(st.text(st.sampled_from("01"), min_size=1, max_size=300),
                       st.text(st.sampled_from("0123"), min_size=20, max_size=200))


@st.composite
def blob_codes(draw):
    q = draw(st.integers(2, 4))
    n = draw(st.integers(2, 10))
    word = st.text(st.sampled_from(cx.WORD_SYMBOLS[:q]), min_size=n, max_size=n)
    return cx.CodeWords(q, n, tuple(draw(st.lists(word, min_size=4, max_size=80,
                                                  unique=True))))


@settings(max_examples=150, deadline=None)
@given(st.one_of(blob_words, blob_codes()))
def test_complexity_bits_is_the_length_of_the_searched_text(x):
    _check_against_oracle(x, cx.SEARCH_BUDGET)
    desc, _ = proxy.search(x)
    assert proxy.complexity_bits(x) == cx.BITS_PER_CHAR * len(desc.serialize())


def _blob_won_codes():
    """Code words of 20 sampled binary codes, each won by a blob."""
    from kolmex.codes import sample_codes

    out = [e.code.to_code_words() for e in sample_codes(2, 12, 64, 20, 7).entries]
    assert all(proxy.search(x)[0].serialize().startswith("cb(") for x in out)
    return out


def _count_b58_calls(monkeypatch) -> list:
    """Records ("encode", payload) for each base-58 encoding and ("decode",
    digits) for each decoding."""
    calls = []
    encode, decode = cx._b58_encode, cx._b58_decode

    def counted_encode(data):
        calls.append(("encode", data))
        return encode(data)

    def counted_decode(text, n_bytes):
        calls.append(("decode", text))
        return decode(text, n_bytes)

    monkeypatch.setattr(cx, "_b58_encode", counted_encode)
    monkeypatch.setattr(cx, "_b58_decode", counted_decode)
    return calls


def test_blob_winners_are_ranked_without_their_digits(monkeypatch):
    words = ["0110" * 3 + format(3**150, "b"), "0123" * 9 + "3210" * 7]
    blobs = _blob_won_codes() + words
    texts = [proxy.search(x)[0].serialize() for x in blobs]
    assert [t[:2] for t in texts[-2:]] == ["b(", "b("]
    calls = _count_b58_calls(monkeypatch)
    bits = [proxy.complexity_bits(x) for x in blobs]
    assert calls == []
    assert bits == [cx.BITS_PER_CHAR * len(t) for t in texts]
    # search returns the node it sized: no digits are built or read back
    # until its first serialize, which encodes once and keeps the text
    nodes = [proxy.search(x)[0] for x in blobs]
    assert calls == []
    assert [d.serialize() for d in nodes] == texts
    assert [d.serialize() for d in nodes] == texts
    assert calls == [("encode", d.payload) for d in nodes]
    assert nodes == [cx.parse(t) for t in texts]
    assert [d.value() for d in nodes] == blobs


def test_blob_length_ties_break_on_the_first_character():
    # a blob as long as the word literal wins: "b(" sorts before "w("
    word = "00000000010000"
    text = proxy.search(word)[0].serialize()
    assert text.startswith("b(") and len(text) == len(f"w({word})")
    # a code literal as long as the blob wins: "c(" sorts before "cb("
    code = cx.CodeWords(2, 3, ("000", "001", "010", "101", "110", "111"))
    payload, n_codes = cx.lzw_compress("".join(code.words).encode("ascii"))
    blob = cx.CodeBlob(2, 3, payload, n_codes).serialize()
    text = proxy.search(code)[0].serialize()
    assert text == "c(2,3,000,001,010,101,110,111)" and len(text) == len(blob)
    for x in (word, code):
        _check_against_oracle(x, cx.SEARCH_BUDGET)


class _TextHint(cx.Description):
    """A hint with a given text and value."""

    def __init__(self, text, value):
        self.text = text
        self.x = value

    def _serialize(self):
        return self.text

    def value(self):
        return self.x


def test_a_hint_tying_a_blob_is_decided_by_the_text(monkeypatch):
    x = next(x for x in _blob_won_codes() if proxy.search(x)[0].serialize()[-2] not in "0z")
    text = proxy.search(x)[0].serialize()
    # hints differing only in the last base-58 digit: '0' is the least
    # digit and 'z' the greatest
    below, above = _TextHint(text[:-2] + "0)", x), _TextHint(text[:-2] + "z)", x)
    calls = _count_b58_calls(monkeypatch)
    assert proxy.search(x, hints=(below,))[0] is below
    assert proxy.search(x, hints=(above,))[0].serialize() == text
    assert proxy.complexity_bits(x, hints=(above, below)) == cx.BITS_PER_CHAR * len(text)
    assert calls  # the ties read the blob's digits
    calls.clear()
    # a hint of another length is ranked without them
    longer, shorter = _TextHint(text + "0", x), _TextHint(text[:-2] + ")", x)
    assert proxy.complexity_bits(x, hints=(longer,)) == cx.BITS_PER_CHAR * len(text)
    assert proxy.complexity_bits(x, hints=(shorter,)) == cx.BITS_PER_CHAR * (len(text) - 1)
    assert calls == []


def test_hint_wins_only_when_shorter_and_equal():
    rs = cx.RsCode(7, 7, 3, tuple(range(7)))
    words = rs.value()
    desc, cut = proxy.search(words, hints=(rs,))
    assert desc is rs and not cut
    assert proxy.complexity_bits(words, hints=(rs,)) == rs.bits()
    # a hint of another value is ignored; a longer one loses
    assert proxy.search(5, hints=(cx.Lit(6),))[0] == cx.Lit(5)
    assert proxy.search(4, hints=(cx.parse("2^2"),))[0] == cx.Lit(4)
    assert proxy.search(2**64, hints=(cx.parse("2^64"),))[0].serialize() == "2^64"
