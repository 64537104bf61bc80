import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from code_oracles import (
    hamming_distance,
    lzw_compress_ref,
    pack_words,
    partition_sum_ref,
    sampled_codes_ref,
)
from kolmex import codes, complexity
from kolmex.rng import SplitMix64
from kolmex.codes import (
    Code,
    CodeError,
    bound_curve,
    code_params,
    enumerate_linear_codes,
    floor_log,
    partition_sum,
    q_entropy,
    reed_solomon,
    reed_solomon_min_distance,
    sample_codes,
)

F = Fraction


# -- Hamming distance ---------------------------------------------------------

def test_distance_examples():
    assert hamming_distance("000", "000") == 0
    assert hamming_distance("abc", "abd") == 1
    assert hamming_distance("01010", "10101") == 5


def test_distance_rejects_length_mismatch():
    with pytest.raises(CodeError):
        hamming_distance("ab", "abc")


words = st.lists(st.integers(0, 3), min_size=1, max_size=12)


@given(words, words, words)
def test_distance_is_a_metric(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = tuple(a[:n]), tuple(b[:n]), tuple(c[:n])
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert (hamming_distance(a, b) == 0) == (a == b)
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


# -- parameters ---------------------------------------------------------------

def test_params_repetition_code():
    c = Code(2, 3, pack_words([(0, 0, 0), (1, 1, 1)], 2))
    p = code_params(c)
    assert (p.n, p.k, p.d) == (3, 1, 3)
    assert (p.rate, p.delta) == (F(1, 3), F(1))


def test_params_full_binary_line():
    p = code_params(Code(2, 1, pack_words([(0,), (1,)], 2)))
    assert (p.n, p.k, p.d, p.rate, p.delta) == (1, 1, 1, F(1), F(1))


def test_params_reed_solomon_brute_force():
    rs = reed_solomon(7, 7, 3)
    assert rs.card() == 343
    p = code_params(rs)
    assert p.d == 5 and (p.rate, p.delta) == (F(3, 7), F(5, 7))
    # independent pairwise oracle over all 343*342/2 pairs
    ws = rs.sorted_words()
    assert min(
        hamming_distance(a, b) for i, a in enumerate(ws) for b in ws[i + 1 :]
    ) == 5


def pairwise_ref(words):
    """Minimum distance by the tuple-by-tuple pairwise scan."""
    ws = sorted(words)
    return min(
        hamming_distance(a, b) for i, a in enumerate(ws) for b in ws[i + 1 :]
    )


@st.composite
def unstructured_codes(draw):
    """(q, n, words): random words, single-parity words (d >= 2) or words of
    repeated symbols padded with zeros (d >= r)."""
    q = draw(st.sampled_from([2, 3, 4, 7, 8, 16, 36]))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "parity", "repeat"]))
    r = draw(st.integers(2, min(4, n))) if kind == "repeat" and n >= 2 else 1
    m = n - 1 if kind == "parity" and n >= 2 else n // r
    base = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * m),
                         min_size=2, max_size=min(q**m, 40), unique=True))
    if m < n and kind == "parity":
        words = [w + ((-sum(w)) % q,) for w in base]
    else:
        words = [tuple(s for s in w for _ in range(r)) + (0,) * (n - m * r)
                 for w in base]
    return q, n, frozenset(words)


@settings(max_examples=400, deadline=None)
@given(unstructured_codes())
def test_packed_distance_matches_pairwise_scan(case):
    q, n, words = case
    want = pairwise_ref(words)
    assert codes._min_distance(pack_words(words, q), q, n) == want
    assert code_params(Code(q, n, sorted(pack_words(words, q)))).d == want


def test_packed_distance_beyond_one_and_two():
    # q = 7, n = 7: single-parity words, and doubled symbols padded with a zero
    parity = frozenset(w + ((-sum(w)) % 7,) for w in [
        (0, 0, 0, 0, 0, 0), (1, 2, 3, 4, 5, 6), (6, 6, 6, 6, 6, 6)])
    assert codes._min_distance(pack_words(parity, 7), 7, 7) == pairwise_ref(parity) == 6
    doubled = frozenset(tuple(s for s in w for _ in range(2)) + (0,)
                        for w in [(0, 1, 2), (3, 4, 5), (6, 0, 1)])
    assert codes._min_distance(pack_words(doubled, 7), 7, 7) == pairwise_ref(doubled) == 6
    binary = frozenset([(0,) * 8, (1,) * 3 + (0,) * 5, (0,) * 4 + (1,) * 4])
    assert codes._min_distance(pack_words(binary, 2), 2, 8) == pairwise_ref(binary) == 3


def test_linear_codes_enumerate_their_span_once(monkeypatch):
    calls = []
    row_space = codes.fields.row_space

    def counted(*args):
        calls.append(args)
        return row_space(*args)

    monkeypatch.setattr(codes.fields, "row_space", counted)
    rs = reed_solomon(7, 7, 3)
    assert rs.card() == 343 and len(calls) == 1
    calls.clear()
    ensemble = enumerate_linear_codes(2, 3)
    gens = [e.code.generator for e in ensemble.entries]
    spans = [rows for _, rows, _ in calls if any(rows is g for g in gens)]
    assert len(spans) == len(ensemble) == 15


def test_singleton_code_rejected():
    with pytest.raises(CodeError):
        Code(2, 2, pack_words([(0, 0)], 2))


def test_floor_log_convention():
    # non-power sizes: k = floor(log_q card)
    words = {(0, 0), (0, 1), (1, 0)}
    p = code_params(Code(2, 2, sorted(pack_words(words, 2))))
    assert p.k == 1  # card 3, floor(log2 3) = 1


def test_linear_weight_path_agrees_with_pairwise():
    for q, n, k in [(3, 3, 2), (5, 4, 2), (5, 5, 3), (7, 5, 2)]:
        rs = reed_solomon(q, n, k)
        p = code_params(rs)  # generator present: min-weight path
        ws = rs.sorted_words()
        pairwise = min(
            hamming_distance(a, b) for i, a in enumerate(ws) for b in ws[i + 1 :]
        )
        assert p.d == pairwise == n + 1 - k


def test_weight_path_agrees_on_all_small_linear_codes():
    # non-MDS coverage: every linear code from the RREF enumeration
    for q, n in [(2, 4), (3, 3)]:
        for entry in enumerate_linear_codes(q, n).entries:
            ws = entry.code.sorted_words()
            pairwise = min(
                hamming_distance(a, b)
                for i, a in enumerate(ws)
                for b in ws[i + 1 :]
            )
            assert entry.params.d == pairwise


# -- entropy and bound curves -------------------------------------------------

def test_entropy_conventions():
    assert q_entropy(2, 0.0) == 0.0
    assert abs(q_entropy(2, 0.5) - 1.0) < 1e-15
    assert abs(q_entropy(2, 0.25) - 0.8112781244591328) < 1e-13


def test_entropy_oracle_direct_formula():
    # independent evaluation of the defining formula
    for q, d in [(2, 0.3), (3, 0.5), (7, 0.1), (5, 0.9)]:
        expected = (
            d * math.log(q - 1, q) - d * math.log(d, q) - (1 - d) * math.log(1 - d, q)
        )
        assert abs(q_entropy(q, d) - expected) < 1e-14


def test_entropy_domain():
    with pytest.raises(CodeError):
        q_entropy(2, -0.1)
    with pytest.raises(CodeError):
        q_entropy(2, 1.1)


def test_bound_curves():
    assert bound_curve("singleton", 2, 0.3) == pytest.approx(0.7)
    assert bound_curve("gilbert_varshamov", 2, 0.5) == 0.0
    assert bound_curve("hamming", 2, 0.5) == pytest.approx(1 - q_entropy(2, 0.25))
    assert bound_curve("hamming", 2, 1.0) == 0.0  # clamped at 0
    with pytest.raises(CodeError):
        bound_curve("elias", 2, 0.5)


# -- Reed-Solomon -------------------------------------------------------------

def test_rs_full_space_and_constants():
    full = reed_solomon(5, 5, 5)
    assert full.card() == 5**5
    assert code_params(full).d == 1
    const = reed_solomon(5, 5, 1)
    assert const.card() == 5
    assert code_params(const).d == 5


def test_rs_meets_singleton_with_equality():
    for q in (5, 7):
        for n in range(2, q + 1):
            for k in range(1, min(n, 4) + 1):
                d = reed_solomon_min_distance(q, n, k)
                assert d == n + 1 - k
                assert F(k, n) + F(d, n) == 1 + F(1, n)


def test_rs_rejects_bad_parameters():
    with pytest.raises(ValueError):
        reed_solomon(5, 6, 2)  # n > q
    with pytest.raises(ValueError):
        reed_solomon(5, 3, 4)  # k > n
    with pytest.raises(ValueError, match="points must be distinct"):
        complexity.parse("rs(5,3,2,001)").value()  # a parsed description


# -- enumeration --------------------------------------------------------------

def test_enumerate_q2_n2():
    e = enumerate_linear_codes(2, 2)
    assert len(e) == 4
    dims = sorted(entry.params.k for entry in e.entries)
    assert dims == [1, 1, 1, 2]


def test_enumerate_dim1_q2_n3():
    e = enumerate_linear_codes(2, 3)
    assert sum(entry.params.k == 1 for entry in e.entries) == 7


def test_enumerate_q3_n1():
    assert len(enumerate_linear_codes(3, 1)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_gaussian_binomials(n):
    def gaussian(n, k, q=2):
        num = den = 1
        for i in range(k):
            num *= q**n - q**i
            den *= q**k - q**i
        return num // den

    expected = sum(gaussian(n, k) for k in range(1, n + 1))
    assert len(enumerate_linear_codes(2, n)) == expected


def test_enumeration_over_pinned_prime_power():
    e = enumerate_linear_codes(4, 2)
    lines = [entry for entry in e.entries if entry.params.k == 1]
    assert len(lines) == 5  # (4^2 - 1) / (4 - 1) lines


def test_enumeration_rejects_unsupported_q():
    from kolmex.fields import FieldError

    with pytest.raises(FieldError):
        enumerate_linear_codes(6, 2)


# -- sampling -----------------------------------------------------------------

def test_sample_empty():
    assert len(sample_codes(2, 4, 4, 0, seed=1)) == 0


def test_sample_deterministic():
    a = sample_codes(2, 10, 16, 25, seed=7)
    b = sample_codes(2, 10, 16, 25, seed=7)
    assert codes.cloud_rows(a) == codes.cloud_rows(b)
    assert a.provenance == b.provenance


def test_sample_rejects_oversize():
    with pytest.raises(CodeError):
        sample_codes(2, 2, 5, 1, seed=1)


def test_sample_rejects_word_space_past_2_64():
    with pytest.raises(CodeError, match=rf"q\^n = {2**80} exceeds .*2\^64"):
        sample_codes(2, 80, 4, 1, seed=1)
    with pytest.raises(CodeError, match=rf"q\^n = {3**41} exceeds"):
        sample_codes(3, 41, 4, 1, seed=1)


def test_sampled_codes_satisfy_singleton_exactly():
    ensemble = sample_codes(3, 6, 9, 40, seed=11)
    for entry in ensemble.entries:
        p = entry.params
        assert p.rate + p.delta <= 1 + F(1, p.n)
        assert entry.complexity >= 2


@st.composite
def sample_configs(draw):
    """(q, n, size, count, seed) with q**n <= 2**40, so words of more than
    one 12-bit chunk occur for every q."""
    q = draw(st.sampled_from([2, 3, 4, 7, 8, 36]))
    n = draw(st.integers(1, floor_log(q, 1 << 40)))
    size = draw(st.integers(2, min(q**n, 70)))
    return q, n, size, draw(st.integers(1, 3)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(sample_configs())
def test_sampled_codes_match_the_tuple_path(config):
    q, n, size, count, seed = config
    ensemble = sample_codes(q, n, size, count, seed)
    ref = sampled_codes_ref(q, n, size, count, seed)
    got = [(e.complexity, e.code.canonical_string(), e.params) for e in ensemble.entries]
    assert got == sorted(
        (complexity.DEFAULT_PROXY.proxy_complexity(code_words),
         code_words.canonical_string(), params)
        for _, code_words, params in ref)
    by_string = {e.code.canonical_string(): e.code for e in ensemble.entries}
    for words, code_words, _ in ref:
        sampled = by_string[code_words.canonical_string()]
        built = Code(q, n, pack_words(words, q))
        assert built == sampled and hash(built) == hash(sampled)
        assert sampled.sorted_words() == words
    # LZW on random bytes whose table passes the 512, 1024 and 2048 widths
    gen = SplitMix64(seed)
    data = bytes(gen.below(256) for _ in range(3000 + size))
    payload, n_codes = complexity.lzw_compress(data)
    assert 256 + n_codes > 2049
    assert (payload, n_codes) == lzw_compress_ref(data)


def test_packed_words_are_checked():
    for q, n, packed in [(2, 3, [1, 1]), (2, 3, [5, 2]), (2, 3, [1, 8]),
                         (2, 3, [-1, 2]), (3, 2, [0, 3]), (3, 2, [0, 12]),
                         (7, 3, [0, 7 << 3]), (2, 3, [1])]:
        with pytest.raises(CodeError):
            Code(q, n, packed)
    code = Code(3, 2, [0b0010, 0b1000])
    assert code.sorted_words() == [(0, 2), (2, 0)]
    assert code.to_code_words().words == ("02", "20")
    code = Code(36, 3, sorted(pack_words([(0, 1, 35), (35, 0, 2), (9, 10, 0)], 36)))
    assert code.to_code_words().words == ("01z", "9a0", "z02")


@pytest.mark.parametrize("q", [1, 37])
def test_q_outside_the_symbol_table_is_refused(q):
    with pytest.raises(CodeError, match=r"2 <= q <= 36"):
        Code(q, 2, [0, 1])


def test_ensemble_sorted_by_complexity():
    ensemble = sample_codes(2, 8, 8, 30, seed=2)
    keys = [
        (e.complexity, e.code.canonical_string()) for e in ensemble.entries
    ]
    assert keys == sorted(keys)


# -- partition sum ------------------------------------------------------------

def _one_code_ensemble(delta_num, n=4):
    # distance delta_num on block length n with exactly two words
    word = tuple([1] * delta_num + [0] * (n - delta_num))
    c = Code(2, n, pack_words([(0,) * n, word], 2))
    return codes.CodeEnsemble.build([c], {"kind": "fixture"})


def test_partition_single_term_formula():
    ensemble = _one_code_ensemble(3, 4)
    entry = ensemble.entries[0]
    beta = 0.75
    delta = float(entry.params.delta)
    expected = float(entry.complexity) ** (-beta + delta - 1.0)
    z, terms = partition_sum(ensemble, entry.params.rate, F(0), beta, eta=0.0)
    assert terms == 1
    assert z == pytest.approx(expected, rel=1e-12)


def test_partition_empty_selection():
    ensemble = _one_code_ensemble(3, 4)
    z, terms = partition_sum(ensemble, F(9, 10), F(0), 1.0, eta=0.0)
    assert (z, terms) == (0.0, 0)


def test_partition_monotone_in_beta_and_delta():
    ensemble = sample_codes(2, 6, 4, 60, seed=5)
    rate = F(2, 6)
    betas = [0.0, 0.1, 0.5, 1.0, 2.0]
    zs = [partition_sum(ensemble, rate, F(1, 6), b, eta=0.02)[0] for b in betas]
    for lo, hi in zip(zs, zs[1:]):
        assert hi <= lo * (1 + 1e-12)
    deltas = [F(0), F(1, 6), F(2, 6), F(3, 6), F(1)]
    zs = [partition_sum(ensemble, rate, d, 0.3, eta=0.02)[0] for d in deltas]
    for lo, hi in zip(zs, zs[1:]):
        assert hi <= lo * (1 + 1e-12)


@pytest.mark.parametrize("beta", [-5.0, -1e307], ids=["exp_raises", "exponent_inf"])
def test_partition_overflow_is_a_code_error_naming_beta(beta):
    ensemble = sample_codes(2, 6, 4, 200, seed=3)
    message = re.escape(f"Z overflows binary64 at beta={beta:.17g}")
    with pytest.raises(CodeError, match=message + "$"):
        partition_sum(ensemble, F(1, 3), F(1, 6), beta, eta=0.01)
    with pytest.raises(CodeError, match="Z overflows binary64"):
        codes.sweep_rows(ensemble, F(1, 3), F(1, 6), [1.0, beta])
    assert partition_sum(ensemble, F(1, 3), F(1, 6), -4.0, eta=0.01)[0] > 0


def test_partition_rejects_negative_eta():
    with pytest.raises(CodeError):
        partition_sum(_one_code_ensemble(2), F(1, 2), F(0), 1.0, eta=-1)
    with pytest.raises(CodeError, match="eta must be >= 0"):
        codes.sweep_rows(_one_code_ensemble(2), F(1, 2), F(0), [1.0], eta=-1e-9)


@st.composite
def sweep_cases(draw):
    """A sampled ensemble, a selection (eta = 0, empty selections and
    delta_min = 1 among them) and a beta grid."""
    n = draw(st.integers(2, 6))
    size = draw(st.integers(2, min(8, 2**n)))
    ensemble = sample_codes(2, n, size, draw(st.integers(0, 12)), draw(st.integers(0, 2**32)))
    rate = draw(st.sampled_from([F(k, n) for k in range(n + 1)] + [F(9, 10)]))
    delta_min = draw(st.sampled_from([F(0), F(1, n), F(1, 2), F(1)]))
    eta = draw(st.sampled_from([0.0, 0.01, 0.2, 1.0]))
    betas = draw(st.lists(st.floats(-3, 3), max_size=6))
    return ensemble, rate, delta_min, betas, eta


def _per_beta_rows(ensemble, rate, delta_min, betas, eta):
    rows = ["R,Delta,beta,Z,terms"]
    for beta in betas:
        z, terms = partition_sum(ensemble, rate, delta_min, beta, eta)
        assert (z, terms) == partition_sum_ref(ensemble, rate, delta_min, beta, eta)
        rows.append(f"{codes.fmt17(float(rate))},{codes.fmt17(float(delta_min))},"
                    f"{codes.fmt17(beta)},{codes.fmt17(z)},{terms}")
    return rows


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_sweep_rows_match_per_beta_partition_sums(case):
    assert codes.sweep_rows(*case) == _per_beta_rows(*case)


FIXTURE_WORDS = [  # (R, delta) of each code at n = 4
    ["0000", "1111"],                                   # (1/4, 1)
    ["0101", "1010"],                                   # (1/4, 1)
    ["0000", "1111", "0011"],                           # (1/4, 1/2)
    ["0000", "0111", "1011", "1101"],                   # (1/2, 1/2)
    ["0000", "0111", "1011", "1101", "1110"],           # (1/2, 1/2)
    ["0000", "0111", "1011", "1101", "1111"],           # (1/2, 1/4)
]


@pytest.mark.parametrize("rate, delta_min, eta, terms", [
    (F(1, 2), F(0), 0.0, 3),      # eta = 0: rate exactly 1/2
    (F(9, 10), F(0), 0.05, 0),    # empty selection: every Z is 0
    (F(1, 4), F(1), 0.0, 2),      # delta_min = 1: d = n only
])
def test_sweep_rows_on_fixed_selections(rate, delta_min, eta, terms):
    ensemble = codes.CodeEnsemble.build(
        [Code(2, 4, sorted(pack_words([tuple(map(int, w)) for w in ws], 2)))
         for ws in FIXTURE_WORDS], {"kind": "fixture"})
    betas = [0.0, 0.5, 1.0, 2.5]
    rows = codes.sweep_rows(ensemble, rate, delta_min, betas, eta)
    assert rows == _per_beta_rows(ensemble, rate, delta_min, betas, eta)
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == [str(terms)] * len(betas)
    assert (float(rows[1].split(",")[3]) == 0.0) == (terms == 0)


# -- CSV schemas --------------------------------------------------------------

def test_cloud_schema_columns():
    ensemble = sample_codes(2, 5, 4, 3, seed=9)
    rows = codes.cloud_rows(ensemble)
    assert rows[0] == "q,n,size,k,d,R,delta,K_bits"
    first = rows[1].split(",")
    assert len(first) == 8
    assert first[0] == "2" and first[1] == "5" and first[2] == "4"


def test_sweep_schema_columns():
    ensemble = sample_codes(2, 5, 4, 3, seed=9)
    rows = codes.sweep_rows(ensemble, F(2, 5), F(1, 5), [0.0, 1.0])
    assert rows[0] == "R,Delta,beta,Z,terms"
    assert len(rows) == 3
    assert all(len(r.split(",")) == 5 for r in rows[1:])
