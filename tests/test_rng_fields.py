import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from code_oracles import MASK64, splitmix64_ref
from kolmex import fields
from kolmex.rng import SplitMix64


def test_stream_is_pinned():
    gen = SplitMix64(0)
    first = [gen.next_u64() for _ in range(3)]
    # pinned forever; a change here means the provenance contract broke
    assert first == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_same_seed_same_stream():
    a, b = SplitMix64(1234), SplitMix64(1234)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


SEEDS = st.one_of(st.sampled_from([0, MASK64]), st.integers(0, MASK64))
# 1024 lanes make one chunk; counts reach past eight chunks
COUNTS = st.one_of(st.integers(0, 70), st.integers(1020, 1030), st.integers(0, 9000))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.lists(COUNTS, min_size=1, max_size=3))
@example(0, [2])
@example(MASK64, [1024, 1025])
@example(0, [0, 8193, 1])
def test_lane_batches_match_the_one_value_stream(seed, counts):
    """Back-to-back batches give the stream, and leave the state, that
    mixing one value at a time gives."""
    gen, state = SplitMix64(seed), seed
    for count in counts:
        want, state = splitmix64_ref(state, count)
        assert gen.next_u64s(count) == want
        assert gen._state == state


@given(st.integers(0, 2**64 - 1), st.integers(1, 10_000))
def test_below_in_range(seed, n):
    assert 0 <= SplitMix64(seed).below(n) < n


@given(st.integers(0, 2**32), st.integers(1, 60), st.integers(0, 60))
def test_sample_sorted(seed, n, k):
    k = min(k, n)
    out = SplitMix64(seed).sample_sorted(n, k)
    assert len(out) == k == len(set(out))
    assert out == sorted(out)
    assert all(0 <= v < n for v in out)


def _sample_sorted_ref(gen, n, k):
    """sample_sorted as one below() call per draw."""
    if 2 * k > n:
        drop = set(_sample_sorted_ref(gen, n, n - k))
        return [v for v in range(n) if v not in drop]
    seen = set()
    while len(seen) < k:
        seen.add(gen.below(n))
    return sorted(seen)


def test_batched_draws_match_per_call_stream():
    for seed in range(40):
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert a.next_u64s(7) == [b.next_u64() for _ in range(7)]
        assert a.next_u64s(0) == []
        assert a.next_u64() == b.next_u64()
        for n in (1, 2, 3, 5, 8, 64, 100, 1000, 4096):
            # k = 0, k = n and both sides of the complement branch 2k > n
            for k in sorted({0, 1, n // 3, n // 2, n // 2 + 1, n - 1, n}):
                got = a.sample_sorted(n, k)
                assert got == _sample_sorted_ref(b, n, k), (seed, n, k)
                assert a.next_u64() == b.next_u64()  # same draws consumed


def test_sample_rejects_oversize():
    with pytest.raises(ValueError):
        SplitMix64(1).sample_sorted(4, 5)


def test_population_limited_to_2_64():
    for n in (2**64 + 1, 2**80):
        with pytest.raises(ValueError, match=r"at most 2\^64 values"):
            SplitMix64(1).below(n)
        with pytest.raises(ValueError, match=r"at most 2\^64 values"):
            SplitMix64(1).sample_sorted(n, 3)
    # at the limit a draw is the raw 64-bit output, as before
    a, b = SplitMix64(5), SplitMix64(5)
    assert a.below(2**64) == b.next_u64()
    assert a.sample_sorted(2**64, 3) == sorted(b.next_u64s(3))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    f = fields.field(q)  # construction itself verifies the axioms
    assert f.q == q
    for a in range(1, q):
        assert any(f.mul(a, b) == 1 for b in range(1, q))


def _mod_tables(q, *changes):
    """Addition and multiplication mod q as lists; each (a, b, p) in
    changes sets the products a*b and b*a to p."""
    add = [[(a + b) % q for b in range(q)] for a in range(q)]
    mul = [[(a * b) % q for b in range(q)] for a in range(q)]
    for a, b, p in changes:
        mul[a][b] = mul[b][a] = p
    return add, mul


@pytest.mark.parametrize("q, tables, message", [
    (3, (_mod_tables(3)[0], [[0] * 3] * 3), "identity axiom fails at 1"),
    (2, ([[0, 0], [1, 0]], _mod_tables(2)[1]), r"commutativity fails at \(0,1\)"),
    (3, ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], _mod_tables(3)[1]),
     "additive associativity fails"),
    (4, _mod_tables(4, (3, 3, 0)), "multiplicative associativity fails"),
    (3, _mod_tables(3, (2, 2, 2)), "distributivity fails"),
    (2, ([[0, 1], [1, 1]], [[0, 0], [0, 1]]), "1 has no additive inverse"),
    (4, _mod_tables(4), "2 has no multiplicative inverse"),
], ids=["identity", "commutativity", "add-assoc", "mul-assoc", "distributivity",
        "add-inverse", "mul-inverse"])
def test_field_refuses_a_corrupted_table(q, tables, message):
    with pytest.raises(fields.FieldError, match=message):
        fields.Field(q, *tables)


def test_unsupported_prime_powers_rejected():
    for q in (6, 10, 12, 25, 27):
        with pytest.raises(fields.FieldError):
            fields.field(q)


def test_rs_wordset_counts_and_distance():
    f = fields.field(5)
    words = fields.rs_wordset(f, 5, 1, range(5))
    assert len(words) == 5
    # constant words differ everywhere
    ws = sorted(words)
    for i, a in enumerate(ws):
        for b in ws[i + 1 :]:
            assert sum(1 for x, y in zip(a, b) if x != y) == 5


def rs_wordset_ref(f, n, k, points):
    """Evaluation vectors by an odometer over coefficient vectors."""
    rows = fields.rs_evaluation_rows(f, n, k, points)
    words = set()
    coeffs = [0] * k
    while True:
        words.add(tuple(_dot_ref(f, coeffs, [row[j] for row in rows]) for j in range(n)))
        i = 0
        while i < k:
            coeffs[i] += 1
            if coeffs[i] < f.q:
                break
            coeffs[i] = 0
            i += 1
        else:
            break
    return frozenset(words)


def _dot_ref(f, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = f.add(acc, f.mul(a, b))
    return acc


def row_space_ref(f, rows, n):
    """Row space by an odometer over coefficient vectors of arbitrary rows."""
    words = set()
    k = len(rows)
    coeffs = [0] * k
    while True:
        word = []
        for j in range(n):
            acc = 0
            for c, row in zip(coeffs, rows):
                if c:
                    acc = f.add(acc, f.mul(c, row[j]))
            word.append(acc)
        words.add(tuple(word))
        i = 0
        while i < k:
            coeffs[i] += 1
            if coeffs[i] < f.q:
                break
            coeffs[i] = 0
            i += 1
        else:
            break
    return frozenset(words)


@st.composite
def row_sets(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), min_size=k, max_size=k))
    return q, n, tuple(rows)


def min_weight_ref(f, rows, n):
    """Least weight over combinations with first nonzero coefficient 1, by an
    odometer over the coefficients after the leading row."""
    k = len(rows)
    best = n
    for lead in range(k):
        free = k - lead - 1
        tail = [0] * free
        while True:
            weight = 0
            for j in range(n):
                acc = rows[lead][j]
                for i, c in enumerate(tail):
                    if c:
                        acc = f.add(acc, f.mul(c, rows[lead + 1 + i][j]))
                if acc:
                    weight += 1
            best = min(best, weight)
            i = 0
            while i < free:
                tail[i] += 1
                if tail[i] < f.q:
                    break
                tail[i] = 0
                i += 1
            else:
                break
    return best


@given(row_sets())
def test_row_space_matches_reference(case):
    q, n, rows = case
    f = fields.field(q)
    assert fields.row_space(f, rows, n) == row_space_ref(f, rows, n)
    assert fields.min_weight_of_rowspace(f, rows, n) == min_weight_ref(f, rows, n)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_rs_wordset_matches_reference(q):
    f = fields.field(q)
    for n in range(1, min(q, 6) + 1):
        for k in range(1, min(n, 3) + 1):
            points = tuple(range(q - n, q))
            assert fields.rs_wordset(f, n, k, points) == rs_wordset_ref(f, n, k, points)


def test_min_weight_matches_direct_scan():
    f = fields.field(7)
    rows = fields.rs_evaluation_rows(f, 7, 3, range(7))
    weight_scan = fields.min_weight_of_rowspace(f, rows, 7)
    words = fields.rs_wordset(f, 7, 3, range(7))
    direct = min(sum(1 for s in w if s) for w in words if any(w))
    assert weight_scan == direct == 5


def test_rs_rejects_bad_parameters():
    f = fields.field(5)
    with pytest.raises(ValueError):
        fields.rs_evaluation_rows(f, 5, 6, range(5))  # k > n
    with pytest.raises(ValueError):
        fields.rs_evaluation_rows(f, 6, 2, range(6))  # n > q
    with pytest.raises(ValueError):
        fields.rs_evaluation_rows(f, 3, 2, [0, 0, 1])  # repeated points
