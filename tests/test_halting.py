from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from kolmex.halting import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    HaltingError,
    PartialFunction,
    RationalFunction,
    WindowExhausted,
    cantor_pair,
    cantor_unpair,
    classify_orbit,
    conjugate,
    decode_pair,
    encode_pair,
    fixed_point_closed_form,
    integer_window_order,
    lift_to_permutation,
    phi_partial,
    unzigzag,
    zigzag,
)

F = Fraction


def table_function(mapping: dict) -> PartialFunction:
    """The transparent partial function with the given finite graph."""
    return PartialFunction(lambda y, fuel: mapping.get(y), lambda y: y in mapping, "table")


def sum_at_one(series) -> Fraction:
    """A PhiSeries' partial sum at z = 1."""
    return series.constant + sum((c for _, c in series.terms), F(0))


def orbit(ck, rank: int, steps: int) -> list[int]:
    """rank and its first `steps` images under a conjugated permutation."""
    out = [rank]
    for _ in range(steps):
        out.append(ck(out[-1]))
    return out


def evaluate(rf: RationalFunction, z: Fraction) -> Fraction:
    num = sum(c * z**i for i, c in enumerate(rf.num))
    den = sum(c * z**i for i, c in enumerate(rf.den))
    return num / den


# -- pinned encodings -----------------------------------------------------------

def test_zigzag_pinned():
    assert [zigzag(n) for n in range(7)] == [0, 1, -1, 2, -2, 3, -3]


@given(st.integers(0, 10_000))
def test_zigzag_round_trip(n):
    assert unzigzag(zigzag(n)) == n


@given(st.integers(-5000, 5000))
def test_unzigzag_round_trip(z):
    assert zigzag(unzigzag(z)) == z


def test_pairing_is_a_bijection():
    codes = sorted(
        encode_pair(a, b) for a in range(20) for b in range(20)
        if cantor_pair(a, b) + 1 <= 150
    )
    assert codes == list(range(1, 151))


@given(st.integers(0, 300), st.integers(0, 300))
def test_pairing_round_trip(m, n):
    assert cantor_unpair(cantor_pair(m, n)) == (m, n)
    assert decode_pair(encode_pair(m, n)) == (m, n)


# -- lifting --------------------------------------------------------------------

def test_empty_function_gives_identity():
    lifted = lift_to_permutation(PartialFunction.empty())
    for pair in [(0, 0), (3, 1), (-2, 5), (1, -4)]:
        assert lifted.tau(pair) == pair
        assert lifted.is_fixed(pair) is True


def test_identity_function_never_fixes_domain_points():
    lifted = lift_to_permutation(PartialFunction.identity())
    assert lifted.is_fixed((7, 0)) is True  # y = * stays fixed
    for zy in [1, -1, 2, -2, 3, -3]:
        assert lifted.is_fixed((7, zy)) is False


def test_evens_fixed_points_characterized():
    lifted = lift_to_permutation(PartialFunction.on_evens())
    for y_label in range(1, 40):
        fixed = lifted.is_fixed((5, zigzag(y_label)))
        assert fixed == (y_label % 2 == 1)


def test_fixed_point_characterization_window():
    # fixed points of tau_f are exactly pairs with y outside D(f),
    # swept over roughly 10^3 pairs for several transparent functions
    functions = [
        PartialFunction.empty(),
        PartialFunction.identity(),
        PartialFunction.on_evens(),
        table_function({1: 5, 2: 9, 7: 1}),
    ]
    labels = range(0, 32)
    for f in functions:
        lifted = lift_to_permutation(f)
        for x_label in labels:
            for y_label in labels:
                pair = (zigzag(x_label), zigzag(y_label))
                in_domain = y_label > 0 and f.domain(y_label)
                assert lifted.is_fixed(pair) == (not in_domain)


def test_tau_is_bijective_on_a_window():
    lifted = lift_to_permutation(table_function({1: 3, 2: 1, 3: 2}))
    window = [(x, y) for x in range(-6, 7) for y in [zigzag(l) for l in range(4)]]
    images = [lifted.tau(p) for p in window]
    assert len(set(images)) == len(window)
    for (zx, zy), (ix, iy) in zip(window, images):
        assert iy == zy  # second coordinate untouched


def test_opaque_mode_reports_unknown():
    slow = PartialFunction(
        compute=lambda y, fuel: y if fuel > 100 else None, domain=None
    )
    lifted = lift_to_permutation(slow, fuel=10)
    assert lifted.shift(zigzag(4)) is None
    assert lifted.tau((0, zigzag(4))) is None
    assert lifted.is_fixed((0, zigzag(4))) is None


# -- conjugation ------------------------------------------------------------------

ORDER10 = integer_window_order(10)  # the order of 1..10 is the natural one


def test_conjugation_on_natural_window_is_identity_like():
    perm = {1: 2, 2: 3, 3: 1, 4: 4}
    ck = conjugate(perm, ORDER10)
    assert [ck(r) for r in (1, 2, 3, 4)] == [2, 3, 1, 4]


def test_fixed_points_transport():
    perm = {5: 5, 1: 2, 2: 1}
    ck = conjugate(perm, ORDER10)
    assert ck(ORDER10.rank_of(5)) == ORDER10.rank_of(5)


def test_orbit_lengths_preserved():
    perm = {1: 2, 2: 3, 3: 4, 4: 1, 5: 6, 6: 5}
    ck = conjugate(perm, ORDER10)
    seq = orbit(ck, 1, 4)
    assert seq[0] == seq[4] and len(set(seq[:4])) == 4
    seq2 = orbit(ck, 5, 2)
    assert seq2[0] == seq2[2] and seq2[0] != seq2[1]


def test_window_exhaustion_raises():
    perm = {1: 1000}
    ck = conjugate(perm, ORDER10)
    with pytest.raises(WindowExhausted):
        ck(1)
    with pytest.raises(WindowExhausted):
        ck(999)


def test_outside_domain_raises():
    ck = conjugate({1: 1}, ORDER10)
    with pytest.raises(HaltingError):
        ck(ORDER10.rank_of(7))


# -- the series -------------------------------------------------------------------

def test_phi_constant_term_only():
    ck = conjugate({n: n for n in range(1, 11)}, ORDER10)
    s = phi_partial(5, ck, 0)
    assert s.constant == F(1, 25) and s.terms == ()


def test_phi_fixed_point_all_coefficients_equal():
    ck = conjugate({n: n for n in range(1, 11)}, ORDER10)
    s = phi_partial(4, ck, 9)
    assert s.constant == F(1, 16)
    assert all(c == F(1, 16) for _, c in s.terms)
    exps = [e for e, _ in s.terms]
    assert sorted(exps) == list(range(1, 10))  # K is a bijection on the window


def test_phi_coefficients_positive_exponents_distinct():
    perm = {n: n % 10 + 1 for n in range(1, 11)}  # the 10-cycle
    ck = conjugate(perm, ORDER10)
    s = phi_partial(1, ck, 9)
    assert all(c > 0 for _, c in s.terms)
    assert len({e for e, _ in s.terms}) == 9


def test_phi_window_guard():
    ck = conjugate({n: n for n in range(1, 11)}, ORDER10)
    with pytest.raises(WindowExhausted):
        phi_partial(1, ck, 50)


def test_fixed_point_closed_form_exact():
    ck = conjugate({n: n for n in range(1, 11)}, ORDER10)
    rf = fixed_point_closed_form(3, ck)
    assert rf == RationalFunction((F(1, 9),), (F(1), F(-1)))
    # geometric partial sums converge to it from below at z < 1
    s = phi_partial(3, ck, 9)
    z = F(1, 2)
    partial = s.constant + sum(c * z**e for e, c in s.terms)
    assert partial < evaluate(rf, z)
    assert evaluate(rf, z) == F(1, 9) / (1 - z)


def test_fixed_point_closed_form_requires_certificate():
    ck = conjugate({1: 2, 2: 1}, ORDER10)
    with pytest.raises(HaltingError):
        fixed_point_closed_form(1, ck)


def test_finite_orbit_partial_sums_grow_linearly():
    ck = conjugate({n: n for n in range(1, 11)}, ORDER10)
    sums = [sum_at_one(phi_partial(2, ck, n)) for n in range(0, 10)]
    diffs = {b - a for a, b in zip(sums, sums[1:])}
    assert diffs == {F(1, 4)}  # terms bounded below: linear growth


def test_infinite_orbit_partial_sums_bounded():
    # sigma_f from f = identity, start (1, 1): encoded orbit grows, and
    # partial sums at z = 1 stay below the empirical window constant.
    # sigma_f is tau_f on D(sigma_f), and tau_f keeps y, so the orbit of a
    # domain point never leaves D(sigma_f): conjugating tau_f is enough
    lifted = lift_to_permutation(PartialFunction.identity())
    order = integer_window_order(600)
    start_pair = (zigzag(1), zigzag(1))
    assert not lifted.is_fixed(start_pair)
    k = order.rank_of(lifted.encode(start_pair))
    ck = conjugate(lifted.tau_zplus, order)
    n_terms = 12
    series = phi_partial(k, ck, n_terms)
    iterates = orbit(ck, k, n_terms)[1:]
    ratios = [
        F(order.rank_of(n) ** 2, it**2) for n, it in zip(range(1, n_terms + 1), iterates)
    ]
    c = max(ratios)
    basel_partial = sum(F(1, m * m) for m in range(1, n_terms + 1))
    assert sum_at_one(series) <= F(1, k * k) + c * basel_partial


# -- classification ---------------------------------------------------------------

def test_classify_fixed_point():
    lifted = lift_to_permutation(PartialFunction.on_evens())
    report = classify_orbit((1, zigzag(3)), lifted, budget=100)
    assert report.verdict == FINITE
    assert report.certificate["period"] == 1


def test_classify_identity_orbit_infinite():
    lifted = lift_to_permutation(PartialFunction.identity())
    report = classify_orbit((1, 1), lifted, budget=100)
    assert report.verdict == INFINITE
    assert report.certificate["kind"] == "nonzero_shift"


def test_classify_budget_zero():
    lifted = lift_to_permutation(PartialFunction.identity())
    assert classify_orbit((1, 1), lifted, budget=0).verdict == INCONCLUSIVE


def test_classify_table_cycles():
    perm = {1: 2, 2: 3, 3: 1}
    report = classify_orbit(1, perm, budget=50)
    assert report.verdict == FINITE and report.certificate["period"] == 3


def test_opaque_never_certifies():
    opaque = lift_to_permutation(PartialFunction.identity().opaque(), fuel=50)
    report = classify_orbit((1, 1), opaque, budget=200)
    assert report.verdict == INCONCLUSIVE
    opaque_fixed = lift_to_permutation(PartialFunction.on_evens().opaque(), fuel=50)
    report = classify_orbit((1, zigzag(3)), opaque_fixed, budget=200)
    assert report.verdict == INCONCLUSIVE


def test_transparent_suite_no_wrong_answers():
    # 20 transparent instances with known orbit structure
    cases = []
    for y in (1, 3, 5, 7, 9):
        cases.append(((0, zigzag(y)), PartialFunction.on_evens(), FINITE))
        cases.append(((0, zigzag(2 * y)), PartialFunction.on_evens(), INFINITE))
    for y in (1, 2, 3, 4, 5):
        cases.append(((1, zigzag(y)), PartialFunction.identity(), INFINITE))
        cases.append(((1, zigzag(y)), PartialFunction.empty(), FINITE))
    assert len(cases) == 20
    for pair, f, expected in cases:
        report = classify_orbit(pair, lift_to_permutation(f), budget=10_000)
        assert report.verdict == expected, (pair, f.name)


def test_report_json_fields():
    lifted = lift_to_permutation(PartialFunction.on_evens())
    report = classify_orbit((1, zigzag(3)), lifted, budget=10)
    import json

    doc = json.loads(report.to_json())
    assert set(doc) == {"point", "verdict", "certificate", "budget_used",
                        "proxy_version"}
    assert doc["proxy_version"] == "proxy-v1"


def _cantor_unpair_by_search(c):
    """The linear search cantor_unpair replaced, kept as its oracle."""
    w = 0
    while (w + 1) * (w + 2) // 2 <= c:
        w += 1
    n = c - w * (w + 1) // 2
    return w - n, n


def test_cantor_unpair_matches_search():
    for c in range(100_001):
        assert cantor_unpair(c) == _cantor_unpair_by_search(c), c


@given(st.integers(0, 10**20), st.integers(0, 10**20))
def test_cantor_round_trip_near_1e40(m, n):
    assert cantor_unpair(cantor_pair(m, n)) == (m, n)
    c = 10**40 + m
    assert cantor_pair(*cantor_unpair(c)) == c


def test_cantor_unpair_rejects_negative():
    with pytest.raises(HaltingError):
        cantor_unpair(-1)
