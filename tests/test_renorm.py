import contextlib
import io
import json
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from kolmex import cli, rational
from kolmex.hopf import (
    UNIT_MONOMIAL,
    HopfElement,
    antipode,
    coproduct_of_monomial,
    enumerate_connected_oriented,
    generator_vertices,
    is_primitive,
)
from kolmex.renorm import (
    DEFAULT_TRUNC,
    Character,
    GMap,
    MAX_TRUNC,
    MSElement,
    RenormError,
    TruncationError,
    birkhoff,
    character_from_json,
    character_to_json,
    conv_inverse,
    convolution,
    value_json,
    _new,
    _ratio_text,
)
from kolmex.rational import exact, shown
from kolmex.rng import SplitMix64

F = Fraction
VERTEX = "og:1|-.0.0.0|"  # the bare vertex, a generator

FAMILY = enumerate_connected_oriented(3, 4)
PRIMITIVES = [l for l in FAMILY if is_primitive(l)]
NON_PRIMITIVE = [l for l in FAMILY if not is_primitive(l)]


def random_ms(gen, polar_depth=3, regular_degree=4):
    coeffs = {}
    for p in range(-polar_depth, regular_degree + 1):
        num, den = gen.fraction_pair(9, 6)
        coeffs[p] = F(num, den)
    return MSElement.from_coeffs(coeffs)


def unit_map(degree_bound, trunc=DEFAULT_TRUNC):
    """e = unit . counit: 1 on the unit monomial, 0 elsewhere."""
    return GMap(
        lambda mono: MSElement.one(trunc) if mono == UNIT_MONOMIAL
        else MSElement.zero(trunc),
        degree_bound, trunc, "e",
    )


def random_character(seed, degree=4):
    gen = SplitMix64(seed)
    return Character({l: random_ms(gen) for l in FAMILY}, degree)


MONOMIALS = (
    [UNIT_MONOMIAL]
    + [(l,) for l in FAMILY]
    + [tuple(sorted((a, b))) for a in FAMILY[:8] for b in FAMILY[:8]]
)


# -- MSElement ------------------------------------------------------------------

def test_polar_split_examples():
    x = MSElement.from_coeffs({-2: F(1), 0: F(3), 1: F(1)})
    polar, regular = x.polar_part(), x.regular_part()
    assert polar == MSElement.from_coeffs({-2: F(1)})
    assert regular == MSElement.from_coeffs({0: F(3), 1: F(1)})
    assert polar + regular == x

    y = MSElement.from_coeffs({0: F(2), 5: F(7)})
    assert (y.polar_part(), y.regular_part()) == (MSElement.zero(), y)

    z = MSElement.from_coeffs({-1: F(4), -3: F(2)})
    assert (z.polar_part(), z.regular_part()) == (z, MSElement.zero())


def test_split_parts_share_no_monomial():
    gen = SplitMix64(1)
    for _ in range(20):
        x = random_ms(gen)
        polar, regular = x.polar_part(), x.regular_part()
        assert polar.is_polar_only()
        assert regular.is_regular_only()
        assert polar + regular == x


small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def ms_elements(draw):
    coeffs = {}
    for p in range(-2, 4):
        coeffs[p] = draw(small)
    return MSElement.from_coeffs(coeffs, trunc=16)


@given(ms_elements(), ms_elements(), ms_elements())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert lhs.polar == rhs.polar
    order = min(lhs.valid_order, rhs.valid_order)
    assert lhs.eq_through(rhs, order)
    d = a * (b + c)
    e = a * b + a * c
    assert d.eq_through(e, min(d.valid_order, e.valid_order))


def test_multiplication_window_shrinks_by_polar_depth():
    a = MSElement.from_coeffs({-2: F(1), 0: F(1)}, trunc=16)
    b = MSElement.from_coeffs({-3: F(1), 1: F(1)}, trunc=16)
    prod = a * b
    assert prod.valid_order == 16 - 3  # partner's polar depth consumes orders
    assert prod.coeff(-5) == 1


def test_comparison_beyond_window_raises():
    a = MSElement.from_coeffs({0: F(1)}, trunc=4)
    b = MSElement.from_coeffs({0: F(1)}, trunc=16)
    with pytest.raises(TruncationError):
        a.eq_through(b, 10)
    with pytest.raises(TruncationError):
        a.coeff(9)


def test_exhausted_window_raises_on_multiply():
    a = MSElement.from_coeffs({-3: F(1)}, trunc=2)
    b = MSElement.from_coeffs({-3: F(1), 0: F(1)}, trunc=2)
    with pytest.raises(TruncationError):
        a * b


def test_polar_subalgebra_closed():
    a = MSElement.from_coeffs({-1: F(2)})
    b = MSElement.from_coeffs({-2: F(3)})
    assert (a * b).is_polar_only()
    assert (a * b).coeff(-3) == 6


def test_zero_factor_keeps_full_window():
    z = MSElement.zero(16)
    deep = MSElement.from_coeffs({-3: F(1)}, trunc=4)
    assert (z * deep).valid_order == 16


# -- convolution ------------------------------------------------------------------

def test_identity_is_convolution_unit():
    phi = random_character(7)
    e = unit_map(4)
    left = convolution(e, phi)
    right = convolution(phi, e)
    for m in MONOMIALS:
        assert left(m) == phi(m) == right(m)


def test_convolution_on_primitives_is_sum():
    phi = random_character(8)
    psi = random_character(9)
    conv = convolution(phi, psi)
    one = MSElement.one()
    for l in PRIMITIVES:
        # phi(x) psi(1) + phi(1) psi(x) with unit values = 1
        assert conv((l,)) == phi((l,)) + psi((l,))


def test_inverse_identity():
    e = unit_map(4)
    inv = conv_inverse(e)
    for m in MONOMIALS:
        assert inv(m) == e(m)


def test_inverse_on_primitives_negates():
    phi = random_character(10)
    inv = conv_inverse(phi)
    for l in PRIMITIVES:
        assert inv((l,)) == -phi((l,))


def test_inverse_two_step_formula():
    # exact for generators whose proper cuts split into primitives, i.e.
    # two-vertex generators: phi^-1(x) = -phi(x) + sum phi(x') phi(x'')
    from kolmex.hopf import reduced_coproduct_of_monomial

    phi = random_character(11)
    inv = conv_inverse(phi)
    two_vertex = [l for l in NON_PRIMITIVE if generator_vertices(l) == 2]
    assert two_vertex
    for label in two_vertex:
        expected = -phi((label,))
        for (l, r), c in reduced_coproduct_of_monomial((label,)).items():
            expected = expected + c * (phi(l) * phi(r))
        got = inv((label,))
        order = min(got.valid_order, expected.valid_order)
        assert got.polar == expected.polar and got.eq_through(expected, order)


def test_convolution_inverse_round_trip():
    phi = random_character(12)
    both = convolution(phi, conv_inverse(phi))
    e = unit_map(4)
    for m in MONOMIALS:
        got = both(m)
        want = e(m)
        assert got.polar == want.polar
        assert got.eq_through(want, min(got.valid_order, want.valid_order, 8))


def test_degree_bound_enforced():
    from kolmex.hopf import generator_degree

    phi = random_character(13, degree=2)
    label = next(l for l in FAMILY if generator_degree(l) == 4)
    with pytest.raises(RenormError):
        phi((label,))


# -- Birkhoff / BPHZ ---------------------------------------------------------------

def test_primitive_example():
    values = {l: MSElement.zero() for l in FAMILY}
    tau = PRIMITIVES[0]
    a = F(9, 2)
    values[tau] = MSElement.from_coeffs({-1: F(1), 0: a})
    phi = Character(values, 4)
    minus, plus = birkhoff(phi)
    assert minus((tau,)) == -MSElement.from_coeffs({-1: F(1)})
    assert plus((tau,)) == MSElement.from_coeffs({0: a})
    # by-hand reconstruction on the primitive: (minus^-1 * plus)(tau)
    recon = convolution(conv_inverse(minus), plus)
    assert recon((tau,)) == phi((tau,))


def test_regular_character_decomposes_trivially():
    values = {l: MSElement.from_coeffs({0: F(2), 2: F(1)}) for l in FAMILY}
    phi = Character(values, 4)
    minus, plus = birkhoff(phi)
    for m in MONOMIALS:
        if m == UNIT_MONOMIAL:
            continue
        assert minus(m) == MSElement.zero()
        assert plus(m) == phi(m)


def test_containments():
    phi = random_character(14)
    minus, plus = birkhoff(phi)
    for m in MONOMIALS:
        if m == UNIT_MONOMIAL:
            assert minus(m) == MSElement.one()
            continue
        assert minus(m).is_polar_only(), m
        assert plus(m).is_regular_only(), m


def test_reconstruction_exact():
    for seed in (20, 21, 22):
        phi = random_character(seed)
        minus, plus = birkhoff(phi)
        recon = convolution(conv_inverse(minus), plus)
        for m in MONOMIALS:
            got, want = recon(m), phi(m)
            assert got.polar == want.polar, m
            assert got.eq_through(want, min(got.valid_order, want.valid_order, 6)), m


def test_multiplicativity_on_primitive_products():
    phi = random_character(23, degree=8)  # pairs reach degree 8
    minus, plus = birkhoff(phi)
    for i, a in enumerate(PRIMITIVES):
        for b in PRIMITIVES[i:]:
            prod = tuple(sorted((a, b)))
            for part in (minus, plus):
                got = part(prod)
                want = part((a,)) * part((b,))
                assert got.polar == want.polar
                assert got.eq_through(want, min(got.valid_order, want.valid_order))


def test_uniqueness_negative():
    # perturbing phi_plus on a generator must break reconstruction
    phi = random_character(24)
    minus, plus = birkhoff(phi)
    bump = MSElement.from_coeffs({1: F(1)})
    label = NON_PRIMITIVE[0]

    def perturbed(mono):
        val = plus(mono)
        return val + bump if mono == (label,) else val

    plus_bad = GMap(perturbed, plus.degree_bound, plus.trunc, "phi+bad")
    recon = convolution(conv_inverse(minus), plus_bad)
    got, want = recon((label,)), phi((label,))
    order = min(got.valid_order, want.valid_order)
    assert not (got.polar == want.polar and got.eq_through(want, order))


# -- JSON ---------------------------------------------------------------------------

def test_character_json_round_trip():
    phi = random_character(30)
    back = character_from_json(character_to_json(phi))
    assert back.degree_bound == phi.degree_bound
    for l in FAMILY:
        assert back((l,)) == phi((l,))
    # values known past the declared truncation are written up to it
    long = Character({VERTEX: MSElement([1], [1] * 20)}, 4, trunc=4)
    back = character_from_json(character_to_json(long)).generator_values[VERTEX]
    assert (back.polar, back.regular) == ((1,), (1,) * 5)


def test_character_json_keeps_short_windows():
    chi = Character({VERTEX: MSElement([], [1, 2, 3])}, 4, trunc=16)
    text = character_to_json(chi)
    assert json.loads(text)["values"][0]["value"]["valid"] == 2
    back = character_from_json(text)
    value = back.generator_values[VERTEX]
    assert value.valid_order == 2
    assert value.regular == (1, 2, 3)
    assert character_to_json(back) == text


def test_character_json_without_valid_keeps_its_meaning():
    doc = {"degree_bound": 4, "truncation": 6, "values": [
        {"graph": VERTEX, "value": {"polar": ["1"], "regular": ["1", "2"]}}]}
    value = character_from_json(json.dumps(doc)).generator_values[VERTEX]
    assert value.valid_order == 6
    assert value.regular == (1, 2, 0, 0, 0, 0, 0)
    # full windows are written without the field, so such files keep their bytes
    full = Character({VERTEX: MSElement([], [1] * 7)}, 4, trunc=6)
    assert '"valid"' not in character_to_json(full)


def test_character_json_valid_pads_to_its_window():
    doc = {"degree_bound": 4, "truncation": 6, "values": [
        {"graph": VERTEX, "value": {"polar": [], "regular": ["1"], "valid": 3}}]}
    value = character_from_json(json.dumps(doc)).generator_values[VERTEX]
    assert value.valid_order == 3
    assert value.regular == (1, 0, 0, 0)


@pytest.mark.parametrize("valid, message", [
    (-1, "values[0].value.valid must be an integer in 0..4, got -1"),
    (5, "values[0].value.valid must be an integer in 0..4, got 5"),
    ("2", "values[0].value.valid must be an integer in 0..4, got '2'"),
    (True, "values[0].value.valid must be an integer in 0..4, got True"),
    (1, "values[0].value.regular has 3 coefficients, more than valid + 1 = 2"),
])
def test_character_json_bad_valid_is_positioned(valid, message):
    doc = {"degree_bound": 4, "truncation": 4, "values": [
        {"graph": VERTEX, "value": {"polar": [], "regular": ["1", "2", "3"], "valid": valid}}]}
    with pytest.raises(RenormError) as info:
        character_from_json(json.dumps(doc))
    assert message in str(info.value)


# -- the integer-numerator kernel against the Fraction reference -------------------

class RefMS:
    """The Fraction-per-coefficient MSElement arithmetic, kept as the oracle
    for the integer-numerator kernel.  `rzero` declares the regular side
    exactly zero at every order (zero(), polar_part(), and what keeps it)."""

    def __init__(self, polar=(), regular=(), rzero=False):
        polar = [F(c) for c in polar]
        while polar and polar[-1] == 0:
            polar.pop()
        self.polar = tuple(polar)
        self.regular = tuple(F(c) for c in regular)
        self.rzero = rzero
        if not self.regular:
            raise TruncationError("element carries no valid regular window")

    @classmethod
    def zero(cls, trunc):
        return cls((), (F(0),) * (trunc + 1), rzero=True)

    @property
    def valid_order(self):
        return len(self.regular) - 1

    def polar_part(self):
        return RefMS(self.polar, (F(0),) * len(self.regular), rzero=True)

    def regular_part(self):
        return RefMS((), self.regular, rzero=self.rzero)

    def __add__(self, other):
        depth = max(len(self.polar), len(other.polar))
        polar = [
            (self.polar[i] if i < len(self.polar) else 0)
            + (other.polar[i] if i < len(other.polar) else 0)
            for i in range(depth)
        ]
        window = min(len(self.regular), len(other.regular))
        regular = [self.regular[j] + other.regular[j] for j in range(window)]
        return RefMS(polar, regular, rzero=self.rzero and other.rzero)

    def __neg__(self):
        return RefMS([-c for c in self.polar], [-c for c in self.regular],
                     rzero=self.rzero)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if (self.rzero and not self.polar) or (other.rzero and not other.polar):
            return RefMS.zero(max(self.valid_order, other.valid_order))
        px, py = len(self.polar), len(other.polar)
        window = min(self.valid_order - py, other.valid_order - px)
        if window < 0:
            raise TruncationError("truncated windows too short for this product")
        acc: dict = {}
        for i, ci in self._items():
            for j, cj in other._items():
                acc[i + j] = acc.get(i + j, F(0)) + ci * cj
        polar = [acc.get(-(i + 1), F(0)) for i in range(px + py)]
        regular = [acc.get(j, F(0)) for j in range(window + 1)]
        return RefMS(polar, regular)

    def __rmul__(self, scalar):
        scalar = F(scalar)
        return RefMS([scalar * c for c in self.polar],
                     [scalar * c for c in self.regular], rzero=self.rzero)

    def accumulate(self, terms):
        acc = self
        for c, x, y in terms:
            acc = acc + c * (x * y)
        return acc

    def _items(self):
        for i, c in enumerate(self.polar):
            yield -(i + 1), c
        for j, c in enumerate(self.regular):
            yield j, c


def same(x: MSElement, ref: RefMS) -> bool:
    """Identical coefficients and identical window, with x in stored form:
    a positive denominator sharing no factor with all numerators, and a
    nonzero deepest polar numerator."""
    stored = (x._den > 0 and gcd(x._den, *x._nums) == 1
              and (x._depth == 0 or x._nums[0] != 0))
    return (stored and x.polar == ref.polar and x.regular == ref.regular
            and x.valid_order == ref.valid_order)


# mostly small numerators with many zeros, so cancellation, trailing polar
# zeros and zero-within-window values all occur
coeff = st.one_of(st.just(F(0)), st.fractions(-6, 6, max_denominator=12))


@st.composite
def element_pairs(draw):
    """(MSElement, RefMS) over the same coefficients; or a declared zero;
    or a regular side that reads zero only within its window."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        trunc = draw(st.integers(0, 8))
        return MSElement.zero(trunc), RefMS.zero(trunc)
    depth = draw(st.integers(0, 4))
    trunc = draw(st.integers(0, 8))
    polar = draw(st.lists(coeff, min_size=depth, max_size=depth))
    regular = ([F(0)] * (trunc + 1) if kind == 1
               else draw(st.lists(coeff, min_size=trunc + 1, max_size=trunc + 1)))
    return MSElement(polar, regular), RefMS(polar, regular)


def _apply(op, x, y, scalar):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "scale":
        return scalar * x
    if op == "neg":
        return -x
    if op == "polar":
        return x.polar_part()
    if op == "acc":  # x and y each in two products, x also the first term
        return x.accumulate([(2, x, y), (1, y, x), (3, y, y)])
    return x.regular_part()


OPS = ["+", "-", "*", "scale", "neg", "polar", "regular", "acc"]


@settings(max_examples=200)
@given(st.lists(element_pairs(), min_size=2, max_size=4),
       st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 20),
                          st.integers(0, 20), st.fractions(-3, 3, max_denominator=5)),
                min_size=1, max_size=8))
def test_integer_kernel_matches_fraction_reference(pool, program):
    """Random programs over elements with mixed windows and polar depths:
    every intermediate has the reference's coefficients and window, and
    the two raise TruncationError on the same steps.  Each element object
    is reused by later steps, in products and sums of other windows."""
    for x, ref in pool:
        assert same(x, ref)
    for op, i, j, scalar in program:
        (x, rx), (y, ry) = pool[i % len(pool)], pool[j % len(pool)]
        try:
            want = _apply(op, rx, ry, scalar)
        except TruncationError:
            with pytest.raises(TruncationError):
                _apply(op, x, y, scalar)
            continue
        got = _apply(op, x, y, scalar)
        assert same(got, want), (op, got, want.polar, want.regular)
        pool.append((got, want))


@settings(max_examples=100)
@given(element_pairs(), element_pairs())
def test_equality_matches_fraction_reference(a, b):
    (x, rx), (y, ry) = a, b
    order = min(x.valid_order, y.valid_order)
    want = rx.polar == ry.polar and rx.regular[:order + 1] == ry.regular[:order + 1]
    assert x.eq_through(y, order) == want
    assert (x == y) == want
    assert x.eq_through(x - y + y, min(order, x.valid_order))


@settings(max_examples=100)
@given(element_pairs(), element_pairs())
def test_product_window_rule(a, b):
    """Every product is valid through min(Vx - Py, Vy - Px); only a declared
    exact zero factor gives max(Vx, Vy)."""
    (x, _), (y, _) = a, b
    vx, vy = x.valid_order, y.valid_order
    declared = [z for z in (x, y) if z._is_exact_zero()]
    if declared:
        assert (x * y).valid_order == max(vx, vy)
        return
    window = min(vx - len(y.polar), vy - len(x.polar))
    if window < 0:
        with pytest.raises(TruncationError):
            x * y
    else:
        assert (x * y).valid_order == window


def test_zero_within_window_does_not_extend_product_window():
    # a and b agree only through t^2 (a's window), so a - b is zero there
    # but unknown beyond; times t^-1 it is known only through t^1
    a = MSElement.from_coeffs({0: F(1), 1: F(2), 2: F(3)}, trunc=2)
    b = MSElement.from_coeffs({0: F(1), 1: F(2), 2: F(3), 3: F(5)}, trunc=16)
    pole = MSElement.from_coeffs({-1: F(1)}, trunc=16)
    diff = a - b
    assert diff.is_polar_only() and diff.valid_order == 2
    prod = diff * pole
    assert prod.valid_order == 1
    assert prod.eq_through(MSElement.zero(), 1)
    assert (pole * diff).valid_order == 1


def test_declared_exact_zeros():
    pole = MSElement.from_coeffs({-2: F(1)}, trunc=4)
    regular = MSElement.from_coeffs({0: F(3)}, trunc=16)
    for zero in (MSElement.zero(16), regular.polar_part(), -regular.polar_part(),
                 pole.polar_part().regular_part()):
        assert (zero * pole).valid_order == zero.valid_order
        assert (zero * pole).eq_through(MSElement.zero(), zero.valid_order)
    # a regular part is known only through its window, even when it reads 0
    assert (pole.regular_part() * pole).valid_order == 2


# -- JSON text written from the numerators ----------------------------------------

HUGE = st.integers(10**4300, 10**4400)  # past the 4,300-digit str limit


@settings(max_examples=200, deadline=None)
@given(st.integers() | HUGE | HUGE.map(lambda n: -n),
       st.just(1) | st.integers(1, 10**6) | HUGE)
@example(0, 7)
@example(0, 1)
@example(-6, 4)
@example(-5, 1)
@example(3 * 10**4300, 3)
@example(-1, 10**4300 + 1)
def test_numerator_text_is_the_fraction_text(n, d):
    assert _ratio_text(n, d) == rational.text(F(n, d))


def element_text(x, order=None):
    """The Fraction route: value_json's layout from x.polar and x.regular."""
    regular = x.regular if order is None else x.regular[:order + 1]
    return {"polar": [rational.text(c) for c in x.polar],
            "regular": [rational.text(c) for c in regular]}


@settings(max_examples=100)
@given(element_pairs().map(lambda pair: pair[0]), st.none() | st.integers(0, 10))
def test_value_json_is_the_fraction_text(x, order):
    assert value_json(x, order) == element_text(x, order)


def test_character_json_bytes_are_the_fraction_text():
    """Fractional, zero and huge coefficients, and a short window."""
    values = {
        VERTEX: MSElement([F(-3, 4), 0, F(5, 6)], [0, F(10**4400, 7), 2, 0]),
        FAMILY[1]: MSElement([], [F(1, 3), 0, F(-7, 2)]),
        FAMILY[2]: MSElement([], [0] * 5),
    }
    chi = Character(values, 4, trunc=4)
    text = character_to_json(chi)
    doc = json.loads(text)
    for entry in doc["values"]:
        value = values[entry["graph"]]
        want = element_text(value, chi.trunc)
        if value.valid_order < chi.trunc:
            want["valid"] = value.valid_order
        assert entry["value"] == want
    assert character_to_json(character_from_json(text)) == text


# -- the fused cut-sum kernel against the pairwise fold ---------------------------

FACTOR_KINDS = ["general", "regular_only", "reads_zero", "polar_only",
                "declared_zero", "polar_part_of_regular"]


@st.composite
def factors(draw):
    """Elements of polar depth 0-3 and window 0-16: general, regular-only,
    a regular side that reads zero without being declared, polar-only
    (`polar_part()`), and the declared exact zeros `MSElement.zero` and
    the `polar_part()` of a regular element."""
    kind = draw(st.sampled_from(FACTOR_KINDS))
    window = draw(st.integers(0, 16))
    if kind == "declared_zero":
        return MSElement.zero(window)
    depth = 0 if kind in ("regular_only", "polar_part_of_regular") else draw(st.integers(0, 3))
    polar = draw(st.lists(coeff, min_size=depth, max_size=depth))
    regular = ([F(0)] * (window + 1) if kind == "reads_zero"
               else draw(st.lists(coeff, min_size=window + 1, max_size=window + 1)))
    x = MSElement(polar, regular)
    return x.polar_part() if kind in ("polar_only", "polar_part_of_regular") else x


def stored(x: MSElement) -> tuple:
    return x._nums, x._den, x._depth, x._rzero, x.valid_order


def fresh(x: MSElement) -> MSElement:
    """x as a new object, with no nonzero indices cached."""
    return _new(x._nums, x._den, x._depth, x._rzero)


@settings(max_examples=150)
@given(st.lists(factors(), min_size=1, max_size=3), st.lists(factors(), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3)), max_size=5))
def test_accumulate_matches_pairwise_fold(firsts, pool, picks):
    """first.accumulate(terms) is first + c*(x*y) + ... exactly: numerators,
    denominator, depth, declared zero and window; both raise TruncationError
    when a product's windows are too short.  The same factor objects serve
    every first term, so the sums have different result windows, and then
    every pairwise product; the reference takes each factor as a fresh
    object, so it reads no index cached by an earlier sum."""
    terms = [(c, pool[i % len(pool)], pool[j % len(pool)]) for c, i, j in picks]
    for first in firsts:
        try:
            want = fresh(first)
            for c, x, y in terms:
                want = want + c * (fresh(x) * fresh(y))
        except TruncationError:
            with pytest.raises(TruncationError):
                first.accumulate(terms)
            continue
        assert stored(first.accumulate(terms)) == stored(want)
    for x in pool:
        for y in pool:
            try:
                want = fresh(x) * fresh(y)
            except TruncationError:
                with pytest.raises(TruncationError):
                    x * y
                continue
            assert stored(x * y) == stored(want)


def test_cached_nonzero_indices_are_one_int_per_nonzero():
    """The cache holds the indices of all nonzero numerators, one int
    each, whatever window an element is first used in: no (index,
    numerator) pairs, which would cost memory for every cached value."""
    x = MSElement.from_coeffs({-2: F(1, 3), 0: F(2), 3: F(-5, 6), 8: F(7)}, trunc=8)
    y = MSElement.from_coeffs({-1: F(1), 1: F(1, 2)}, trunc=8)
    assert x._nz is None and y._nz is None
    assert (x * y).valid_order == 6  # x's t^8 lies past this product's window
    MSElement.zero().accumulate([(1, y, x)])
    for z in (x, y):
        assert z._nz == tuple(i for i, n in enumerate(z._nums) if n)
        assert type(z._nz) is tuple and all(type(i) is int for i in z._nz)
        assert not hasattr(z, "__dict__")


def test_accumulate_stops_reading_at_a_short_product():
    # like the fold, it raises before it reads (evaluates) the next term
    pole = MSElement.from_coeffs({-2: F(1)}, trunc=1)

    def terms():
        yield 1, pole, MSElement.one()
        yield 2, pole, pole
        raise AssertionError("term read after the short product")

    with pytest.raises(TruncationError):
        MSElement.zero().accumulate(terms())


# -- the recursive inverse against phi o S and the geometric series ---------------

def geometric_inverse(phi):
    """phi^(*-1) = e + sum_{m>=1} (e - phi)^(*m): the explicit series of
    convolution powers, kept as the oracle for the recursive inverse."""
    trunc = phi.trunc
    e = unit_map(phi.degree_bound, trunc)
    diff = GMap(lambda m: e(m) - phi(m), phi.degree_bound, trunc, "(e-phi)")
    powers = [diff]

    def fn(mono):
        acc = e(mono)
        need = sum(generator_vertices(l) for l in mono)
        while len(powers) < need:
            powers.append(convolution(powers[-1], diff))
        for m in range(need):
            acc = acc + powers[m](mono)
        return acc

    return GMap(fn, phi.degree_bound, trunc, f"{phi.name}^-1 (series)")


def agree(got, want):
    order = min(got.valid_order, want.valid_order)
    return got.polar == want.polar and got.eq_through(want, order)


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_inverse_of_character_is_phi_after_antipode(seed):
    phi = random_character(seed)
    inv = conv_inverse(phi)
    for mono in MONOMIALS:
        acc = None
        for term, c in antipode(HopfElement({mono: F(1)})).terms.items():
            value = c * phi(term)
            acc = value if acc is None else acc + value
        assert agree(inv(mono), acc), mono


def random_linear_map(seed):
    """Unit-preserving but not multiplicative: an independent random value
    on every monomial, drawn in a fixed order."""
    gen = SplitMix64(seed)
    values = {mono: random_ms(gen, polar_depth=2, regular_degree=3)
              for mono in MONOMIALS if mono != UNIT_MONOMIAL}
    for mono in MONOMIALS:
        for (left, right) in coproduct_of_monomial(mono):
            for part in (left, right):
                if part != UNIT_MONOMIAL and part not in values:
                    values[part] = random_ms(gen, polar_depth=2, regular_degree=3)
    values[UNIT_MONOMIAL] = MSElement.one()
    return GMap(values.__getitem__, 4, name="psi")


@pytest.mark.parametrize("seed", [50, 51])
def test_recursive_inverse_matches_geometric_series(seed):
    psi = random_linear_map(seed)
    with pytest.raises(RenormError):
        birkhoff(psi)  # not a character: the recursion alone applies
    inv, series = conv_inverse(psi), geometric_inverse(psi)
    for mono in MONOMIALS:
        assert agree(inv(mono), series(mono)), mono
        got = convolution(inv, psi)(mono)
        assert agree(got, unit_map(4)(mono)), mono


@pytest.mark.parametrize("doc, message", [
    ("[]", "must be an object"),
    ('{"values": []}', "lacks 'degree_bound'"),
    ('{"degree_bound": 4}', "lacks 'values'"),
    ('{"degree_bound": 4, "values": {}}', "values must be a list"),
    ('{"degree_bound": 4, "truncation": -1, "values": []}',
     "truncation must be a non-negative integer"),
    ('{"degree_bound": 4, "values": [3]}', "values[0] must be an object"),
    ('{"degree_bound": 4, "values": [{"value": {"polar": [], "regular": []}}]}',
     "values[0] lacks 'graph'"),
    ('{"degree_bound": 4, "values": [{"graph": "g"}]}', "values[0] lacks 'value'"),
    ('{"degree_bound": 4, "values": [{"graph": "g", "value": {"regular": []}}]}',
     "values[0].value lacks 'polar'"),
    ('{"degree_bound": 4, "values": [{"graph": "g", "value": {"polar": []}}]}',
     "values[0].value lacks 'regular'"),
    ('{"degree_bound": 4, "values": [{"graph": "g", "value": {"polar": "1", '
     '"regular": []}}]}', "values[0].value: polar must be a list"),
    ('{"degree_bound": 4, "values": [{"graph": "g", "value": {"polar": [], '
     '"regular": ["1/0"]}}]}', "values[0].value.regular[0]: bad coefficient"),
    ('{"degree_bound": 4, "values": [{"graph": "g", "value": {"polar": [], '
     '"regular": [true]}}]}', "values[0].value.regular[0]: bad coefficient True"),
    ('{"degree_bound": 4, "values": [{"graph": "g", "value": {"polar": [0.1], '
     '"regular": []}}]}', "values[0].value.polar[0]: bad coefficient 0.1"),
    ("{", "bad character JSON"),
    ('{"degree_bound": 4, "values": [{"graph": "g", "value": {"polar": [], '
     '"regular": ["1"]}}, {"graph": "g", "value": {"polar": [], "regular": ["2"]}}]}',
     "values[1]: graph 'g' repeats values[0]"),
    ('{"degree_bound": 4, "truncation": 1, "values": [{"graph": "g", "value": '
     '{"polar": [], "regular": ["1", "0", "5"]}}]}',
     "values[0].value.regular has 3 coefficients, more than truncation + 1 = 2"),
    ('{"degree_bound": 4, "truncation": 4097, "values": []}',
     "truncation must be at most 4096, got 4097"),
    ('{"degree_bound": 4, "truncation": 1000000000000000000000000000000, "values": []}',
     "truncation must be at most 4096"),
])
def test_malformed_character_json_is_positioned(doc, message):
    with pytest.raises(RenormError) as info:
        character_from_json(doc)
    assert message in str(info.value)


def test_character_json_takes_truncations_up_to_the_cap():
    doc = {"degree_bound": 4, "truncation": MAX_TRUNC, "values": [
        {"graph": VERTEX, "value": {"polar": [], "regular": ["1"]}}]}
    chi = character_from_json(json.dumps(doc))
    assert chi.trunc == MAX_TRUNC == 4096
    assert list(chi.generator_values[VERTEX].regular) == [1] + [0] * MAX_TRUNC


@pytest.mark.parametrize("text", ["1e4301", "-2.5E-4301", "1e4_301", "0E700000 ",
                                  pytest.param("1e" + "9" * 5000, id="1e9x5000")])
def test_checked_fraction_refuses_exponents_past_the_digit_limit(text):
    """The exact reader refuses an exponent past 4300 before Fraction
    builds its power of ten."""
    with pytest.raises(ValueError):
        exact(text)


def _value_or_refusal(read, value):
    try:
        return read(value)
    except ValueError:
        return ValueError


def _fraction_reading(value):
    """What Fraction reads of value, or ValueError; a text holding "_" is
    refused, as Fraction refuses it before Python 3.11."""
    if isinstance(value, str) and "_" in value:
        return ValueError
    return _value_or_refusal(Fraction, value)


def test_checked_fraction_is_fraction_within_the_limit():
    for value in ["1e4300", "-2.5E-4300", "3/4", " 7 ", "1_0e1_0", "1_000", "1_0/3",
                  "-2.5_0", 3, Fraction(1, 3)]:
        assert _value_or_refusal(exact, value) == _fraction_reading(value)


COEFFICIENT_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True),
    st.text(alphabet="0123456789-+/._eE \t\u0663", max_size=8),
)


def _huge_exponent(text):
    """Whether text ends in an exponent past 4300 in magnitude, which
    Fraction would read as a power of ten of more digits than that."""
    _, e, exponent = text.strip().lower().rpartition("e")
    try:
        return bool(e) and abs(int(exponent)) > 4300
    except ValueError:
        return False


def _read_everywhere(text):
    """What each entry point of outside rationals makes of `text`: the
    value read, or the message refusing it.  The two are a character
    coefficient and `algebra feynman-check --c3`."""
    results = []
    doc = json.dumps({"degree_bound": 1, "truncation": 0, "values": [
        {"graph": VERTEX, "value": {"polar": [], "regular": [text]}}]})
    try:
        results.append(character_from_json(doc).generator_values[VERTEX].regular[0])
    except RenormError as exc:
        results.append(str(exc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--verbose", "algebra", "feynman-check", f"--c3={text}",
                         "--order", "0"])
    lines = err.getvalue().splitlines()
    results.append(_long_fraction(json.loads(lines[0])["c3"]) if code == 0
                   else (code, lines[-1]))
    return results


def _long_fraction(text):
    """Fraction of written `-?digits(/digits)` text of any length."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


@settings(max_examples=300, deadline=None)
@given(COEFFICIENT_TEXT)
@example("0E700000")
@example("0E700000 ")
@example("1e4301")
@example("-2.5e-4301")
@example("-2.5E-4301")
@example("1e4_301")
@example("1e" + "9" * 5000)
@example("1e4300")
@example("-2.5E-4300")
@example("1_0e1_0")
@example("1_000")
@example(" 7 ")
@example("3/4")
@example("--")
def test_coefficient_text_matches_fraction_parser(text):
    """Every reader of outside rationals reads a text as Fraction(text)
    does: the same values, and the same texts refused (whitespace, signs,
    decimals, exponents and zero denominators included), and each also
    refuses an exponent past 4300 in magnitude and, on every Python, any
    text holding "_"."""
    try:
        if _huge_exponent(text) or "_" in text:
            raise ValueError(text)
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        assert _read_everywhere(text) == [
            f"values[0].value.regular[0]: bad coefficient {shown(text)}",
            (2, "kolmex algebra feynman-check: error: argument --c3: not a rational "
                "with a nonzero denominator and a decimal exponent of at most 4300: "
                f"{shown(text)}")]
        return
    assert _read_everywhere(text) == [want] * 2
