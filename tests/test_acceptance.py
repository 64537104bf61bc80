"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import contextlib
import io
import time
from fractions import Fraction

from graph_oracles import cut_coproduct, disjoint_union
from kolmex import cli
from kolmex import codes as codes_mod
from kolmex import complexity as cx
from kolmex.codes import (
    bound_curve,
    enumerate_linear_codes,
    partition_sum,
    reed_solomon,
    reed_solomon_min_distance,
    sample_codes,
    sweep_rows,
)
from kolmex.feynman import Theory, gaussian_oracle, graph_expansion, invert_matrix
from kolmex.graphs import _vacuum_classes_with_aut
from kolmex.halting import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    PartialFunction,
    RationalFunction,
    classify_orbit,
    conjugate,
    fixed_point_closed_form,
    integer_window_order,
    lift_to_permutation,
    phi_partial,
    zigzag,
)
from kolmex.hopf import (
    UNIT_MONOMIAL,
    coassociativity_sides,
    coproduct_of_generator,
    coproduct_of_monomial,
    enumerate_connected_oriented,
    generator_degree,
    generator_graph,
    generator_vertices,
    is_primitive,
    monomial_degree,
    tensor_mul,
)
from kolmex.hopf import HopfElement, ZERO, _antipode_monomial
from kolmex.renorm import Character, MSElement, birkhoff, conv_inverse, convolution
from kolmex.rng import SplitMix64

F = Fraction


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


# -- 1. graph expansion == Gaussian oracle --------------------------------------

def test_criterion_1_feynman_oracle_equivalence():
    start = time.time()
    gen = SplitMix64(20260801)
    for trial in range(10):
        c3 = F(*gen.fraction_pair(9, 6))
        c4 = F(*gen.fraction_pair(9, 6))
        theory = Theory.single_color(c3=c3, c4=c4)
        e = graph_expansion(theory, 3)
        o = gaussian_oracle(theory, 3)
        assert e.coeffs == o.coeffs, (trial, c3, c4)

    # two colors, generic invertible metric, through lambda^2
    while True:
        m = [[F(*gen.fraction_pair(4, 3)) for _ in range(2)] for _ in range(2)]
        m[1][0] = m[0][1]
        metric = tuple(tuple(row) for row in m)
        try:
            invert_matrix(metric)
            break
        except Exception:
            continue
    tensors = {
        3: {
            idx: F(*gen.fraction_pair(4, 3))
            for idx in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
        },
        4: {
            idx: F(*gen.fraction_pair(4, 3))
            for idx in [(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)]
        },
    }
    theory2 = Theory.build(2, metric, tensors)
    assert graph_expansion(theory2, 2).coeffs == gaussian_oracle(theory2, 2).coeffs

    elapsed = time.time() - start
    assert elapsed < 300, f"took {elapsed:.1f}s, limit 300s"
    _report(1, f"expansion == oracle, 10 one-color pairs at order 3 and a "
               f"generic two-color theory at order 2, exact ({elapsed:.1f}s)")


def test_criterion_1_order_4_at_the_default_budget():
    # the README check one order up, through the CLI at its default budget
    start = time.time()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["algebra", "feynman-check", "--c3", "1", "--c4", "1",
                         "--order", "4"])
    assert code == 0, out.getvalue()
    assert "match through L^4" in out.getvalue()
    classes = _vacuum_classes_with_aut(4, (3, 4), 200_000)
    assert len(classes) == 1115
    elapsed = time.time() - start
    assert elapsed < 60, f"took {elapsed:.1f}s, limit 60s"
    _report(1, f"feynman-check --c3 1 --c4 1 --order 4 matches through L^4 at the "
               f"default budget, {len(classes)} vacuum classes ({elapsed:.1f}s)")


# -- 2. Hopf axioms ---------------------------------------------------------------

def test_criterion_2_hopf_axioms():
    start = time.time()
    family = enumerate_connected_oriented(3, 6)
    assert len(family) > 200

    for label in family:
        lhs, rhs = coassociativity_sides(label)
        assert lhs == rhs, f"coassociativity fails on {label}"
        delta = coproduct_of_generator(label)
        left = {}
        right = {}
        for l, r, c in delta:
            assert monomial_degree(l) + monomial_degree(r) == generator_degree(label)
            if l == UNIT_MONOMIAL:
                left[r] = left.get(r, F(0)) + c
            if r == UNIT_MONOMIAL:
                right[l] = right.get(l, F(0)) + c
        assert left == {(label,): F(1)}, f"counit law fails on {label}"
        assert right == {(label,): F(1)}, f"counit law fails on {label}"

    products = []
    for i, a in enumerate(family):
        for b in family[i:]:
            if generator_degree(a) + generator_degree(b) <= 6:
                products.append(tuple(sorted((a, b))))
    for mono in products:
        # Delta(a b) from the cuts of the disjoint-union graph itself
        a, b = mono
        union = disjoint_union(generator_graph(a), generator_graph(b))
        assert tensor_mul(
            coproduct_of_monomial((a,)), coproduct_of_monomial((b,))
        ) == cut_coproduct(union), f"bialgebra fails on {mono}"

    def antipode_law(mono):
        left = ZERO
        right = ZERO
        for (l, r), c in coproduct_of_monomial(mono).items():
            sl = _antipode_monomial(l)
            sr = _antipode_monomial(r)
            left = left + c * (sl * HopfElement({r: F(1)}))
            right = right + c * (HopfElement({l: F(1)}) * sr)
        want = HopfElement.unit() if mono == UNIT_MONOMIAL else ZERO
        assert left == want and right == want, f"antipode law fails on {mono}"

    for label in family:
        antipode_law((label,))
    for mono in products:
        antipode_law(mono)

    elapsed = time.time() - start
    assert elapsed < 60, f"took {elapsed:.1f}s, limit 60s"
    _report(2, f"coassociativity, counit, bialgebra and antipode laws exact on "
               f"{len(family)} generators and {len(products)} products ({elapsed:.1f}s)")


# -- 3. Birkhoff / BPHZ -------------------------------------------------------------

def test_criterion_3_birkhoff():
    start = time.time()
    family = enumerate_connected_oriented(3, 4)
    primitives = [l for l in family if is_primitive(l)]

    check_monos = [UNIT_MONOMIAL] + [(l,) for l in family]
    for i, a in enumerate(family):
        for b in family[i:]:
            if generator_degree(a) + generator_degree(b) <= 4 and (
                generator_vertices(a) + generator_vertices(b) <= 3
            ):
                check_monos.append(tuple(sorted((a, b))))

    gen = SplitMix64(20260803)
    for trial in range(20):
        values = {}
        for label in family:
            coeffs = {}
            for p in range(-3, 5):
                coeffs[p] = F(*gen.fraction_pair(9, 6))
            values[label] = MSElement.from_coeffs(coeffs)
        phi = Character(values, degree_bound=8)
        minus, plus = birkhoff(phi)

        for mono in check_monos:
            if mono == UNIT_MONOMIAL:
                assert minus(mono) == MSElement.one()
                assert plus(mono) == MSElement.one()
                continue
            assert minus(mono).is_polar_only(), (trial, mono)
            assert plus(mono).is_regular_only(), (trial, mono)

        recon = convolution(conv_inverse(minus), plus)
        for mono in check_monos:
            got, want = recon(mono), phi(mono)
            assert got.polar == want.polar, (trial, mono)
            order = min(got.valid_order, want.valid_order)
            assert got.eq_through(want, order), (trial, mono)

        for i, a in enumerate(primitives):
            for b in primitives[i:]:
                mono = tuple(sorted((a, b)))
                for part in (minus, plus):
                    got = part(mono)
                    want = part((a,)) * part((b,))
                    assert got.polar == want.polar, (trial, mono)
                    assert got.eq_through(
                        want, min(got.valid_order, want.valid_order)
                    ), (trial, mono)

    elapsed = time.time() - start
    _report(3, f"20 random characters: exact reconstruction, containments and "
               f"primitive-product multiplicativity over {len(check_monos)} "
               f"monomials ({elapsed:.1f}s)")


# -- 4. Reed-Solomon / Singleton -----------------------------------------------------

def test_criterion_4_reed_solomon_singleton():
    start = time.time()
    checked = 0
    for q in (5, 7, 11, 13):
        for n in range(1, q + 1):
            for k in range(1, min(n, 5) + 1):
                d = reed_solomon_min_distance(q, n, k)
                assert d == n + 1 - k, (q, n, k, d)
                assert F(k, n) + F(d, n) == 1 + F(1, n)
                checked += 1

    # materialized small codes and sampled/enumerated ensembles: Singleton exact
    for q, n, k in [(5, 4, 2), (7, 7, 3), (11, 5, 2)]:
        params = codes_mod.code_params(reed_solomon(q, n, k))
        assert params.rate + params.delta <= 1 + F(1, n)
    for entry in sample_codes(3, 7, 16, 100, seed=41).entries:
        p = entry.params
        assert p.rate + p.delta <= 1 + F(1, p.n)
    for entry in enumerate_linear_codes(2, 4).entries:
        p = entry.params
        assert p.rate + p.delta <= 1 + F(1, p.n)

    elapsed = time.time() - start
    _report(4, f"RS distance n+1-k exact on {checked} parameter sets across "
               f"q in {{5,7,11,13}}; Singleton exact on all ensembles "
               f"({elapsed:.1f}s)")


# -- 5. code clouds ---------------------------------------------------------------------

def test_criterion_5_code_clouds():
    start = time.time()
    ensemble = sample_codes(2, 12, 64, 10_000, seed=5)
    assert len(ensemble) == 10_000

    below = 0
    for entry in ensemble.entries:
        p = entry.params
        assert p.rate + p.delta <= 1 + F(1, 12)  # 100% Singleton
        hamming = bound_curve("hamming", 2, float(p.delta))
        if float(p.rate) <= hamming + 0.05:
            below += 1
    share = below / len(ensemble)
    assert share >= 0.90, f"only {share:.3f} below hamming + 0.05"

    elapsed = time.time() - start
    assert elapsed < 120, f"took {elapsed:.1f}s, limit 120s"
    _report(5, f"10^4 sampled codes: 100% Singleton, {share:.1%} below the "
               f"Hamming curve + 0.05 (threshold 90%) ({elapsed:.1f}s)")


# -- 6. partition-function properties ------------------------------------------------

def test_criterion_6_partition_properties():
    start = time.time()
    ensembles = [
        sample_codes(2, 6, 4, 120, seed=61),
        sample_codes(2, 8, 8, 80, seed=62),
        sample_codes(3, 5, 6, 80, seed=63),
        enumerate_linear_codes(2, 4),
    ]
    rel = 1e-12
    for ensemble in ensembles:
        rates = sorted({e.params.rate for e in ensemble.entries})
        rate = rates[len(rates) // 2]
        betas = [0.0, 0.05, 0.1, 0.3, 0.7, 1.5, 3.0]
        zs = [partition_sum(ensemble, rate, F(0), b, eta=0.02)[0] for b in betas]
        for a, b in zip(zs, zs[1:]):
            assert b <= a * (1 + rel), (ensemble.provenance, a, b)
        deltas = [F(0), F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(1)]
        zs = [partition_sum(ensemble, rate, d, 0.2, eta=0.02)[0] for d in deltas]
        for a, b in zip(zs, zs[1:]):
            assert b <= a * (1 + rel), (ensemble.provenance, a, b)

    # byte-identical sweep per seed
    e1 = sample_codes(2, 6, 4, 50, seed=99)
    e2 = sample_codes(2, 6, 4, 50, seed=99)
    betas = [0.1 * i for i in range(11)]
    rows1 = sweep_rows(e1, F(1, 3), F(1, 6), betas)
    rows2 = sweep_rows(e2, F(1, 3), F(1, 6), betas)
    assert rows1 == rows2

    elapsed = time.time() - start
    _report(6, f"Z non-increasing in beta and Delta at 1e-12 relative tolerance "
               f"on {len(ensembles)} ensembles; sweep CSV byte-identical "
               f"({elapsed:.1f}s)")


# -- 7. halting module ------------------------------------------------------------------

def test_criterion_7_halting():
    start = time.time()

    # fixed-point Phi reconstructs to exactly 1/(k^2 (1 - z))
    lifted = lift_to_permutation(PartialFunction.on_evens())
    fixed_pair = (zigzag(1), zigzag(3))  # y = 3 is odd: outside the domain
    assert lifted.is_fixed(fixed_pair) is True
    order = integer_window_order(64)
    code = lifted.encode(fixed_pair)
    k = order.rank_of(code)
    sigma_k = conjugate(lifted.tau_zplus, order)
    closed = fixed_point_closed_form(k, sigma_k)
    assert closed == RationalFunction((F(1, k * k),), (F(1), F(-1)))
    series = phi_partial(k, sigma_k, 20)
    assert all(c == F(1, k * k) for _, c in series.terms)

    # 20/20 transparent classifications at budget 10^4
    budget = 10_000
    finite_cases = [((0, zigzag(y)), PartialFunction.on_evens()) for y in (1, 3, 5, 7, 9)]
    finite_cases += [((1, zigzag(y)), PartialFunction.empty()) for y in (1, 2, 3, 4, 5)]
    infinite_cases = [((0, zigzag(y)), PartialFunction.on_evens()) for y in (2, 4, 6, 8, 10)]
    infinite_cases += [((1, zigzag(y)), PartialFunction.identity()) for y in (1, 2, 3, 4, 5)]
    score = 0
    for pair, f in finite_cases:
        report = classify_orbit(pair, lift_to_permutation(f), budget)
        score += report.verdict == FINITE
    for pair, f in infinite_cases:
        report = classify_orbit(pair, lift_to_permutation(f), budget)
        score += report.verdict == INFINITE
    assert score == 20, f"transparent suite scored {score}/20"

    # opaque mode: only certified-finite or inconclusive, never wrong
    false_certificates = 0
    opaque_probes = 0
    for pair, f, truly_finite in (
        [(p, f, True) for p, f in finite_cases]
        + [(p, f, False) for p, f in infinite_cases]
    ):
        report = classify_orbit(pair, lift_to_permutation(f.opaque(), fuel=100), 500)
        opaque_probes += 1
        assert report.verdict in (FINITE, INCONCLUSIVE)
        if report.verdict == FINITE and not truly_finite:
            false_certificates += 1
    # plus genuinely cyclic opaque table permutations: revisit certificates
    cycle = {1: 2, 2: 3, 3: 1}
    report = classify_orbit(1, cycle, budget)
    assert report.verdict == FINITE and report.certificate["period"] == 3
    assert false_certificates == 0

    elapsed = time.time() - start
    _report(7, f"fixed-point series = 1/(k^2 (1-z)) with k={k}; transparent "
               f"suite 20/20; {opaque_probes} opaque probes with zero false "
               f"certificates ({elapsed:.1f}s)")


# -- 8. complexity proxy and Zipf ----------------------------------------------------------

def test_criterion_8_complexity_and_zipf():
    start = time.time()
    proxy = cx.DEFAULT_PROXY

    # tower describer: <= 8 * (6 + digits(n)) bits, symbolically
    for n in range(1, 101):
        tower = cx.Tower(cx.Lit(n), cx.Lit(n))
        assert tower.bits() <= 8 * (6 + len(str(n)))

    # prefix/plain relation exact on 100 random inputs
    gen = SplitMix64(20260808)
    for _ in range(100):
        x = gen.below(10**10)
        bits = proxy.complexity_bits(x)
        header = 2 * (bits.bit_length() - 1) + 1
        assert proxy.proxy_complexity(x, prefix=True) == (
            proxy.proxy_complexity(x) * 2**header
        )

    # synthetic 1/k corpus recovers exponent -1 within 0.1
    corpus = cx.synthetic_zipf_corpus(1000, 100_000, seed=20260809)
    fit = cx.zipf_analyze(corpus)
    assert fit.fit_defined and abs(fit.exponent + 1.0) <= 0.1

    # structured beats random: RS(7,7,3) vs same-size random codes
    rs = reed_solomon(7, 7, 3)
    rs_complexity = proxy.proxy_complexity(
        rs.to_code_words(), hints=rs.description_hints()
    )
    wins = 0
    for seed in range(100):
        random_code = sample_codes(7, 7, 343, 1, seed=seed).entries[0]
        if rs_complexity < random_code.complexity:
            wins += 1
    assert wins >= 95, f"RS shorter in only {wins}/100 seeds"

    elapsed = time.time() - start
    _report(8, f"tower bound (n <= 100), exact prefix headers (100 inputs), "
               f"Zipf exponent {fit.exponent:.3f}, RS beat random codes "
               f"{wins}/100 ({elapsed:.1f}s)")
