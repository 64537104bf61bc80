"""The four benchmark workloads.

Each workload has an input generator, a pure function of the seed that
returns plain data (no kolmex objects), and a batch function that builds
fixtures from those inputs and runs one fixed batch of experiments through
a `Batch`.  Only the calls handed to `Batch.op` and `Batch.phase` are timed;
the oracle checks and digests run between them, untimed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from fractions import Fraction

DEFAULT_SEED = 1

# Lazy caches that must be cold at the first timed call of every batch.
COLD_CACHES = ("generator_graph", "generator_degree", "coproduct_of_generator")

FAILED = object()  # returned by Batch.op / Batch.phase when the call raised


class Batch:
    """Times ops and phases of one batch and counts its checked items."""

    def __init__(self, tracer=None, on_first=None, sampler=None):
        self.tracer = tracer
        self.on_first = on_first
        self.sampler = sampler  # a speed.SpeedSampler; its handler time is left out
        self.first_ns = None  # time.monotonic_ns() at the first timed call
        self.paused_before_first_ns = 0
        self.wall_ns = 0
        self.op_ns: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def _timed(self, label: str, fn, args, kwargs):
        if self.first_ns is None:
            self.first_ns = time.monotonic_ns()
            self.paused_before_first_ns = self._paused()
            if self.on_first is not None:
                self.on_first()
        if self.tracer is not None:
            self.tracer.recording = True
        paused = self._paused()
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = FAILED
            self.attempted += 1
            self.failures.append(f"{label}: raised {exc!r}")
        finally:
            elapsed = time.perf_counter_ns() - start - (self._paused() - paused)
            if self.tracer is not None:
                self.tracer.recording = False
            self.wall_ns += elapsed
        return result, elapsed

    def _paused(self) -> int:
        return self.sampler.paused_ns if self.sampler is not None else 0

    def op(self, label: str, fn, *args, **kwargs):
        """One op of the workload's op kind: timed into wall_s and latencies."""
        result, elapsed = self._timed(label, fn, args, kwargs)
        self.op_ns.append(elapsed)
        return result

    def phase(self, label: str, fn, *args, **kwargs):
        """A timed step that is not an op: counts toward wall_s only."""
        return self._timed(label, fn, args, kwargs)[0]

    def check(self, label: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: check failed")

    def digest(self, name: str, lines):
        self.digests[name] = sha256_lines(lines)


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash through SHA-512, so the stream is pinned per workload
    return random.Random(f"{workload}:{seed}")


def _singleton_ok(p) -> bool:
    return p.rate + p.delta <= 1 + Fraction(1, p.n)


# ---------------------------------------------------------------------------
# codes-cloud
# ---------------------------------------------------------------------------

CLOUD_Q, CLOUD_N, CLOUD_SIZE = 2, 12, 64
CLOUD_OPS, CLOUD_COUNT = 125, 8  # 1000 codes, the README cloud size
SWEEP_BETAS = tuple(i / 10 for i in range(11))


def codes_cloud_inputs(seed: int) -> dict:
    rnd = _rng("codes-cloud", seed)
    return {"op_seeds": [rnd.getrandbits(32) for _ in range(CLOUD_OPS)]}


def _readme_svg(cloud, header: str) -> str:
    """The `codes cloud --svg` plot: points plus the three bound curves."""
    from kolmex import codes, svgplot

    points = [(float(e.params.delta), float(e.params.rate)) for e in cloud.entries]
    grid = [i / 400 for i in range(401)]
    curves = [
        (kind, [(d, codes.bound_curve(kind, cloud.q, d)) for d in grid])
        for kind in codes.BOUND_KINDS
    ]
    return svgplot.cloud_svg(points, curves, header)


def codes_cloud_batch(batch: Batch, inp: dict):
    from kolmex import PROXY_VERSION, __version__, codes

    entries = []
    for i, s in enumerate(inp["op_seeds"]):
        ens = batch.op(f"sample_codes#{i}", codes.sample_codes,
                       CLOUD_Q, CLOUD_N, CLOUD_SIZE, CLOUD_COUNT, s)
        if ens is FAILED:
            continue
        batch.check(f"sample_codes#{i} singleton", len(ens) == CLOUD_COUNT and all(
            _singleton_ok(e.params) for e in ens.entries))
        entries.extend(ens.entries)

    entries.sort(key=lambda e: (e.complexity, e.code.canonical_string()))
    cloud = codes.CodeEnsemble(CLOUD_Q, tuple(entries), {"kind": "bench"})
    rows = batch.phase("cloud_rows", codes.cloud_rows, cloud)
    svg = batch.phase("cloud_svg", _readme_svg, cloud, f"kolmex {__version__} {PROXY_VERSION}")
    sweep = batch.phase("sweep_rows", codes.sweep_rows, cloud,
                        Fraction(1, 2), Fraction(1, 6), SWEEP_BETAS)

    # criterion 5: at least 90% of the cloud lies below Hamming + 0.05
    below = sum(
        float(e.params.rate) <= codes.bound_curve("hamming", CLOUD_Q, float(e.params.delta)) + 0.05
        for e in entries
    )
    batch.check("hamming share", bool(entries) and below / len(entries) >= 0.90)
    if rows is not FAILED:
        batch.check("cloud rows", len(rows) == len(entries) + 1)
        batch.digest("cloud_rows", rows)
    if svg is not FAILED:
        batch.check("cloud svg", svg.count("<circle") == len(entries))
        batch.digest("cloud_svg", [svg])
    if sweep is not FAILED:
        zs = [float(row.split(",")[3]) for row in sweep[1:]]
        batch.check("sweep Z non-increasing in beta",
                    all(b <= a * (1 + 1e-12) for a, b in zip(zs, zs[1:])))
        batch.digest("sweep_rows", sweep)


# ---------------------------------------------------------------------------
# complexity-order
# ---------------------------------------------------------------------------

WINDOW = 1024
PHI_TERMS = 20
RS_Q, RS_N, RS_K = 7, 7, 3
QARY_CODES = 20
INTS_PER_CLASS = 60
OPS_PER_SLICE = 8  # 23 slices of ops between the phases, the rest at the end
TOWERS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2))


def _tower(base: int, height: int) -> int:
    value = base
    for _ in range(height - 1):
        value = base**value
    return value


def complexity_order_inputs(seed: int) -> dict:
    rnd = _rng("complexity-order", seed)
    # One class per branch of the proxy's integer search, INTS_PER_CLASS each.
    # No caller of the proxy weights these classes, so they get equal shares
    # and the median op falls among all of them, not inside one:
    #   small integers, where the add and divisor branches recurse;
    #   integers below 10^10, the draw of criterion 8's prefix/plain check;
    #   perfect powers (root branch); powers plus a small remainder (add
    #   branch); towers (tower branch).
    # Exponents and towers cycle instead of being drawn, so the cost of the
    # batch depends less on the seed.
    n = INTS_PER_CLASS
    ints = [rnd.randrange(1, 10_000) for _ in range(n)]
    ints += [rnd.randrange(10**10) for _ in range(n)]
    ints += [rnd.randrange(2, 61) ** (2 + i % 23) for i in range(n)]
    ints += [rnd.randrange(2, 11) ** (5 + i % 26) + rnd.randrange(1, 10**6) for i in range(n)]
    ints += [_tower(*TOWERS[i % len(TOWERS)]) for i in range(n)]
    rnd.shuffle(ints)

    probes = []  # (kind, y label or table, opaque)
    for _ in range(30):
        probes.append((rnd.choice(["evens", "empty", "identity"]), rnd.randrange(1, 200),
                       rnd.random() < 0.5))
    for _ in range(10):
        probes.append(("collatz", rnd.randrange(1, 5000), True))
    for _ in range(10):
        tail, period = rnd.randrange(0, 20), rnd.randrange(1, 60)
        nodes = rnd.sample(range(1, 10_000), tail + period)
        probes.append(("table", (nodes, tail), True))
    return {
        "ints": ints,
        "fixed_pair": (rnd.randrange(1, 9), 2 * rnd.randrange(0, 8) + 1),
        "probes": probes,
        "qary_seeds": [rnd.getrandbits(32) for _ in range(QARY_CODES)],
        "zipf_seed": rnd.getrandbits(32),
    }


def _collatz():
    from kolmex import halting

    def compute(y: int, fuel: int):
        steps, current = 0, y
        while current != 1:
            if steps >= fuel:
                return None
            current = current // 2 if current % 2 == 0 else 3 * current + 1
            steps += 1
        return steps + 1

    return halting.PartialFunction(compute, None, "collatz")


def _probe_fixture(probe):
    """(point, sigma, budget, (truth, period)); truth is 'finite' or 'infinite'."""
    from kolmex import halting

    kind, arg, opaque = probe
    if kind == "table":
        nodes, tail = arg
        step = dict(zip(nodes, nodes[1:]))
        step[nodes[-1]] = nodes[tail]  # the tail runs into a cycle
        return nodes[0], step, 10_000, ("finite", len(nodes) - tail)
    if kind == "collatz":
        pf = _collatz()
        in_domain = True  # collatz halts on every label this workload draws
    else:
        pf = {"evens": halting.PartialFunction.on_evens,
              "empty": halting.PartialFunction.empty,
              "identity": halting.PartialFunction.identity}[kind]()
        in_domain = pf.domain(arg)
    truth = ("infinite" if in_domain else "finite", 1)
    if opaque:
        pf = pf.opaque()
        return (0, halting.zigzag(arg)), halting.lift_to_permutation(pf, fuel=1000), 300, truth
    return (0, halting.zigzag(arg)), halting.lift_to_permutation(pf), 10_000, truth


def _run_probes(fixtures):
    from kolmex import halting

    return [halting.classify_orbit(point, sigma, budget)
            for point, sigma, budget, _ in fixtures]


def _window_phase(fixed_pair):
    """Criterion 7: window order, conjugation, Phi and its closed form."""
    from kolmex import halting

    order = halting.integer_window_order(WINDOW)
    lifted = halting.lift_to_permutation(halting.PartialFunction.on_evens())
    pair = (halting.zigzag(fixed_pair[0]), halting.zigzag(fixed_pair[1]))
    k = order.rank_of(lifted.encode(pair))
    sigma_k = halting.conjugate(lifted.tau_zplus, order)
    series = halting.phi_partial(k, sigma_k, PHI_TERMS)
    closed = halting.fixed_point_closed_form(k, sigma_k)
    return order, k, series, closed


def _rs_phase():
    """Criterion 4/8: RS(7,7,3) parameters and its hinted complexity."""
    from kolmex import codes, complexity

    rs = codes.reed_solomon(RS_Q, RS_N, RS_K)
    params = codes.code_params(rs)
    bits = complexity.DEFAULT_PROXY.proxy_complexity(
        rs.to_code_words(), hints=rs.description_hints()).bit_length() - 1
    return params, bits


def complexity_order_batch(batch: Batch, inp: dict):
    from kolmex import codes, complexity, halting

    proxy = complexity.DEFAULT_PROXY
    pending = iter(enumerate(inp["ints"]))
    bits = []

    def ops(n: int):
        # The ops run in small slices between the phases, so their latencies
        # sample the whole batch rather than one moment of it.
        for i, x in itertools.islice(pending, n):
            b = batch.op(f"complexity_bits#{i}", proxy.complexity_bits, x)
            if b is FAILED:
                continue
            # the literal is always a candidate, so the search can only beat it
            batch.check(f"complexity_bits#{i} bound",
                        0 < b <= complexity.Lit(str(x)).bits()
                        and b % complexity.BITS_PER_CHAR == 0)
            bits.append(str(b))

    ops(OPS_PER_SLICE)
    window = batch.phase("window", _window_phase, inp["fixed_pair"])
    if window is not FAILED:
        order, k, series, closed = window
        want = Fraction(1, k * k)
        batch.check("closed form 1/(k^2 (1-z))",
                    closed == halting.RationalFunction((want,), (1, -1))
                    and series.constant == want and all(c == want for _, c in series.terms))
        batch.digest("window_order", [str(x) for x in order.objects])
    ops(OPS_PER_SLICE)

    fixtures = [_probe_fixture(p) for p in inp["probes"]]
    reports = batch.phase("probes", _run_probes, fixtures)
    if reports is not FAILED:
        for i, ((*_, (truth, period)), (kind, _, opaque), report) in enumerate(
                zip(fixtures, inp["probes"], reports)):
            v = report.verdict
            if kind == "table":
                ok = v == halting.FINITE and report.certificate["period"] == period
            elif opaque:  # never a false certificate, never an infinite claim
                ok = v == halting.INCONCLUSIVE or (v == halting.FINITE and truth == "finite")
            else:
                ok = v == (halting.FINITE if truth == "finite" else halting.INFINITE)
            batch.check(f"probe#{i} {kind}", ok)
        batch.digest("probe_verdicts", [r.to_json() for r in reports])
    ops(OPS_PER_SLICE)

    rs = batch.phase("reed_solomon", _rs_phase)
    if rs is not FAILED:
        params, rs_bits = rs
        batch.check("RS d = n+1-k", params.d == RS_N + 1 - RS_K and _singleton_ok(params))
        lines = [f"rs,{params.k},{params.d},{rs_bits}"]
        for i, s in enumerate(inp["qary_seeds"]):
            ens = batch.phase(f"qary#{i}", codes.sample_codes, RS_Q, RS_N, RS_Q**3, 1, s)
            if ens is FAILED:
                continue
            e = ens.entries[0]
            batch.check(f"qary#{i} singleton", _singleton_ok(e.params))
            lines.append(f"{s},{e.params.k},{e.params.d},{e.complexity_bits}")
            ops(OPS_PER_SLICE)
        batch.digest("rs_codes", lines)

    corpus = batch.phase("zipf corpus", complexity.synthetic_zipf_corpus,
                         1000, 100_000, inp["zipf_seed"])
    if corpus is not FAILED:
        fit = batch.phase("zipf fit", complexity.zipf_analyze, corpus)
        if fit is not FAILED:
            batch.check("zipf exponent -1 +- 0.1",
                        fit.fit_defined and abs(fit.exponent + 1.0) <= 0.1)
            batch.digest("zipf_table", [f"{r.rank},{r.token},{r.count}" for r in fit.table])
    ops(len(inp["ints"]))
    batch.digest("k_bits", bits)


# ---------------------------------------------------------------------------
# feynman-oracle
# ---------------------------------------------------------------------------

ONE_COLOR_OPS, ONE_COLOR_ORDER, TWO_COLOR_ORDER = 99, 3, 2


def _nonzero_fraction(rnd, num_bound: int, den_bound: int) -> tuple[int, int]:
    num = rnd.choice([n for n in range(-num_bound, num_bound + 1) if n])
    return num, rnd.randrange(1, den_bound + 1)


def feynman_oracle_inputs(seed: int) -> dict:
    rnd = _rng("feynman-oracle", seed)
    one_color = [(_nonzero_fraction(rnd, 9, 6), _nonzero_fraction(rnd, 9, 6))
                 for _ in range(ONE_COLOR_OPS)]
    while True:  # a symmetric metric with nonzero determinant
        a, b, d = (Fraction(*_nonzero_fraction(rnd, 4, 3)) for _ in range(3))
        if a * d != b * b:
            break
    metric = ((a, b), (b, d))
    tensors = {
        3: {idx: _nonzero_fraction(rnd, 4, 3)
            for idx in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]},
        4: {idx: _nonzero_fraction(rnd, 4, 3)
            for idx in [(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)]},
    }
    return {"one_color": one_color, "metric": metric, "tensors": tensors}


def _expansion_and_oracle(theory, order):
    from kolmex import feynman

    return feynman.graph_expansion(theory, order), feynman.gaussian_oracle(theory, order)


def feynman_oracle_batch(batch: Batch, inp: dict):
    from kolmex import feynman

    theories = [(feynman.Theory.single_color(c3=Fraction(*c3), c4=Fraction(*c4)), ONE_COLOR_ORDER)
                for c3, c4 in inp["one_color"]]
    tensors = {v: {idx: Fraction(*c) for idx, c in entries.items()}
               for v, entries in inp["tensors"].items()}
    theories.append((feynman.Theory.build(2, inp["metric"], tensors), TWO_COLOR_ORDER))

    coeffs = []
    for i, (theory, order) in enumerate(theories):
        pair = batch.op(f"feynman#{i}", _expansion_and_oracle, theory, order)
        if pair is FAILED:
            continue
        expansion, oracle = pair
        batch.check(f"feynman#{i} expansion == oracle", expansion.coeffs == oracle.coeffs)
        coeffs.append(",".join(str(c) for c in expansion.coeffs))
    batch.digest("lambda_series", coeffs)


# ---------------------------------------------------------------------------
# hopf-renorm
# ---------------------------------------------------------------------------

CHARACTERS, SLOTS, DEGREE_BOUND = 8, 64, 8
POWERS = range(-3, 5)


def hopf_renorm_inputs(seed: int) -> dict:
    rnd = _rng("hopf-renorm", seed)
    chars = []
    for _ in range(CHARACTERS):
        chars.append([[(rnd.randrange(-9, 10), rnd.randrange(1, 7)) for _ in POWERS]
                      for _ in range(SLOTS)])
    return {"characters": chars}


def _axiom_pass() -> int:
    """`kolmex algebra hopf-verify --max-vertices 3 --max-flags 6`."""
    from kolmex import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["algebra", "hopf-verify", "--max-vertices", "3", "--max-flags", "6"])


def _family_phase():
    """The 3/4 family and the monomials criterion 3 checks."""
    from kolmex import hopf

    family = hopf.enumerate_connected_oriented(3, 4)
    monos = [hopf.UNIT_MONOMIAL] + [(label,) for label in family]
    for i, a in enumerate(family):
        for b in family[i:]:
            if (hopf.generator_degree(a) + hopf.generator_degree(b) <= 4
                    and hopf.generator_vertices(a) + hopf.generator_vertices(b) <= 3):
                monos.append(tuple(sorted((a, b))))
    return family, monos


def character_json(values, family) -> str:
    """The seeded character over `family` as character JSON."""
    from kolmex import renorm

    elements = {
        label: renorm.MSElement.from_coeffs(
            {p: Fraction(*c) for p, c in zip(POWERS, values[slot])})
        for slot, label in enumerate(family)
    }
    return renorm.character_to_json(renorm.Character(elements, DEGREE_BOUND))


def _decompose(values, family, monos):
    """JSON round trip, Birkhoff, and the reconstruction phi_-^-1 * phi_+."""
    from kolmex import renorm

    text = character_json(values, family)
    phi = renorm.character_from_json(text)
    minus, plus = renorm.birkhoff(phi)
    parts = [(minus(m), plus(m)) for m in monos]
    recon = renorm.convolution(renorm.conv_inverse(minus), plus)
    return text, phi, parts, [recon(m) for m in monos]


def _factors_json(family, parts) -> str:
    """Birkhoff factors on the generators, in the `algebra birkhoff` layout."""
    def values(k):
        return [{"graph": label,
                 "value": {"polar": [str(c) for c in part[k].polar],
                           "regular": [str(c) for c in part[k].regular]}}
                for label, part in zip(family, parts)]
    return json.dumps({"minus": values(0), "plus": values(1)})


def hopf_renorm_batch(batch: Batch, inp: dict):
    from kolmex import renorm

    rc = batch.phase("hopf-verify axiom pass", _axiom_pass)
    batch.check("hopf-verify axioms", rc == 0)
    fam = batch.phase("family", _family_phase)
    if fam is FAILED:
        return
    family, monos = fam
    one = renorm.MSElement.one()
    lines = []
    for i, values in enumerate(inp["characters"]):
        out = batch.op(f"character#{i}", _decompose, values, family, monos)
        if out is FAILED:
            continue
        text, phi, parts, recon = out
        ok = renorm.character_to_json(phi) == text
        for mono, (m, p), r in zip(monos, parts, recon):
            want = phi(mono)
            if not mono:
                ok = ok and m == one and p == one
            else:
                ok = ok and m.is_polar_only() and p.is_regular_only()
            ok = ok and r.polar == want.polar and r.eq_through(
                want, min(r.valid_order, want.valid_order))
        batch.check(f"character#{i} exact reconstruction", ok)
        lines.append(_factors_json(family, parts[1:1 + len(family)]))
    batch.digest("birkhoff_factors", lines)


# ---------------------------------------------------------------------------

WORKLOADS = {
    "codes-cloud": (codes_cloud_inputs, codes_cloud_batch),
    "complexity-order": (complexity_order_inputs, complexity_order_batch),
    "feynman-oracle": (feynman_oracle_inputs, feynman_oracle_batch),
    "hopf-renorm": (hopf_renorm_inputs, hopf_renorm_batch),
}

# Layers each workload is predicted not to touch; a traced batch checks that
# it records zero calls into them.
UNTOUCHED = {
    "codes-cloud": ("fields", "graphs", "feynman", "hopf", "renorm", "halting"),
    "complexity-order": ("graphs", "feynman", "hopf", "renorm", "svgplot"),
    "feynman-oracle": ("rng", "fields", "codes", "complexity", "hopf", "renorm",
                       "halting", "svgplot"),
    "hopf-renorm": ("rng", "fields", "codes", "complexity", "feynman", "halting",
                    "svgplot"),
}


# ---------------------------------------------------------------------------
# the README CLI commands, run in-process and digested (untimed)
# ---------------------------------------------------------------------------

# (command line, output files); a command without files is digested by stdout
CLI_COMMANDS = {
    "codes-cloud": [
        ("codes cloud --q 2 --n 12 --size 64 --count 1000 --seed 7 "
         "--out cloud.csv --svg cloud.svg", ("cloud.csv", "cloud.svg")),
        ("codes sweep --q 2 --n 6 --size 4 --count 200 --seed 3 --rate 1/3 "
         "--delta 1/6 --beta-min 0 --beta-max 1 --steps 11 --out sweep.csv", ("sweep.csv",)),
    ],
    "complexity-order": [
        ("halting probe --function evens --x 1 --y 3 --budget 1000 --out probe.json",
         ("probe.json",)),
        ("zipf fit --types 1000 --tokens 100000 --seed 20260809 --out ranks.csv",
         ("ranks.csv",)),
    ],
    "feynman-oracle": [
        ("algebra feynman-check --c3 1 --c4 1 --order 2", ()),
    ],
    "hopf-renorm": [
        ("algebra hopf-verify --max-vertices 3 --max-flags 6", ()),
        ("algebra birkhoff --in character.json --out factors.json", ("factors.json",)),
    ],
}


def cli_pass(batch: Batch, workload: str, tmpdir):
    """Run the workload's README commands through `kolmex.cli.main`."""
    from kolmex import cli, hopf

    if workload == "hopf-renorm":
        values = hopf_renorm_inputs(DEFAULT_SEED)["characters"][0]
        text = character_json(values, hopf.enumerate_connected_oriented(3, 4))
        (tmpdir / "character.json").write_text(text, encoding="utf-8")
    for line, files in CLI_COMMANDS[workload]:
        argv = [str(tmpdir / a) if a.endswith((".csv", ".svg", ".json")) else a
                for a in line.split()]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        name = " ".join(line.split()[:2])
        batch.check(f"cli {name} exit 0", rc == 0)
        if files:
            for f in files:
                batch.digest(f"cli {name} {f}", [(tmpdir / f).read_text(encoding="utf-8")])
        else:
            batch.digest(f"cli {name} stdout", [out.getvalue()])
