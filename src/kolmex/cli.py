"""Command-line front end.

Subcommand groups mirror the experiment families:

    kolmex codes cloud      sampled code-point cloud: CSV (+ optional SVG)
    kolmex codes sweep      partition-sum sweep over an inverse-temperature grid
    kolmex algebra feynman-check   graph expansion vs Gaussian oracle
    kolmex algebra hopf-verify     bialgebra/antipode axiom report
    kolmex algebra birkhoff        BPHZ decomposition of a character JSON
    kolmex halting probe    orbit probe report JSON
    kolmex zipf fit         rank-frequency CSV + power-law fit summary

Exit codes: 0 success / property holds, 1 checked property fails,
2 usage or I/O errors.  A rule on one option is that option's argparse
type, so argparse names the option in its message; handlers check only
rules that span options, read files or overflow a float.  `main` returns
argparse's exit code too, so it returns 0, 1 or 2 for every argv (0 for
--help) and never raises SystemExit.
A run's config, echoed by --verbose and stamped on its files, is every
parsed option but the output paths; identical (config, version) pairs give
byte-identical outputs, and all randomness flows through one --seed.  A run
writes all its files or none, and a failed run changes no earlier file.

Each handler imports the modules it runs, so a command loads only its own
layers (hopf-verify never loads codes or complexity, a halting probe never
loads the graph algebra).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction

from . import PROXY_VERSION, __version__
from . import rational


class UsageError(Exception):
    pass


def _stamp(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return f"kolmex {__version__} {PROXY_VERSION} {blob}"


def _config(args) -> dict:
    """The run's config: every parsed option but the output paths, with
    --in and --corpus by their base name and every rational as its text.
    Echoed to stderr under --verbose."""
    config = {"cmd": f"{args.group} {args.cmd}"}
    for key, value in vars(args).items():
        if key in ("group", "cmd", "handler", "verbose", "out", "svg"):
            continue
        if key in ("input", "corpus"):
            value = os.path.basename(value) if value else None
        elif isinstance(value, Fraction):
            value = rational.text(value)
        config["in" if key == "input" else key] = value
    if args.verbose:
        print(json.dumps(config, sort_keys=True), file=sys.stderr)
    return config


def _write_outputs(*files: tuple[str, str]):
    """Write each (path, text): all to tmp names first, one per file even
    when two paths are equal (the later file wins), then all into place.
    A failure removes every tmp, so no file is left new or changed."""
    tmps = [f"{path}.{i}.tmp" for i, (path, _) in enumerate(files)]
    try:
        for tmp, (path, text) in zip(tmps, files):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            if os.path.isdir(path):  # refused before any file moves
                raise IsADirectoryError(f"is a directory: {path}")
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _fraction(text: str) -> Fraction:
    """argparse type of an exact rational such as 1/3; argparse names the
    option in its exit-2 message.  A Fraction even when integral, so that
    `_config` writes it as text."""
    try:
        return Fraction(rational.exact(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "not a rational with a nonzero denominator and a decimal exponent "
            f"of at most {rational.MAX_EXPONENT}: {rational.shown(text)}") from None


def _float_sized(text: str) -> Fraction:
    """argparse type of an exact rational that the sweep also writes as a float."""
    value = _fraction(text)
    try:
        float(value)
    except OverflowError:
        raise argparse.ArgumentTypeError(
            f"too large for a float: {rational.shown(text)}") from None
    return value


def _at_least(least: int, most: int | None = None):
    """argparse type of an integer no smaller than `least` and, when `most`
    is given, no larger than it."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            number = text.strip()
            digits = number[1:] if number[:1] in ("+", "-") else number
            if digits.isdecimal():  # int() refuses more digits than its limit
                raise argparse.ArgumentTypeError(
                    f"too many digits: {number[:20]}... ({len(digits)} digits)") from None
            raise argparse.ArgumentTypeError(f"not an integer: {rational.shown(text)}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, not {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, not {value}")
        return value
    return parse


def _finite(text: str) -> float:
    """argparse type of a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {rational.shown(text)}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {value}")
    return value


def _finite_non_negative(text: str) -> float:
    """argparse type of a finite float no smaller than 0."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

def _build_ensemble(args):
    if args.n > 64 or args.q**args.n > 1 << 64:
        raise UsageError(f"--n {args.n} is too large: q^n = {args.q}^{args.n} "
                         "exceeds the sampler's 2^64 word indices")
    if args.size > args.q**args.n:
        raise UsageError(f"--size {args.size} exceeds the {args.q}^{args.n} = "
                         f"{args.q**args.n} words of length --n {args.n}")
    from .codes import sample_codes

    return sample_codes(args.q, args.n, args.size, args.count, args.seed)


def cmd_codes_cloud(args) -> int:
    config = _config(args)
    ensemble = _build_ensemble(args)
    from .codes import BOUND_KINDS, bound_curve, cloud_rows

    rows = cloud_rows(ensemble)
    outputs = [(args.out, f"# {_stamp(config)}\n" + "\n".join(rows) + "\n")]
    if args.svg:
        points = [
            (float(e.params.delta), float(e.params.rate)) for e in ensemble.entries
        ]
        grid = [i / 400 for i in range(401)]
        curves = [
            (kind, [(d, bound_curve(kind, args.q, d)) for d in grid])
            for kind in BOUND_KINDS
        ]
        from .svgplot import cloud_svg

        outputs.append((args.svg, cloud_svg(points, curves, _stamp(config))))
    _write_outputs(*outputs)
    print(f"wrote {len(rows) - 1} code points to {args.out}")
    if args.svg:
        print(f"wrote plot to {args.svg}")
    return 0


def cmd_codes_sweep(args) -> int:
    config = _config(args)
    if args.beta_min > args.beta_max:
        raise UsageError("--beta-min must be <= --beta-max")
    ensemble = _build_ensemble(args)
    if args.steps == 1:
        betas = [args.beta_min]
    else:
        span = args.beta_max - args.beta_min
        betas = [args.beta_min + i * span / (args.steps - 1) for i in range(args.steps)]
    from .codes import sweep_rows

    rows = sweep_rows(ensemble, args.rate, args.delta, betas, args.eta)
    _write_outputs((args.out, f"# {_stamp(config)}\n" + "\n".join(rows) + "\n"))
    print(f"wrote {len(betas)} sweep rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def cmd_feynman_check(args) -> int:
    _config(args)
    from .feynman import Theory, gaussian_oracle, graph_expansion

    theory = Theory.single_color(c3=args.c3, c4=args.c4)
    expansion = graph_expansion(theory, args.order, budget=args.budget)
    oracle = gaussian_oracle(theory, args.order)
    print(f"expansion: {expansion.pretty()}")
    print(f"oracle:    {oracle.pretty()}")
    match = expansion.matching_order(oracle)
    if match >= args.order:
        print(f"match through L^{args.order}")
        return 0
    print(
        f"MISMATCH at L^{match + 1}: expansion {rational.text(expansion[match + 1])} "
        f"vs oracle {rational.text(oracle[match + 1])}"
    )
    return 1


def cmd_hopf_verify(args) -> int:
    _config(args)
    from .hopf import (
        HopfElement,
        ZERO,
        antipode,
        coassociativity_sides,
        coproduct_of_monomial,
        enumerate_connected_oriented,
        generator_degree,
        monomial_degree,
        tensor_mul,
    )

    family = enumerate_connected_oriented(args.max_vertices, args.max_flags)
    print(f"family: {len(family)} connected oriented classes")
    failures = []

    for label in family:
        lhs, rhs = coassociativity_sides(label)
        if lhs != rhs:
            failures.append(f"coassociativity fails on {label}")
        delta = coproduct_of_monomial((label,))
        if any(
            monomial_degree(l) + monomial_degree(r) != generator_degree(label)
            for (l, r) in delta
        ):
            failures.append(f"coproduct degree fails on {label}")
        unit = {(label,): 1}
        if ({r: c for (l, r), c in delta.items() if l == ()} != unit
                or {l: c for (l, r), c in delta.items() if r == ()} != unit):
            failures.append(f"counit law fails on {label}")
    print(f"coassociativity + counit laws: checked {len(family)} generators")

    pairs = 0
    for i, a in enumerate(family):
        for b in family[i:]:  # the family is sorted by degree
            if generator_degree(a) + generator_degree(b) > args.max_flags:
                break
            pairs += 1
            da = coproduct_of_monomial((a,))
            db = coproduct_of_monomial((b,))
            product_mono = tuple(sorted((a, b)))
            if tensor_mul(da, db) != coproduct_of_monomial(product_mono):
                failures.append(f"bialgebra compatibility fails on {a} * {b}")
    print(f"bialgebra compatibility: checked {pairs} products")

    # S is built from the left law m(S (x) id)Delta = 0, which therefore holds
    # for any coproduct; the right law m(id (x) S)Delta = 0 can fail
    for label in family:
        if ZERO.accumulate((c, HopfElement({l: 1}), antipode(HopfElement({r: 1})))
                           for (l, r), c in coproduct_of_monomial((label,)).items()):
            failures.append(f"antipode law fails on {label}")
    print(f"antipode law: checked {len(family)} generators")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("all axioms pass")
    return 0


def cmd_birkhoff(args) -> int:
    _config(args)
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from None
    from .renorm import Character, birkhoff, character_from_json

    phi = character_from_json(text)
    if args.degree is not None:
        phi = Character(phi.generator_values, args.degree, phi.trunc, phi.name)
    minus, plus = birkhoff(phi)
    doc = {
        "version": f"kolmex {__version__}",
        "proxy_version": PROXY_VERSION,
        "degree_bound": phi.degree_bound,
        "minus": _gmap_values(minus, phi),
        "plus": _gmap_values(plus, phi),
    }
    _write_outputs((args.out, json.dumps(doc, indent=1) + "\n"))
    print(f"wrote Birkhoff factors for {len(phi.generator_values)} generators to {args.out}")
    return 0


def _gmap_values(gmap, phi) -> list:
    from .renorm import value_json

    return [{"graph": label, "value": value_json(gmap((label,)))}
            for label in sorted(phi.generator_values)]


# ---------------------------------------------------------------------------
# halting + zipf
# ---------------------------------------------------------------------------

_FUNCTIONS = ("collatz", "empty", "evens", "identity")


def _collatz_steps(y: int, fuel: int):
    steps, current = 0, y
    while current != 1:
        if steps >= fuel:
            return None
        current = current // 2 if current % 2 == 0 else 3 * current + 1
        steps += 1
    return steps + 1


def _probe_function(name: str):
    """The halting.PartialFunction that --function names."""
    from .halting import PartialFunction

    if name == "collatz":
        return PartialFunction(_collatz_steps, None, "collatz")
    return {"empty": PartialFunction.empty, "evens": PartialFunction.on_evens,
            "identity": PartialFunction.identity}[name]()


def cmd_halting_probe(args) -> int:
    config = _config(args)
    from .halting import classify_orbit, lift_to_permutation, zigzag

    f = _probe_function(args.function)
    if args.mode == "opaque":
        f = f.opaque()
    elif not f.transparent:
        print(f"note: {args.function} has no domain predicate; probing opaquely")
    lifted = lift_to_permutation(f, fuel=args.fuel)
    pair = (zigzag(args.x), zigzag(args.y))
    report = classify_orbit(pair, lifted, budget=args.budget)
    doc = json.loads(report.to_json())
    doc["config"] = config
    doc["version"] = f"kolmex {__version__}"
    _write_outputs((args.out, json.dumps(doc, indent=1) + "\n"))
    print(f"verdict: {report.verdict} ({report.certificate})")
    print(f"wrote report to {args.out}")
    return 0


def _csv_field(text: str) -> str:
    """text as one CSV field (RFC 4180): quoted, with each quote doubled,
    only if it holds a comma or a quote; tokens hold no line breaks."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_zipf_fit(args) -> int:
    config = _config(args)
    from .codes import fmt17
    from .complexity import synthetic_zipf_corpus, zipf_analyze

    if args.corpus:
        try:
            with open(args.corpus, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.corpus}: {exc}") from None
        tokens = text.lower().split() if args.lowercase else text.split()
    else:
        tokens = synthetic_zipf_corpus(args.types, args.tokens, args.seed)
    fit = zipf_analyze(tokens)
    rows = ["rank,token,count,frequency"]
    for row in fit.table:
        rows.append(
            f"{row.rank},{_csv_field(row.token)},{row.count},{fmt17(row.frequency)}"
        )
    _write_outputs((args.out, f"# {_stamp(config)}\n" + "\n".join(rows) + "\n"))
    if fit.fit_defined:
        r2 = "n/a" if fit.r_squared is None else format(fit.r_squared, ".6f")
        print(
            f"types={len(fit.table)} tokens={len(tokens)} "
            f"exponent={fit.exponent:.6f} r_squared={r2}"
        )
    else:
        print(f"types={len(fit.table)} tokens={len(tokens)} fit=undefined")
    print(f"wrote rank-frequency table to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads "--" attached to an option (`--c3=--`)
    as that option's text.  argparse strips such a "--" as if it ended the
    options, which left the option an empty list that its type never saw.
    Subparsers are built of the same class."""

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.option_strings and action.nargs is None:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kolmex",
        description="desk-scale experiments on codes, complexity and graph algebra",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="echo the run config as JSON to stderr")
    sub = parser.add_subparsers(dest="group", required=True)

    codes_p = sub.add_parser("codes", help="code clouds and partition sweeps")
    codes_sub = codes_p.add_subparsers(dest="cmd", required=True)

    cloud = codes_sub.add_parser("cloud", help="sample codes and plot their points")
    # a word's symbols come from the pinned 36-symbol table (codes.Code)
    cloud.add_argument("--q", type=_at_least(2, 36), default=2)
    cloud.add_argument("--n", type=_at_least(1), required=True)
    cloud.add_argument("--size", type=_at_least(2), default=64)
    cloud.add_argument("--count", type=_at_least(0), required=True)
    cloud.add_argument("--seed", type=int, default=1)
    cloud.add_argument("--out", required=True)
    cloud.add_argument("--svg")
    cloud.set_defaults(handler=cmd_codes_cloud)

    sweep = codes_sub.add_parser("sweep", help="partition-sum sweep over beta")
    sweep.add_argument("--q", type=_at_least(2, 36), default=2)
    sweep.add_argument("--n", type=_at_least(1), required=True)
    sweep.add_argument("--size", type=_at_least(2), required=True)
    sweep.add_argument("--count", type=_at_least(0), required=True)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--rate", type=_float_sized, required=True)
    sweep.add_argument("--delta", type=_float_sized, required=True)
    sweep.add_argument("--eta", type=_finite_non_negative, default=0.01)
    sweep.add_argument("--beta-min", type=_finite, required=True)
    sweep.add_argument("--beta-max", type=_finite, required=True)
    sweep.add_argument("--steps", type=_at_least(1), required=True)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(handler=cmd_codes_sweep)

    algebra = sub.add_parser("algebra", help="expansion, bialgebra and BPHZ checks")
    algebra_sub = algebra.add_subparsers(dest="cmd", required=True)

    fey = algebra_sub.add_parser("feynman-check",
                                 help="graph expansion against the Gaussian oracle")
    fey.add_argument("--c3", type=_fraction, default="0")
    fey.add_argument("--c4", type=_fraction, default="0")
    fey.add_argument("--order", type=_at_least(0), required=True)
    fey.add_argument("--budget", type=_at_least(0), default=200_000,
                     help="cap on generator states built while enumerating the "
                          "connected vacuum classes")
    fey.set_defaults(handler=cmd_feynman_check)

    hv = algebra_sub.add_parser("hopf-verify", help="bialgebra + antipode axioms")
    hv.add_argument("--max-vertices", type=_at_least(0), default=3)
    hv.add_argument("--max-flags", type=_at_least(0), default=6)
    hv.set_defaults(handler=cmd_hopf_verify)

    bk = algebra_sub.add_parser("birkhoff", help="BPHZ-decompose a character JSON")
    bk.add_argument("--in", dest="input", required=True)
    bk.add_argument("--degree", type=_at_least(0),
                    help="override the character's degree bound")
    bk.add_argument("--out", required=True)
    bk.set_defaults(handler=cmd_birkhoff)

    halting_p = sub.add_parser("halting", help="orbit probes")
    halting_sub = halting_p.add_subparsers(dest="cmd", required=True)
    probe = halting_sub.add_parser("probe", help="classify a tau_f orbit")
    probe.add_argument("--function", choices=sorted(_FUNCTIONS), required=True)
    probe.add_argument("--mode", choices=["transparent", "opaque"],
                       default="transparent")
    probe.add_argument("--x", type=_at_least(0), default=1,
                       help="first coordinate as a natural label (0 means *)")
    probe.add_argument("--y", type=_at_least(0), default=1,
                       help="second coordinate as a natural label (0 means *)")
    probe.add_argument("--budget", type=_at_least(0), required=True)
    probe.add_argument("--fuel", type=_at_least(0), default=10_000)
    probe.add_argument("--out", required=True)
    probe.set_defaults(handler=cmd_halting_probe)

    zipf_p = sub.add_parser("zipf", help="rank-frequency analysis")
    zipf_sub = zipf_p.add_subparsers(dest="cmd", required=True)
    fit = zipf_sub.add_parser("fit", help="rank tokens and fit the power law")
    fit.add_argument("--corpus", help="plain-text corpus; whitespace tokens")
    fit.add_argument("--lowercase", action="store_true")
    # the corpus holds three lists per type and one entry per token: the
    # bounds keep a run near 150 MiB instead of exhausting memory
    fit.add_argument("--types", type=_at_least(1, 100_000), default=1000,
                     help="synthetic corpus: number of types (at most 100000)")
    fit.add_argument("--tokens", type=_at_least(0, 10_000_000), default=100_000,
                     help="synthetic corpus: number of tokens (at most 10000000)")
    fit.add_argument("--seed", type=int, default=20260809)
    fit.add_argument("--out", required=True)
    fit.set_defaults(handler=cmd_zipf_fit)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its help (0) or a usage error (2)
        return exc.code
    try:
        return args.handler(args)
    except (UsageError, OSError, ValueError) as exc:
        # every package error is a ValueError, and so is json.JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
