import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
import hypothesis.strategies as st

from graph_oracles import disjoint_union, flag_graph_from_label, is_generator
from kolmex.cli import build_parser, main
from kolmex.graphs import canonical_label
from kolmex.hopf import enumerate_connected_oriented
from kolmex.renorm import Character, MSElement, character_to_json
from kolmex import __version__
from kolmex.rational import shown

F = Fraction


def run(argv):
    return main(argv)


# -- codes cloud -------------------------------------------------------------

def test_cloud_outputs_and_determinism(tmp_path):
    csv1 = tmp_path / "cloud1.csv"
    svg1 = tmp_path / "cloud1.svg"
    args = [
        "codes", "cloud", "--q", "2", "--n", "8", "--size", "8",
        "--count", "40", "--seed", "7",
    ]
    assert run(args + ["--out", str(csv1), "--svg", str(svg1)]) == 0
    csv2 = tmp_path / "cloud2.csv"
    svg2 = tmp_path / "cloud2.svg"
    assert run(args + ["--out", str(csv2), "--svg", str(svg2)]) == 0
    c1, c2 = csv1.read_text(), csv2.read_text()
    assert c1.splitlines()[1:] == c2.splitlines()[1:]  # identical data rows
    assert svg1.read_text().splitlines()[2:] == svg2.read_text().splitlines()[2:]
    lines = c1.splitlines()
    assert lines[0].startswith(f"# kolmex {__version__} proxy-v1 ")
    assert lines[1] == "q,n,size,k,d,R,delta,K_bits"
    assert len(lines) == 2 + 40
    assert "<svg" in svg1.read_text() and 'viewBox="0 0 800 600"' in svg1.read_text()


def test_cloud_failed_svg_leaves_no_csv(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["codes", "cloud", "--n", "6", "--count", "5", "--out", str(out),
                "--svg", str(tmp_path / "nodir" / "x.svg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err
    assert list(tmp_path.iterdir()) == []  # neither the CSV nor a .tmp file


@pytest.mark.parametrize("svg", ["missing/x.svg", "taken"], ids=["missing_dir", "directory"])
def test_cloud_failed_svg_keeps_an_earlier_csv_byte_for_byte(tmp_path, capsys, svg):
    out = tmp_path / "cloud.csv"
    out.write_bytes(b"# an earlier run\r\nq,n\n")
    (tmp_path / "taken").mkdir()
    assert run(["codes", "cloud", "--n", "6", "--size", "4", "--count", "5",
                "--out", str(out), "--svg", str(tmp_path / svg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err
    assert out.read_bytes() == b"# an earlier run\r\nq,n\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.csv", "taken"]
    assert list((tmp_path / "taken").iterdir()) == []


def test_cloud_svg_equal_to_out_writes_the_svg(tmp_path, capsys):
    out = tmp_path / "x.out"
    assert run(["codes", "cloud", "--n", "6", "--size", "4", "--count", "5",
                "--out", str(out), "--svg", str(out)]) == 0
    assert capsys.readouterr().out == (f"wrote 5 code points to {out}\n"
                                       f"wrote plot to {out}\n")
    assert list(tmp_path.iterdir()) == [out]
    assert "<svg" in out.read_text()  # the later file wins


def test_cloud_stdout_names_both_outputs(tmp_path, capsys):
    out, svg = tmp_path / "x.csv", tmp_path / "x.svg"
    assert run(["codes", "cloud", "--n", "6", "--count", "5", "--out", str(out),
                "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == (f"wrote 5 code points to {out}\n"
                                       f"wrote plot to {svg}\n")
    assert sorted(tmp_path.iterdir()) == [out, svg]


def test_cloud_rejects_bad_n(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["codes", "cloud", "--n", "0", "--size", "4", "--count", "1",
                "--out", str(out)]) == 2
    assert not out.exists()  # no partial files
    assert "error" in capsys.readouterr().err


# -- codes sweep -------------------------------------------------------------

def test_sweep_rows_and_monotonicity(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run([
        "codes", "sweep", "--q", "2", "--n", "6", "--size", "4",
        "--count", "40", "--seed", "3", "--rate", "1/3", "--delta", "1/6",
        "--beta-min", "0", "--beta-max", "0.3", "--steps", "7",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "R,Delta,beta,Z,terms"
    zs = [float(line.split(",")[3]) for line in lines[2:]]
    assert len(zs) == 7
    assert all(b <= a * (1 + 1e-12) for a, b in zip(zs, zs[1:]))


@pytest.mark.parametrize("beta_min", ["-5", "-1e307"])
def test_sweep_z_overflow_exits_2_naming_beta(tmp_path, capsys, beta_min):
    out = tmp_path / "sweep.csv"
    assert run(["codes", "sweep", "--q", "2", "--n", "6", "--size", "4",
                "--count", "200", "--seed", "3", "--rate", "1/3", "--delta", "1/6",
                f"--beta-min={beta_min}", "--beta-max", "1", "--steps", "11",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: Z overflows binary64 at beta={float(beta_min):.17g}"]
    assert list(tmp_path.iterdir()) == []


def test_sweep_refuses_negative_eta_before_sampling(tmp_path, capsys, monkeypatch):
    from kolmex import codes

    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(codes, "sample_codes", refuse)
    out = tmp_path / "sweep.csv"
    assert run(SWEEP + SWEEP_RATE + ["--eta", "-1", "--out", str(out)]) == 2
    assert "error: argument --eta: must be >= 0, not -1.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_empty_selection_gives_zeros(tmp_path):
    out = tmp_path / "sweep0.csv"
    assert run([
        "codes", "sweep", "--q", "2", "--n", "6", "--size", "4",
        "--count", "5", "--seed", "3", "--rate", "99/100", "--delta", "0",
        "--eta", "0", "--beta-min", "0", "--beta-max", "1", "--steps", "3",
        "--out", str(out),
    ]) == 0
    for line in out.read_text().splitlines()[2:]:
        cols = line.split(",")
        assert float(cols[3]) == 0.0 and cols[4] == "0"


# -- algebra -----------------------------------------------------------------

def test_feynman_check_match(capsys):
    assert run(["algebra", "feynman-check", "--c3", "1", "--c4", "1",
                "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "match through L^2" in out


def test_feynman_check_runs_higher_order(capsys):
    assert run(["algebra", "feynman-check", "--c3", "1/2", "--c4=-2/3",
                "--order", "3"]) == 0
    assert "match through L^3" in capsys.readouterr().out


def test_feynman_check_reports_mismatch(capsys, monkeypatch):
    # a defective oracle must be caught: exit 1 with the first bad order;
    # the handler imports the oracle from kolmex.feynman when it runs
    import kolmex.feynman as feynman_mod
    from kolmex.feynman import LambdaSeries

    real = feynman_mod.gaussian_oracle

    def broken(theory, order):
        series = real(theory, order)
        coeffs = list(series.coeffs)
        coeffs[-1] += 1
        return LambdaSeries(tuple(coeffs))

    monkeypatch.setattr(feynman_mod, "gaussian_oracle", broken)
    assert run(["algebra", "feynman-check", "--c3", "1", "--c4", "1",
                "--order", "1"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH at L^1" in out


def test_feynman_check_budget_counts_connected_states_only(capsys):
    # the linked expansion generates the connected classes alone: order 3
    # needs 561 states, where every class would need 791
    check = ["algebra", "feynman-check", "--c3", "1", "--c4", "1", "--order", "3"]
    assert run(check + ["--budget", "560"]) == 2
    assert "exceeded budget 560" in capsys.readouterr().err
    assert run(check + ["--budget", "561"]) == 0
    assert "match through L^3" in capsys.readouterr().out


def test_feynman_check_budget_answers_at_a_deep_order(capsys):
    # the degree sequences of order 2000 run 4,000 vertices deep; they are
    # generated lazily, so the budget is spent before any long one is built
    assert run(["algebra", "feynman-check", "--c3", "1", "--c4", "1", "--order", "2000",
                "--budget", "1000"]) == 2
    err = capsys.readouterr().err
    assert "exceeded budget 1000" in err and "Traceback" not in err


def test_hopf_verify_small(capsys):
    assert run(["algebra", "hopf-verify", "--max-vertices", "2",
                "--max-flags", "4"]) == 0
    out = capsys.readouterr().out
    assert "all axioms pass" in out


def test_hopf_verify_catches_a_wrong_cut_count(capsys, monkeypatch):
    # S comes from the left law's recursion, so that law holds for any
    # coproduct; doubling one proper cut count of one generator must fail
    # the right law on that generator.  The cut needs a side with proper
    # cuts of its own: with primitive sides, S(x')x'' = x'S(x'')
    import kolmex.hopf as hopf

    real = hopf.coproduct_of_generator
    label, i = next((g, i) for g in enumerate_connected_oriented(3, 6)
                    for i, (left, right, _) in enumerate(real(g))
                    if left and right and (hopf.reduced_coproduct_of_monomial(left)
                                           or hopf.reduced_coproduct_of_monomial(right)))

    def doubled(generator):
        terms = real(generator)
        if generator != label:
            return terms
        left, right, count = terms[i]
        return terms[:i] + ((left, right, 2 * count),) + terms[i + 1:]

    caches = (hopf.coproduct_of_monomial, hopf._antipode_monomial)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(hopf, "coproduct_of_generator", doubled)
    try:
        code = run(["algebra", "hopf-verify", "--max-vertices", "3", "--max-flags", "6"])
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    assert code == 1
    assert f"FAIL: antipode law fails on {label}\n" in capsys.readouterr().out


def test_birkhoff_cli(tmp_path):
    family = enumerate_connected_oriented(2, 3)
    values = {}
    for i, label in enumerate(family):
        values[label] = MSElement.from_coeffs(
            {-1: F(i + 1, 2), 0: F(3), 1: F(1, 5)}
        )
    phi = Character(values, degree_bound=3)
    src = tmp_path / "char.json"
    src.write_text(character_to_json(phi))
    out = tmp_path / "birkhoff.json"
    assert run(["algebra", "birkhoff", "--in", str(src), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) >= {"minus", "plus", "degree_bound", "version"}
    by_label = {entry["graph"]: entry["value"] for entry in doc["minus"]}
    # primitive generators: phi_minus = -polar part
    bare_vertex = family[0]
    assert by_label[bare_vertex]["polar"] == [str(-values[bare_vertex].polar[0])]
    for entry in doc["plus"]:
        assert entry["value"]["polar"] == []


def test_birkhoff_missing_file(tmp_path, capsys):
    out = tmp_path / "o.json"
    assert run(["algebra", "birkhoff", "--in", str(tmp_path / "none.json"),
                "--out", str(out)]) == 2
    assert not out.exists()


# -- halting + zipf ------------------------------------------------------------

def test_probe_fixed_point(tmp_path):
    out = tmp_path / "probe.json"
    assert run(["halting", "probe", "--function", "evens", "--x", "1", "--y", "3",
                "--budget", "100", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "finite_orbit"
    assert doc["certificate"]["period"] == 1
    assert doc["proxy_version"] == "proxy-v1"


def test_probe_budget_zero_inconclusive(tmp_path):
    out = tmp_path / "probe0.json"
    assert run(["halting", "probe", "--function", "identity", "--budget", "0",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "inconclusive"


def test_probe_opaque_collatz(tmp_path):
    out = tmp_path / "collatz.json"
    assert run(["halting", "probe", "--function", "collatz", "--mode", "opaque",
                "--x", "1", "--y", "27", "--budget", "50", "--fuel", "1000",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] in ("finite_orbit", "inconclusive")


def test_zipf_synthetic(tmp_path, capsys):
    out = tmp_path / "zipf.csv"
    assert run(["zipf", "fit", "--types", "200", "--tokens", "20000",
                "--seed", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "exponent=" in printed
    lines = out.read_text().splitlines()
    assert lines[1] == "rank,token,count,frequency"
    assert len(lines) == 2 + 200


def test_zipf_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("The the THE cat sat\non the mat\n")
    out = tmp_path / "ranks.csv"
    assert run(["zipf", "fit", "--corpus", str(corpus), "--lowercase",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2].startswith("1,the,4,")


def test_zipf_quotes_tokens_with_commas_or_quotes(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text('a,b a,b c "q" x"y,z\n')
    out = tmp_path / "ranks.csv"
    assert run(["zipf", "fit", "--corpus", str(corpus), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0] == ["rank", "token", "count", "frequency"]
    assert [row[:3] for row in rows[1:]] == [
        ["1", "a,b", "2"], ["2", '"q"', "1"], ["3", "c", "1"], ["4", 'x"y,z', "1"]]
    assert out.read_text().splitlines()[2:4] == ['1,"a,b",2,0.40000000000000002',
                                                 '2,"""q""",1,0.20000000000000001']


def test_zipf_single_type_flagged(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("solo solo solo")
    out = tmp_path / "ranks.csv"
    assert run(["zipf", "fit", "--corpus", str(out.with_name('corpus.txt')),
                "--out", str(out)]) == 0
    assert "fit=undefined" in capsys.readouterr().out


def test_zipf_missing_corpus(tmp_path):
    assert run(["zipf", "fit", "--corpus", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "o.csv")]) == 2


PROBE = ["halting", "probe", "--function", "collatz", "--x", "3", "--y", "5"]
CLOUD = ["codes", "cloud", "--n", "6", "--count", "5"]
SWEEP = ["codes", "sweep", "--n", "6", "--size", "4", "--count", "5",
         "--beta-min", "0", "--beta-max", "1", "--steps", "3"]
SWEEP_RATE = ["--rate", "1/3", "--delta", "1/6"]
HUGE_EXPONENT = ("not a rational with a nonzero denominator and a decimal exponent "
                 "of at most 4300: '1e700000'")


@pytest.mark.parametrize("argv, message", [
    (PROBE + ["--budget", "-5"], "--budget: must be >= 0, not -5"),
    (PROBE + ["--budget", "50", "--fuel", "-5"], "--fuel: must be >= 0, not -5"),
    (PROBE + ["--budget", "50", "--x", "-1"], "--x: must be >= 0, not -1"),
    (PROBE + ["--budget", "50", "--y", "-1"], "--y: must be >= 0, not -1"),
    (["zipf", "fit", "--tokens", "-5"], "--tokens: must be >= 0, not -5"),
    (["zipf", "fit", "--types", "0"], "--types: must be >= 1, not 0"),
    (["zipf", "fit", "--tokens", "10000001"], "--tokens: must be <= 10000000, not 10000001"),
    (["zipf", "fit", "--types", "100001"], "--types: must be <= 100000, not 100001"),
    (CLOUD + ["--q", "1"], "--q: must be >= 2, not 1"),
    (CLOUD + ["--q", "0"], "--q: must be >= 2, not 0"),
    (CLOUD + ["--q", "-3"], "--q: must be >= 2, not -3"),
    (SWEEP + SWEEP_RATE + ["--q", "1"], "--q: must be >= 2, not 1"),
    (CLOUD + ["--size", "0"], "--size: must be >= 2, not 0"),
    (SWEEP + SWEEP_RATE + ["--size", "-1"], "--size: must be >= 2, not -1"),
    (CLOUD + ["--count", "ten"], "--count: not an integer: 'ten'"),
    (SWEEP + SWEEP_RATE + ["--steps", "0"], "--steps: must be >= 1, not 0"),
    (["algebra", "feynman-check", "--c4", "1", "--order", "2", "--budget", "-1"],
     "--budget: must be >= 0, not -1"),
    (["algebra", "feynman-check", "--order", "-1"], "--order: must be >= 0, not -1"),
    (["algebra", "feynman-check", "--c3", "1e700000", "--order", "1"],
     "--c3: " + HUGE_EXPONENT),
    (SWEEP + ["--rate", "1/3", "--delta", "1e700000"], "--delta: " + HUGE_EXPONENT),
], ids=["probe_budget", "probe_fuel", "probe_x", "probe_y", "zipf_tokens", "zipf_types",
        "zipf_tokens_bound", "zipf_types_bound",
        "cloud_q1", "cloud_q0", "cloud_q_negative", "sweep_q1", "cloud_size0",
        "sweep_size_negative", "cloud_count_text", "sweep_steps", "feynman_budget",
        "feynman_order", "feynman_c3_exponent", "sweep_delta_exponent"])
def test_negative_count_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run(argv + (["--out", str(out)] if argv[0] != "algebra" else [])) == 2
    assert f"error: argument {message}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
@pytest.mark.parametrize("option", ["--order", "--budget"])
def test_integer_options_past_the_digit_limit_are_refused_by_length(capsys, option, sign):
    """An integer of more digits than int() reads is refused as too long,
    quoted by a prefix and its digit count, not whole."""
    argv = ["algebra", "feynman-check", "--c4", "1", "--order", "1", option, sign + "9" * 5000]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == (f"kolmex algebra feynman-check: error: argument {option}: "
                   f"too many digits: {(sign + '9' * 20)[:20]}... (5000 digits)")
    assert len(err.encode()) < 200


LONG_C3, LONG_RATE, LONG_ETA = "1e" + "9" * 5000, str(2**1024), "9" * 4999 + "x"


@pytest.mark.parametrize("argv, message", [
    (["algebra", "feynman-check", "--order", "0", "--c3", LONG_C3],
     "feynman-check: error: argument --c3: not a rational with a nonzero denominator "
     "and a decimal exponent of at most 4300: " + shown(LONG_C3)),
    (SWEEP + ["--delta", "1/6", "--rate", LONG_RATE],
     "sweep: error: argument --rate: too large for a float: " + shown(LONG_RATE)),
    (SWEEP + SWEEP_RATE + ["--eta", LONG_ETA],
     "sweep: error: argument --eta: not a number: " + shown(LONG_ETA)),
], ids=["c3", "rate", "eta"])
def test_long_rational_and_float_options_are_refused_briefly(tmp_path, capsys, argv, message):
    """A rational or float option is quoted by a prefix and its length, not whole."""
    out = tmp_path / "out"
    assert run(argv + (["--out", str(out)] if argv[0] != "algebra" else [])) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.endswith(message) and len(err.encode()) < 200
    assert list(tmp_path.iterdir()) == []


def test_zipf_bounds_themselves_parse():
    args = build_parser().parse_args(
        ["zipf", "fit", "--types", "100000", "--tokens", "10000000", "--out", "o.csv"])
    assert (args.types, args.tokens) == (100_000, 10_000_000)


@pytest.mark.parametrize("argv", [["--types", "0"], ["--tokens", "-5"]],
                         ids=["types", "tokens"])
def test_zipf_checks_synthetic_options_with_a_corpus_too(tmp_path, capsys, argv):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat\n")
    out = tmp_path / "ranks.csv"
    assert run(["zipf", "fit", "--corpus", str(corpus), "--out", str(out)] + argv) == 2
    assert f"error: argument {argv[0]}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["halting", "probe", "--help"], 0), ([], 2), (["zipf"], 2),
], ids=["help", "command_help", "no_group", "no_command"])
def test_main_returns_the_parser_exit_code(capsys, argv, code):
    assert run(argv) == code
    assert "usage: kolmex" in capsys.readouterr()[code // 2]  # stdout on 0, stderr on 2


@pytest.mark.parametrize("argv, option", [
    (SWEEP + ["--rate", "1/0", "--delta", "0"], "--rate"),
    (SWEEP + ["--rate", "1/3", "--delta", "2/0"], "--delta"),
    (["algebra", "feynman-check", "--c3", "1/0", "--order", "2"], "--c3"),
    (["algebra", "feynman-check", "--c4", "3/0", "--order", "2"], "--c4"),
], ids=["sweep_rate", "sweep_delta", "feynman_c3", "feynman_c4"])
def test_bad_fraction_exits_2(tmp_path, capsys, argv, option):
    assert run(argv + (["--out", str(tmp_path / "s.csv")] if argv[0] == "codes" else [])) == 2
    assert f"argument {option}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("betas, option", [
    (["--beta-min", "0", "--beta-max", "nan"], "argument --beta-max: must be finite"),
    (["--beta-min=-inf", "--beta-max", "1"], "argument --beta-min: must be finite"),
    (["--beta-min", "0", "--beta-max", "1e400"], "argument --beta-max: must be finite"),
    (["--beta-min", "2", "--beta-max", "1"], "error: --beta-min must be <= --beta-max"),
    (["--beta-min", "0", "--beta-max", "1", "--eta", "inf"], "argument --eta: must be finite"),
], ids=["nan", "inf", "overflow", "reversed", "eta_inf"])
def test_sweep_bad_beta_range_exits_2(tmp_path, capsys, betas, option):
    assert run(["codes", "sweep", "--n", "6", "--size", "4", "--count", "5",
                "--steps", "3", "--rate", "1/3", "--delta", "1/6",
                "--out", str(tmp_path / "s.csv")] + betas) == 2
    assert option in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cloud_rejects_n_past_the_sampler_span(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["codes", "cloud", "--q", "2", "--n", "80", "--size", "4",
                "--count", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--n 80" in err and "2^64" in err
    assert list(tmp_path.iterdir()) == []


def test_cloud_rejects_q_past_the_symbol_table(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["codes", "cloud", "--q", "37", "--n", "2", "--size", "4",
                "--count", "2", "--out", str(out)]) == 2
    assert "error: argument --q: must be <= 36, not 37" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["codes", "cloud", "--n", "2", "--count", "0"],
    SWEEP[:-6] + ["--count", "0", "--beta-min", "0", "--beta-max", "1", "--steps", "1"]
    + SWEEP_RATE,
], ids=["cloud", "sweep"])
def test_q_past_the_symbol_table_is_refused_with_no_codes_to_sample(tmp_path, capsys, argv):
    assert run(argv + ["--q", "37", "--out", str(tmp_path / "x.csv")]) == 2
    assert "error: argument --q: must be <= 36, not 37" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["codes", "cloud", "--q", "2", "--n", "3", "--size", "9", "--count", "1"],
    ["codes", "sweep", "--q", "3", "--n", "2", "--size", "10", "--count", "1",
     "--beta-min", "0", "--beta-max", "1", "--steps", "2"] + SWEEP_RATE,
], ids=["cloud", "sweep"])
def test_size_past_q_to_the_n_names_its_options(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "--size" in err and "--n" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ["--max-vertices", "--max-flags"])
def test_hopf_verify_negative_bound_exits_2(capsys, option):
    assert run(["algebra", "hopf-verify", option, "-3"]) == 2
    captured = capsys.readouterr()
    assert f"argument {option}: must be >= 0, not -3" in captured.err
    assert "all axioms pass" not in captured.out


def test_failed_write_leaves_no_tmp_file(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()  # an output path that is a directory is refused
    assert run(["zipf", "fit", "--types", "10", "--tokens", "100",
                "--out", str(taken)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_verbose_echoes_config(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run(["--verbose", "codes", "cloud", "--n", "4", "--size", "4",
                "--count", "2", "--seed", "1", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    config = json.loads(err.strip().splitlines()[0])
    assert config["cmd"] == "codes cloud" and config["seed"] == 1


# each option of every subcommand: (its text, its value in the config)
OPTION_TEXTS = {
    "--q": ("3", 3), "--n": ("3", 3), "--size": ("4", 4), "--count": ("2", 2),
    "--seed": ("-5", -5), "--rate": ("1", "1"), "--delta": ("1/3", "1/3"),
    "--eta": ("0.5", 0.5), "--beta-min": ("-1", -1.0), "--beta-max": ("2.5", 2.5),
    "--steps": ("2", 2), "--c3": ("1", "1"), "--c4": ("-2/3", "-2/3"), "--order": ("1", 1),
    "--budget": ("500", 500), "--max-vertices": ("1", 1), "--max-flags": ("2", 2),
    "--in": ("DIR/in/character.json", "character.json"), "--degree": ("2", 2),
    "--function": ("evens", "evens"), "--mode": ("opaque", "opaque"), "--x": ("1", 1),
    "--y": ("3", 3), "--fuel": ("50", 50), "--corpus": ("DIR/in/some.txt", "some.txt"),
    "--lowercase": (None, True), "--types": ("5", 5), "--tokens": ("20", 20),
}


def subcommands():
    """(group, cmd, subparser) for every subcommand of the parser."""
    def choices(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))

    return [(group, cmd, sub) for group, parser in choices(build_parser()).items()
            for cmd, sub in choices(parser).items()]


@pytest.mark.parametrize("group, cmd, parser", subcommands(),
                         ids=[cmd for _, cmd, _ in subcommands()])
def test_config_holds_every_option_but_the_output_paths(tmp_path, capsys, group, cmd, parser):
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "character.json").write_text(json.dumps({
        "degree_bound": 3, "values": [{"graph": "og:1|-.0.0.1|",
                                       "value": {"polar": [1], "regular": ["1/3"]}}]}))
    (tmp_path / "in" / "some.txt").write_text("the cat the dog\n")
    argv, expected = ["--verbose", group, cmd], {"cmd": f"{group} {cmd}"}
    for action in parser._actions:
        option = action.option_strings[-1]
        if option in ("--out", "--svg"):
            argv.append(f"{option}={tmp_path / option[2:]}")
        elif option != "--help":
            text, expected[option[2:].replace("-", "_")] = OPTION_TEXTS[option]
            argv.append(option if text is None else f"{option}={text}")
    argv = [a.replace("DIR", str(tmp_path)) for a in argv]
    assert run(argv) == 0
    config = json.loads(capsys.readouterr().err.splitlines()[0])
    assert config == expected
    if cmd in ("cloud", "sweep", "fit"):  # "# kolmex <version> <proxy version> <config>"
        header = (tmp_path / "out").read_text().splitlines()[0]
        assert json.loads(header.split(" ", 4)[4]) == expected
    elif cmd == "probe":
        assert json.loads((tmp_path / "out").read_text())["config"] == expected


def test_config_writes_a_default_rational_as_text(capsys):
    assert run(["--verbose", "algebra", "feynman-check", "--order", "1"]) == 0
    config = json.loads(capsys.readouterr().err.splitlines()[0])
    assert (config["c3"], config["c4"]) == ("0", "0")


MALFORMED_CHARACTERS = {
    "no_values": ('{"degree_bound": 4}', "lacks 'values'"),
    "values_not_list": ('{"degree_bound": 4, "values": "x"}', "values must be a list"),
    "no_value": ('{"degree_bound": 4, "values": [{"graph": "g"}]}',
                 "values[0] lacks 'value'"),
    "no_polar": ('{"degree_bound": 4, "values": [{"graph": "g", '
                 '"value": {"regular": ["1"]}}]}', "values[0].value lacks 'polar'"),
    "no_regular": ('{"degree_bound": 4, "values": [{"graph": "g", '
                   '"value": {"polar": []}}]}', "values[0].value lacks 'regular'"),
    "negative_truncation": ('{"degree_bound": 4, "truncation": -2, "values": []}',
                            "truncation must be a non-negative integer"),
    "truncation_past_the_cap": ('{"degree_bound": 4, "truncation": 4097, "values": []}',
                                "truncation must be at most 4096, got 4097"),
    "huge_truncation": ('{"degree_bound": 4, "truncation": 1000000000000000000000000000000, '
                        '"values": [{"graph": "og:1|-.0.0.0|", '
                        '"value": {"polar": [], "regular": ["1"]}}]}',
                        "truncation must be at most 4096"),
    "bool_coefficient": ('{"degree_bound": 4, "values": [{"graph": "g", '
                         '"value": {"polar": [], "regular": [true]}}]}',
                         "values[0].value.regular[0]: bad coefficient True"),
    "float_coefficient": ('{"degree_bound": 4, "values": [{"graph": "g", '
                          '"value": {"polar": [], "regular": [0.1]}}]}',
                          "values[0].value.regular[0]: bad coefficient 0.1"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CHARACTERS))
def test_birkhoff_malformed_character_exits_2(tmp_path, capsys, name):
    text, message = MALFORMED_CHARACTERS[name]
    src = tmp_path / "char.json"
    src.write_text(text)
    out = tmp_path / "factors.json"
    assert run(["algebra", "birkhoff", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("label", [
    "og:2|-.0.0.0;-.0.0.0|",  # a product of two bare vertices
    "og:1|-.-1.0.0|",         # a negative count
    "og:1|-.0.0.0|0>0x1",     # a loop written as an edge
])
def test_birkhoff_rejects_a_graph_that_is_not_a_generator(tmp_path, capsys, label):
    src = tmp_path / "char.json"
    src.write_text(json.dumps({"degree_bound": 4, "values": [
        {"graph": label, "value": {"polar": [], "regular": ["1"]}}]}))
    out = tmp_path / "factors.json"
    assert run(["algebra", "birkhoff", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: values[0].graph: ") and repr(label) in err


def test_birkhoff_refuses_a_label_past_the_vertex_bound_at_once(tmp_path, capsys):
    # an edge each way between every two of 12 vertices: all vertices
    # alike, so its label search would run for hours
    edges = ",".join(f"{a}>{b}x1" for a in range(12) for b in range(12) if a != b)
    label = f"og:12|{';'.join(['-.0.0.0'] * 12)}|{edges}"
    src = tmp_path / "char.json"
    src.write_text(json.dumps({"degree_bound": 4, "values": [
        {"graph": graph, "value": {"polar": [], "regular": ["1"]}}
        for graph in ("og:1|-.0.0.0|", label)]}))
    out = tmp_path / "factors.json"
    start = time.perf_counter()
    assert run(["algebra", "birkhoff", "--in", str(src), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: values[1].graph: ")
    assert "has 12 vertices, past the canonical-form bound 10" in err


SMALL_GENERATORS = enumerate_connected_oriented(2, 3)
LABEL_TEXT = "0123-.;|>x,:ogu"


@st.composite
def fuzzed_labels(draw):
    """A generator, a product of two, a generator with one or two
    characters mutated, or garbage text."""
    kind = draw(st.sampled_from(["generator"] * 3 + ["product", "mutated", "garbage"]))
    label = draw(st.sampled_from(SMALL_GENERATORS))
    if kind == "product":
        other = draw(st.sampled_from(SMALL_GENERATORS))
        return canonical_label(disjoint_union(flag_graph_from_label(label),
                                              flag_graph_from_label(other)))
    if kind == "mutated":
        for _ in range(draw(st.integers(1, 2))):
            i = draw(st.integers(0, len(label)))
            cut = draw(st.integers(0, 1))  # replace the character at i, or insert
            label = label[:i] + draw(st.sampled_from(LABEL_TEXT)) + label[i + cut:]
        return label
    if kind == "garbage":
        return draw(st.text(alphabet=LABEL_TEXT, max_size=16) | st.text(max_size=6))
    return label


LONG_DIGITS = "-" + "9" * 4400  # past the interpreter's 4300-digit limit


@st.composite
def coefficient_lists(draw):
    """Up to three coefficients; half the lists hold one bad one."""
    coeffs = draw(st.lists(st.integers(-5, 5) | st.sampled_from(["1", "-2/3", LONG_DIGITS]),
                           max_size=3))
    if draw(st.booleans()):
        bad = draw(st.booleans() | st.floats() | st.sampled_from(["1/0", "nan", "x", ""]))
        coeffs.insert(draw(st.integers(0, len(coeffs))), bad)
    return coeffs


@settings(max_examples=80, deadline=None)
@given(st.lists(fuzzed_labels(), min_size=1, max_size=3),
       st.lists(coefficient_lists(), min_size=2, max_size=2),
       st.integers(0, 6), st.integers(0, 3))
def test_birkhoff_on_fuzzed_characters_exits_0_or_2_and_leaves_no_partial_file(
        labels, coeffs, degree, truncation):
    doc = {"degree_bound": degree, "truncation": truncation, "values": [
        {"graph": label, "value": {"polar": coeffs[0], "regular": coeffs[1]}}
        for label in labels]}
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "char.json"), Path(tmp, "factors.json")
        src.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["algebra", "birkhoff", "--in", str(src), "--out", str(out)])
        event(f"exit {code}")
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        assert "Exceeds the limit" not in err.getvalue()
        assert sorted(os.listdir(tmp)) == (["char.json", "factors.json"] if code == 0
                                           else ["char.json"])
    if not all(is_generator(label) for label in labels):
        assert code == 2


# -- every command: a contract fuzz of cli.main ----------------------------------

@st.composite
def mostly(draw, good, bad):
    """Drawn seven times in eight from `good`, else from `bad`."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 7 else good))


FRACTION_TEXTS = mostly(["0", "1", "-1", "1/3", "-5/2", "2.5", "1e-3", "1e40",
                         "-99999999999999999999/7", "1e400", "1e4300", "-1e-4300"],
                        ["1/0", "0/0", "nan", "inf", "-inf", "", "x", "10**40", "1e700000",
                         "-1e4300/7"])
FLOAT_TEXTS = mostly(["0", "0.25", "1", "-1", "2.5", "-50"],
                     ["nan", "inf", "-inf", "1e400", "-1e400", "", "x"])
BAD_INTEGERS = ["0", "-1", "-7", str(-2**70), "", "x", "1.5", "1/2", "nan", "inf", "1e400"]
OUTS = mostly(["DIR/out"], ["DIR/missing/out", "DIR/taken"])
PASS_LINES = {"feynman-check": "match through L^", "hopf-verify": "all axioms pass"}


def integer_texts(low, high, huge=False):
    """An integer in low..high, or a zero, negative or non-numeric text; a
    huge one only where the command refuses it without running."""
    return mostly([str(i) for i in range(low, high + 1)],
                  BAD_INTEGERS + [str(2**70)] * huge)


@st.composite
def character_texts(draw):
    """Character JSON with fuzzed labels and coefficients, booleans, floats
    and strings for its integers, or cut short."""
    bound = mostly(range(7), [True, 2.5, -1, "4", None])
    doc = {"degree_bound": draw(bound), "truncation": draw(bound), "values": [
        {"graph": label, "value": {"polar": draw(coefficient_lists()),
                                   "regular": draw(coefficient_lists())}}
        for label in draw(st.lists(fuzzed_labels(), max_size=2))]}
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 7)) == 7 else text


@st.composite
def command_lines(draw):
    """(subcommand, argv, input files), paths under DIR.  A required
    option is left out one time in ten, one with a cheap default half the
    time; one with a costly default is always given, small."""
    REQUIRED, CHEAP, COSTLY = 1, 5, 0  # tenths of the draws that leave it out

    def option(name, texts, left_out):
        if draw(st.integers(0, 9)) < left_out:
            return []
        return [f"{name}={draw(texts)}"]

    seeds = mostly(["-5", "0", "7", str(2**70)], ["", "x"])
    files = {}
    command = draw(st.sampled_from(["cloud", "sweep", "feynman-check", "hopf-verify",
                                    "birkhoff", "probe", "fit"]))
    if command in ("cloud", "sweep"):
        argv = (["codes", command] + option("--q", integer_texts(2, 5, huge=True), CHEAP)
                + option("--n", integer_texts(1, 8, huge=True), REQUIRED)
                + option("--size", integer_texts(2, 16, huge=True),
                         CHEAP if command == "cloud" else REQUIRED)
                + option("--count", integer_texts(0, 3), REQUIRED)
                + option("--seed", seeds, CHEAP))
        if command == "cloud":
            argv += option("--svg", OUTS, CHEAP)
        else:
            argv += (option("--rate", FRACTION_TEXTS, REQUIRED)
                     + option("--delta", FRACTION_TEXTS, REQUIRED)
                     + option("--eta", FLOAT_TEXTS, CHEAP)
                     + option("--beta-min", FLOAT_TEXTS, REQUIRED)
                     + option("--beta-max", FLOAT_TEXTS, REQUIRED)
                     + option("--steps", integer_texts(1, 5), REQUIRED))
    elif command == "feynman-check":
        argv = (["algebra", command] + option("--c3", FRACTION_TEXTS, CHEAP)
                + option("--c4", FRACTION_TEXTS, CHEAP)
                + option("--order", integer_texts(0, 3), REQUIRED)
                + option("--budget", integer_texts(0, 600, huge=True), CHEAP))
    elif command == "hopf-verify":
        argv = (["algebra", command] + option("--max-vertices", integer_texts(0, 3), COSTLY)
                + option("--max-flags", integer_texts(0, 4), COSTLY))
    elif command == "birkhoff":
        files["char.json"] = draw(character_texts())
        argv = (["algebra", command]
                + option("--in", mostly(["DIR/char.json"], ["DIR/none.json"]), REQUIRED)
                + option("--degree", integer_texts(0, 6), CHEAP))
    elif command == "probe":
        argv = (["halting", command]
                + option("--function", mostly(["collatz", "empty", "evens", "identity"],
                                              ["", "nope"]), REQUIRED)
                + option("--mode", mostly(["transparent", "opaque"], ["x"]), CHEAP)
                + option("--x", integer_texts(0, 30, huge=True), CHEAP)
                + option("--y", integer_texts(0, 30, huge=True), CHEAP)
                + option("--budget", integer_texts(0, 50), REQUIRED)
                + option("--fuel", integer_texts(0, 200), COSTLY))
    else:
        argv = ["zipf", command]
        corpus = draw(st.sampled_from([None, "DIR/corpus.txt", "DIR/none.txt"]))
        if corpus:
            files["corpus.txt"] = draw(st.text(st.characters(blacklist_categories=["Cs"]),
                                               max_size=80))
            argv += ["--corpus", corpus] + ["--lowercase"] * draw(st.booleans())
        argv += (option("--types", integer_texts(1, 20), COSTLY)
                 + option("--tokens", integer_texts(0, 200), COSTLY)
                 + option("--seed", seeds, CHEAP))
    if command not in PASS_LINES:
        argv += option("--out", OUTS, REQUIRED)
    return command, ["--verbose"] * draw(st.booleans()) + argv, files


@settings(max_examples=200, deadline=None)
@given(command_lines())
def test_every_command_exits_0_1_or_2_and_leaves_only_what_it_wrote(line):
    # fuzzed options, missing ones, unwritable outputs and malformed inputs:
    # cli.main returns 0, 1 or 2, never raises, and every file left behind
    # is one it announced writing; a run that exits 0 wrote all it was asked
    command, argv, files = line
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "taken"))
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [a.replace("DIR", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        written = {row.rsplit(" to ", 1)[1] for row in out.getvalue().splitlines()
                   if row.startswith("wrote ")}
        left = {os.path.join(tmp, name) for name in os.listdir(tmp)
                if name not in files and name != "taken"}
        assert os.listdir(os.path.join(tmp, "taken")) == []
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "Exceeds the limit" not in err.getvalue()
    assert left == written
    if code == 0:
        assert PASS_LINES.get(command, "") in out.getvalue()
        assert {a.split("=", 1)[1] for a in argv
                if a.startswith(("--out=", "--svg="))} <= written
    elif code == 2:
        assert "error: " in err.getvalue()


def test_birkhoff_negative_degree_names_its_option(tmp_path, capsys):
    src = tmp_path / "char.json"
    src.write_text(character_to_json(Character({}, degree_bound=3)))
    out = tmp_path / "factors.json"
    assert run(["algebra", "birkhoff", "--in", str(src), "--out", str(out),
                "--degree", "-1"]) == 2
    assert not out.exists()
    assert "argument --degree: must be >= 0, not -1" in capsys.readouterr().err


def test_birkhoff_exhausted_window_exits_2(tmp_path, capsys):
    # a pole of order 2 on every generator and a window of one regular
    # order: the first cut product runs out of window
    family = enumerate_connected_oriented(2, 3)
    values = {label: MSElement.from_coeffs({-2: F(1), 0: F(1)}, trunc=1)
              for label in family}
    src = tmp_path / "char.json"
    src.write_text(character_to_json(Character(values, 3, trunc=1)))
    out = tmp_path / "factors.json"
    assert run(["algebra", "birkhoff", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert "window" in capsys.readouterr().err


# -- each command loads only its own layers ------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_modules(argv) -> set:
    """The kolmex modules in sys.modules after `cli.main(argv)` in a fresh
    interpreter."""
    script = ("import sys\n"
              "from kolmex import cli\n"
              f"assert cli.main({argv!r}) == 0\n"
              "print(' '.join(m for m in sys.modules if m.startswith('kolmex.')))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_hopf_verify_loads_no_codes_or_complexity_layers():
    loaded = loaded_modules(["algebra", "hopf-verify", "--max-vertices", "1",
                             "--max-flags", "0"])
    assert "kolmex.hopf" in loaded
    for name in ("codes", "complexity", "fields", "rng", "halting", "feynman", "svgplot"):
        assert f"kolmex.{name}" not in loaded


def test_halting_probe_loads_no_graph_algebra(tmp_path):
    loaded = loaded_modules(["halting", "probe", "--function", "evens", "--x", "1",
                             "--y", "3", "--budget", "10",
                             "--out", str(tmp_path / "probe.json")])
    assert "kolmex.halting" in loaded
    for name in ("graphs", "hopf", "renorm", "feynman"):
        assert f"kolmex.{name}" not in loaded
