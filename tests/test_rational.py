import contextlib
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from kolmex import cli, rational
from kolmex.feynman import LambdaSeries
from kolmex.renorm import (
    Character,
    MSElement,
    RenormError,
    character_from_json,
    character_to_json,
)

F = Fraction
VERTEX = "og:1|-.0.0.0|"  # the bare vertex, a primitive generator
# 5,000-digit numerator and denominator, coprime (N odd, D - N = 2)
N = 10**4999 + 7
D = 10**4999 + 9


def long_text(c) -> str:
    """The decimal text of an int or a Fraction, written through Decimal,
    which has no digit limit."""
    c = F(c)
    den = "" if c.denominator == 1 else f"/{Decimal(c.denominator)}"
    return f"{Decimal(c.numerator)}{den}"


# -- the writer ----------------------------------------------------------------

@settings(max_examples=300)
@given(st.integers() | st.fractions()
       | st.integers(10**4200, 10**4300 - 1).map(lambda n: F(-n, 3)))
@example(10**4299)
@example(-(10**4300 - 1))
@example(F(1, 10**4300 - 1))
def test_text_is_str_below_the_digit_limit(c):
    assert rational.text(c) == str(c)


@pytest.mark.parametrize("c", [10**4300, -N, F(N, D), F(-1, D), F(N, 3)],
                         ids=["4301_digits", "int", "fraction", "denominator", "numerator"])
def test_text_writes_every_digit_past_the_limit(c):
    assert rational.text(c) == long_text(c)
    assert rational.exact(rational.text(c)) == c


# -- the reader ----------------------------------------------------------------

@pytest.mark.parametrize("value, want", [
    (3, 3), (-2**80, -2**80), (F(4, 2), 2), (F(1, 3), F(1, 3)), ("4/2", 2), ("-0", 0),
    ("-6/4", F(-3, 2)), ("1e3", 1000), ("2.5", F(5, 2)), (" 7 ", 7),
])
def test_exact_is_an_int_when_integral(value, want):
    got = rational.exact(value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("value", [True, False, 0.5, 1.0, None, Decimal(1), [1]])
def test_exact_refuses_what_is_not_an_int_a_fraction_or_text(value):
    with pytest.raises(TypeError):
        rational.exact(value)


@pytest.mark.parametrize("value", ["1/0", "0/0", "-7/00", "1/0.5", "", "-", "x", "1e4301",
                                   "1_000", "1_0/3", "1_0e1_0"])
def test_exact_refuses_bad_text_with_value_error(value):
    with pytest.raises(ValueError):
        rational.exact(value)


@pytest.mark.parametrize("value, want", [
    (-999, "-999"), (True, "True"), (None, "None"), (0.5, "0.5"), ("x", "'x'"), ([1], "[1]"),
    (-(10**4400 - 1), "-99999999999999999999... (4400 digits)"),
    ("x" * 3000, "'" + "x" * 39 + "... (length 3000)"),
    ([10**4400], "a list of length 1"),
], ids=["int", "bool", "none", "float", "text", "list", "long_int", "long_text",
        "list_past_the_digit_limit"])
def test_shown_is_the_repr_or_a_short_stand_in(value, want):
    assert rational.shown(value) == want


# -- round trips past the digit limit -------------------------------------------

def test_character_json_round_trips_long_coefficients():
    value = MSElement.from_coeffs({-1: F(N, D), 0: N, 1: F(-1, D)}, trunc=1)
    chi = Character({VERTEX: value}, 1, trunc=1)
    text = character_to_json(chi)
    assert json.loads(text)["values"][0]["value"] == {
        "polar": [long_text(F(N, D))], "regular": [long_text(N), long_text(F(-1, D))]}
    assert character_from_json(text).generator_values == {VERTEX: value}


def test_series_pretty_writes_long_coefficients():
    s = LambdaSeries((F(N, D), N, F(-1, D)))
    assert s.pretty() == (f"{long_text(F(N, D))} + ({long_text(N)})*L^1 "
                          f"+ ({long_text(F(-1, D))})*L^2")


# -- bare JSON integers past the digit limit ------------------------------------

BARE = "1" + "0" * 4400  # 10^4400, past the interpreter's 4300-digit limit
CHARACTER = ('{"degree_bound": 1, "truncation": 0, "values": [{"graph": "%s", '
             '"value": {"polar": [@], "regular": [@]}}]}' % VERTEX)


def bare_and_quoted(template: str, digits: str) -> tuple[str, str]:
    """The JSON document with `digits` for each @, bare and as a string."""
    return template.replace("@", digits), template.replace("@", f'"{digits}"')


@pytest.mark.parametrize("digits", [BARE, "-" + BARE], ids=["positive", "negative"])
@pytest.mark.parametrize("reader, template", [
    (lambda t: character_from_json(t).generator_values, CHARACTER),
], ids=["character"])
def test_json_readers_take_bare_integers_past_the_digit_limit(reader, template, digits):
    bare, quoted = bare_and_quoted(template, digits)
    assert reader(bare) == reader(quoted)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_birkhoff_writes_long_factors(tmp_path):
    # the bare vertex is primitive: phi- is minus the polar part, phi+ the
    # regular part
    value = MSElement.from_coeffs({-1: F(N, D), 0: N, 1: F(-1, D)}, trunc=1)
    src, out = tmp_path / "char.json", tmp_path / "factors.json"
    src.write_text(character_to_json(Character({VERTEX: value}, 1, trunc=1)))
    code, _, err = run_quietly(["algebra", "birkhoff", "--in", str(src), "--out", str(out)])
    assert (code, err) == (0, "")
    doc = json.loads(out.read_text())
    assert doc["minus"][0]["value"] == {"polar": [long_text(F(-N, D))],
                                        "regular": ["0", "0"]}
    assert doc["plus"][0]["value"] == {"polar": [],
                                       "regular": [long_text(N), long_text(F(-1, D))]}


def test_birkhoff_reads_a_bare_coefficient_past_the_digit_limit(tmp_path):
    outputs = []
    for text in bare_and_quoted(CHARACTER, BARE):
        src, out = tmp_path / "char.json", tmp_path / "factors.json"
        src.write_text(text)
        code, _, err = run_quietly(["algebra", "birkhoff", "--in", str(src), "--out", str(out)])
        assert (code, err) == (0, "")
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["plus"][0]["value"]["regular"] == [BARE]


NINES = "9" * 4400


def refuse_briefly(tmp_path, text, message):
    """`algebra birkhoff` on character JSON `text` exits 2, and its one
    error line names the field with a bounded prefix of the 4400-digit
    value and its digit count, not the interpreter's digit-limit error
    nor every digit."""
    src, out = tmp_path / "char.json", tmp_path / "factors.json"
    src.write_text(text)
    code, _, err = run_quietly(["algebra", "birkhoff", "--in", str(src), "--out", str(out)])
    assert code == 2
    assert err.startswith(f"error: {message}") and err.endswith(" (4400 digits)\n")
    assert len(err.encode()) < 200
    assert not out.exists()


def test_birkhoff_names_a_truncation_past_the_digit_limit(tmp_path):
    refuse_briefly(tmp_path, '{"degree_bound": 1, "truncation": %s, "values": []}' % NINES,
                   "character JSON: truncation must be at most 4096, got 999")


@pytest.mark.parametrize("text, message", [
    ('{"degree_bound": -%s, "values": []}' % NINES,
     "character JSON: degree_bound must be a non-negative integer, got -999"),
    ('{"degree_bound": 1, "truncation": 2, "values": [{"graph": "%s", '
     '"value": {"polar": [], "regular": [], "valid": %s}}]}' % (VERTEX, NINES),
     "values[0].value.valid must be an integer in 0..2, got 999"),
], ids=["degree_bound", "valid"])
def test_birkhoff_names_other_integers_past_the_digit_limit(tmp_path, text, message):
    refuse_briefly(tmp_path, text, message)


LONG = "x" * 3000


def value_doc(graph=VERTEX, value='"polar": [], "regular": []', entries=1) -> str:
    entry = '{"graph": "%s", "value": {%s}}' % (graph, value)
    return '{"degree_bound": 1, "values": [%s]}' % ", ".join([entry] * entries)


@pytest.mark.parametrize("text, field", [
    (value_doc(value='"polar": [], "regular": [[%s]]' % NINES), "values[0].value.regular[0]: "),
    ('{"degree_bound": [%s], "values": []}' % NINES, "character JSON: degree_bound "),
    ('{"degree_bound": "%s", "values": []}' % LONG, "character JSON: degree_bound "),
    ('{"degree_bound": %s0%s, "values": []}' % ("[" * 500, "]" * 500),
     "character JSON: degree_bound "),
    (value_doc(value='"polar": [], "regular": ["%s"]' % LONG), "values[0].value.regular[0]: "),
    (value_doc(value='"polar": [], "regular": [], "valid": "%s"' % LONG),
     "values[0].value.valid "),
    (value_doc(graph=LONG), "values[0].graph: "),
    (value_doc(graph="og:1|-.0.0.%s|" % NINES), "values[0].graph: "),
    (value_doc(graph="og:400|%s|" % ";".join(["-.0.0.0"] * 400)), "values[0].graph: "),
    (value_doc(graph=LONG, entries=2), "values[1]: graph "),
    ("[" * 100_000, "bad character JSON: "),
], ids=["nested_integer", "degree_bound_list", "degree_bound_text", "degree_bound_nested",
        "coefficient_text", "valid_text", "graph_text", "graph_count", "graph_product",
        "graph_repeat", "document_nested"])
def test_birkhoff_refuses_long_values_briefly(tmp_path, text, field):
    """Character JSON refuses a value that is long, holds an integer past
    the digit limit or nests deeply with a short message naming its field,
    and `algebra birkhoff` exits 2 with that message and writes nothing."""
    with pytest.raises(RenormError) as info:
        character_from_json(text)
    message = str(info.value)
    assert message.startswith(field) and len(message.encode()) < 200
    src, out = tmp_path / "char.json", tmp_path / "factors.json"
    src.write_text(text)
    code, _, err = run_quietly(["algebra", "birkhoff", "--in", str(src), "--out", str(out)])
    assert (code, err) == (2, f"error: {message}\n")
    assert not out.exists()


def test_birkhoff_names_a_generator_degree_past_the_digit_limit_briefly(tmp_path):
    """A generator with 10^4000 - 1 out-tails reads, and Birkhoff refuses
    its degree with the degree's prefix and digit count."""
    src, out = tmp_path / "char.json", tmp_path / "factors.json"
    src.write_text(value_doc(graph="og:1|-.0.0.%s|" % ("9" * 4000),
                             value='"polar": [], "regular": ["1"]'))
    code, _, err = run_quietly(["algebra", "birkhoff", "--in", str(src), "--out", str(out)])
    assert (code, err) == (2, "error: phi-: monomial degree 99999999999999999999... "
                              "(4000 digits) exceeds bound 1\n")
    assert not out.exists()


@pytest.mark.parametrize("c3", ["1e4300", "-1e-4300", str(10**4299)],
                         ids=["exponent", "negative_exponent", "4300_digits"])
def test_feynman_check_takes_couplings_past_the_digit_limit(c3):
    code, out, err = run_quietly(["--verbose", "algebra", "feynman-check", f"--c3={c3}",
                                  "--order", "1"])
    assert code == 0 and out.endswith("match through L^1\n")
    assert json.loads(err)["c3"] == long_text(rational.exact(c3))


@pytest.mark.parametrize("option", ["--rate", "--delta"])
@pytest.mark.parametrize("value", ["1e400", "-1e4300", str(2**1024)],
                         ids=["1e400", "-1e4300", "2^1024"])
def test_sweep_refuses_a_rate_or_delta_past_float_range(tmp_path, option, value):
    rates = {"--rate": "1/3", "--delta": "1/6", option: value}
    out = tmp_path / "s.csv"
    code, _, err = run_quietly(
        ["codes", "sweep", "--n", "6", "--size", "4", "--count", "5", "--beta-min", "0",
         "--beta-max", "1", "--steps", "3", "--out", str(out)]
        + [f"{k}={v}" for k, v in rates.items()])
    assert code == 2
    assert err.endswith(
        f"error: argument {option}: too large for a float: {rational.shown(value)}\n")
    assert list(tmp_path.iterdir()) == []
