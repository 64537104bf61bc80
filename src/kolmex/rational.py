"""Exact rationals at the package boundary: `exact` reads every rational
that comes from outside, and `text` writes every rational, at any size.
`shown` quotes a refused outside value in a message of bounded length.

`Fraction` reads a decimal exponent by building its power of ten, so the
text "1e700000" costs a tenth of a second before a caller can look at it;
`exact` refuses such a text first.  `Fraction` reads underscores between
digits ("1_0") from Python 3.11 on but not on 3.10, so `exact` refuses
any text holding "_" on every Python.  `int()` and `str()` refuse more digits
than the interpreter's limit (4300 by default, never below 640), so longer
integers go through `Decimal`.  Standard library only, so the CLI's option
types can use it without loading any layer of the package.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

# Fraction's decimal exponent, at the end of the text
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*\Z")
# the default digit limit: 10**4300 is built in microseconds
MAX_EXPONENT = 4300


def exact(value) -> int | Fraction:
    """An int (not a bool), a Fraction or a text that Fraction reads, as an
    int when it is integral, else as a Fraction.  ASCII `-?digits(/digits)`
    is read at any length.  A text Fraction refuses, a text holding "_", a
    zero denominator or an exponent past MAX_EXPONENT raises ValueError,
    any other type TypeError."""
    if isinstance(value, str):
        if "_" in value:
            raise ValueError(f"underscore in a rational: {value!r}")
        num, slash, den = value.removeprefix("-").partition("/")
        try:
            if value.isascii() and num.isdigit() and (not slash or den.isdigit()):
                n = -decimal_int(num) if value[0] == "-" else decimal_int(num)
                if not slash:
                    return n
                value = Fraction(n, decimal_int(den))
            elif (m := _EXPONENT.search(value)) and abs(int(m[1])) > MAX_EXPONENT:
                raise ValueError(f"decimal exponent past {MAX_EXPONENT}: {value!r}")
            else:
                value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    elif isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact rational: {value!r}")
    return value.numerator if value.denominator == 1 else value


def decimal_int(digits: str) -> int:
    """int() of decimal digits, free of the digit limit."""
    return int(digits) if len(digits) < 640 else int(Decimal(digits))


def text(c: int | Fraction) -> str:
    """str(c) of an int or a Fraction, byte for byte, at any size."""
    try:
        return str(c)
    except ValueError:  # past the digit limit
        n, d = str(Decimal(c.numerator)), str(Decimal(c.denominator))
        return n if d == "1" else f"{n}/{d}"


def shown(value) -> str:
    """repr(value) for a refusal message, total and short: an integer past
    40 digits as its sign, first 20 digits and digit count, and a repr
    past 60 characters as its first 40 and the value's length.  A list or
    dict whose repr refuses (it holds an integer past the digit limit, or
    nests too deeply) is named by its type and length."""
    if isinstance(value, int) and not isinstance(value, bool):
        digits = text(abs(value))
        if len(digits) > 40:
            return f"{'-' * (value < 0)}{digits[:20]}... ({len(digits)} digits)"
    try:
        quoted = repr(value)
    except (ValueError, RecursionError):
        return f"a {type(value).__name__} of length {len(value)}"
    return quoted if len(quoted) <= 60 else f"{quoted[:40]}... (length {len(value)})"
