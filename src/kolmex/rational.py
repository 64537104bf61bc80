"""Exact rationals read from outside text, refused before they grow huge.

`Fraction` reads a decimal exponent by building its power of ten, so the
text "1e700000" costs a 700,000-digit integer and a tenth of a second
before a caller can look at it.  `checked_fraction` refuses such a text
first.  Standard library only, so the CLI's option types can use it
without loading any layer of the package.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Fraction's decimal exponent, at the end of the text
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# the interpreter's default int/str digit limit: 10**4300 is built in
# microseconds, 10**700000 takes a tenth of a second
MAX_EXPONENT = 4300


def checked_fraction(value) -> Fraction:
    """Fraction(value), except that a text whose decimal exponent exceeds
    MAX_EXPONENT in magnitude raises ValueError before Fraction builds its
    power of ten."""
    if (isinstance(value, str) and (m := _EXPONENT.search(value))
            and abs(int(m[1])) > MAX_EXPONENT):
        raise ValueError(f"decimal exponent past {MAX_EXPONENT}: {value!r}")
    return Fraction(value)
