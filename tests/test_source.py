"""Checks on the text of the package source."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sl2kit"

# The private names of the fractions module differ between the Python
# versions pyproject.toml allows (>= 3.10): Fraction(..., _normalize=False)
# is gone in 3.12, Fraction._from_coprime_ints is new there, and module
# constants such as _PyHASH_MODULUS may move.  The package uses the public
# API only (sys.hash_info for the hash modulus).
PRIVATE_FRACTIONS = re.compile(
    r"\b(?:Fraction|fractions)\s*\.\s*_\w+"
    r"|\bfrom\s+fractions\s+import\b[^\n]*\b_\w+"
    r"|\b_normalize\s*="
    r"|\._(?:numerator|denominator)\b")


def test_the_pattern_catches_each_private_form():
    for line in ["Fraction._from_coprime_ints(n, d)",
                 "fractions._PyHASH_MODULUS",
                 "from fractions import Fraction, _PyHASH_INF",
                 "Fraction(n, d, _normalize=False)",
                 "q._numerator * r._denominator"]:
        assert PRIVATE_FRACTIONS.search(line), line
    for line in ["from fractions import Fraction",
                 "Fraction(n, d).limit_denominator()",
                 "x._nums, x._den, q.numerator, q.denominator"]:
        assert not PRIVATE_FRACTIONS.search(line), line


def test_no_private_fractions_api():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in files
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if PRIVATE_FRACTIONS.search(line)]
    assert hits == []
