"""Membership grades: exact rationals in the closed interval [0, 1].

Grades are plain ``fractions.Fraction`` values.  Everything downstream is
order-theoretic (min / max / sup over finite sets), so exactness matters:
floating point would corrupt sup computations and every equality-based law.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FuzzautError

GRADE_ZERO = Fraction(0)
GRADE_ONE = Fraction(1)


class GradeError(FuzzautError):
    """A value is outside [0, 1] or cannot be parsed as a rational."""


def grade(value) -> Fraction:
    """Coerce ``value`` (int, string "p/q", or Fraction) to a valid grade.

    A ``Fraction`` in range is returned as it is, not copied.  Every value
    must also print: past Python's limit on the digits of an int, ``str`` of
    a grade such as "1e-5000" or ``Fraction(1, 10**5000)`` raises.
    """
    try:
        g = value if type(value) is Fraction else Fraction(value)
        str(g)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        try:
            shown = repr(value)
        except ValueError:  # an int or a Fraction past the digit limit does not print either
            shown = (f"an int of {value.bit_length()} bits" if isinstance(value, int) else
                     f"a Fraction of {value.numerator.bit_length()}/{value.denominator.bit_length()} bits")
        if len(shown) > 40:  # cut, as a value may have thousands of digits
            shown = f"{shown[:40]}... ({len(shown)} characters)"
        # past Python's limit on the digits of an int, the error's text names that limit
        cause = f": {exc}" if "int_max_str_digits" in str(exc) else ""
        raise GradeError(f"cannot interpret {shown} as a rational grade{cause}") from exc
    if not GRADE_ZERO <= g <= GRADE_ONE:
        raise GradeError(f"grade {g} outside [0, 1]")
    return g


def rank_grades(vec) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The distinct grades of ``vec`` in increasing order, and each entry's rank.

    ``values[ranks[i]] == vec[i]``.  The rank map is strictly monotone, so
    min, max and every comparison give the same answer on ranks as on the
    grades, and the inside of a scan can work on small integers.
    """
    values = tuple(sorted(set(vec)))
    index = {v: i for i, v in enumerate(values)}
    return values, tuple([index[v] for v in vec])


def parse_grade(text: str) -> Fraction:
    """Parse a string into an exact grade: any string ``fractions.Fraction``
    parses once surrounding whitespace is stripped ("1", "2/4", "0.5",
    "5e-1"), with a value in [0, 1]; a non-string raises ``GradeError``."""
    if not isinstance(text, str):
        raise GradeError(f"expected a rational string, got {type(text).__name__}")
    return grade(text.strip())


def format_grade(g: Fraction) -> str:
    """Canonical string form: "0", "1" or "p/q" in lowest terms."""
    return str(g)
