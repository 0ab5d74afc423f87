"""Named pass/fail records for bound checks, and the scalar text tokens.

The scalar formatters and parsers live here, in a leaf module, because
both the check records and ``textio`` (which imports the modules that
build checks) need them.  Rationals are written ``p/q`` (or a bare
integer), floats with 12 significant digits; a malformed token is a
DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def fmt_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def fmt_float(x: float) -> str:
    return format(float(x), ".12g")


def parse_int(token: str) -> int:
    """A decimal integer token; anything else is a DomainError."""
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"malformed integer token {token!r}") from None


def parse_fraction(token: str) -> Fraction:
    num, _, den = token.partition("/")
    return _fraction(token, num, den)


def _fraction(token: str, num: str, den: str) -> Fraction:
    try:
        return Fraction(int(num)) if not den else Fraction(int(num), int(den))
    except ValueError:
        parse_int(num)  # raises the DomainError naming the bad part
        parse_int(den)
        raise
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {token!r}") from None


def parse_float(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DomainError(f"malformed float token {token!r}") from None


def parse_scalar(token: str) -> Fraction | float:
    """A rational token (``p`` or ``p/q``) as a Fraction, any other as a float."""
    num, _, den = token.partition("/")
    if num.lstrip("-").isdigit() and (not den or den.isdigit()):
        return _fraction(token, num, den)
    return parse_float(token)


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return fmt_fraction(v)
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


@dataclass(frozen=True)
class BoundCheck:
    """lhs and rhs are ints, Fractions or floats; ``line`` formats them."""

    name: str
    status: str
    lhs: int | Fraction | float
    rhs: int | Fraction | float

    @classmethod
    def make(cls, name: str, ok: bool, lhs, rhs) -> "BoundCheck":
        return cls(name, PASS if ok else FAIL, lhs, rhs)

    @classmethod
    def inconclusive(cls, name: str, lhs, rhs) -> "BoundCheck":
        return cls(name, INCONCLUSIVE, lhs, rhs)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def line(self) -> str:
        return f"check {self.name} {self.status} {_fmt(self.lhs)} {_fmt(self.rhs)}"
