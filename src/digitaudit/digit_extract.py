"""Significant-digit extraction from positive numbers.

Two input classes are handled differently on purpose:

* exact decimals (CSV cells, integers, Decimal) are read digit-wise with
  no detour through binary floating point, so the forensic primitive can
  never see representation artifacts;
* computed reals (transform outputs) are first rendered to
  REAL_RENDER_DIGITS significant digits with round-half-even, collapsing
  float noise such as 9.999999999999x to 10 before digits are read.

Values shorter than the requested position are exact decimals padded with
zeros: extract(7, 2) == 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, InvalidOperation, ROUND_HALF_EVEN

from .errors import DomainError

#: Significant digits kept when rendering a computed real before digit
#: extraction. 12 sits between double-precision noise (~15-16 digits) and
#: the deepest position the report reads (positions 1-4 are tabulated,
#: 1-2 tested), so genuine structure survives while 1-ulp noise cannot
#: flip a digit.
REAL_RENDER_DIGITS = 12

_RENDER_CONTEXT = Context(prec=REAL_RENDER_DIGITS, rounding=ROUND_HALF_EVEN)


@dataclass(frozen=True)
class SignificantDigits:
    """Digit string and decimal exponent of a positive value.

    The represented value is 0.d1 d2 d3 ... x 10^exponent with d1 != 0.
    """

    digits: tuple[int, ...]
    exponent: int

    @classmethod
    def from_decimal(cls, value: Decimal) -> "SignificantDigits":
        if not value.is_finite() or value <= 0:
            raise DomainError(f"digit extraction requires a positive finite value, got {value}")
        sign, digits, exp = value.as_tuple()
        # leading zeros can only appear in hand-built Decimal tuples
        lead = 0
        while lead < len(digits) and digits[lead] == 0:
            lead += 1
        digits = tuple(digits[lead:])
        return cls(digits=digits, exponent=exp + len(digits))

    def digit_at(self, position: int) -> int:
        """The digit at 1-based position; 0 past the stored precision."""
        if position < 1:
            raise DomainError(f"digit position must be >= 1, got {position}")
        if position <= len(self.digits):
            return self.digits[position - 1]
        return 0

    def to_decimal(self) -> Decimal:
        """Reconstruct the value at the stored precision."""
        return Decimal((0, self.digits, self.exponent - len(self.digits)))


def significant_digits(value) -> SignificantDigits:
    """SignificantDigits of an exact decimal (int, str, or Decimal)."""
    return SignificantDigits.from_decimal(_as_exact_decimal(value))


def significant_digits_from_real(value) -> SignificantDigits:
    """SignificantDigits of a computed real, after 12-digit rendering."""
    return SignificantDigits.from_decimal(round_real(value))


def extract(value, k: int) -> int:
    """The k-th significant digit of an exact decimal value.

    Rejects float input: computed reals must go through extract_from_real
    so that representation noise is rounded away first.
    """
    return significant_digits(value).digit_at(k)


def extract_from_real(value, k: int) -> int:
    """The k-th significant digit of a computed real value."""
    return significant_digits_from_real(value).digit_at(k)


def round_real(value) -> Decimal:
    """Render a positive real to REAL_RENDER_DIGITS significant digits.

    The binary value is converted to its exact decimal expansion and then
    rounded half-even, so 1-ulp noise below a clean decimal cannot change
    any extracted digit.
    """
    if isinstance(value, Decimal):
        exact = value
    else:
        value = float(value)
        if not math.isfinite(value):
            raise DomainError(f"cannot extract digits of non-finite value {value!r}")
        exact = Decimal(value)
    if exact <= 0:
        raise DomainError(f"digit extraction requires a positive value, got {value}")
    return _RENDER_CONTEXT.plus(exact)


def _as_exact_decimal(value) -> Decimal:
    if isinstance(value, float):
        raise TypeError(
            "extract() takes exact decimals (str, int, Decimal); "
            "use extract_from_real() for computed floats"
        )
    if isinstance(value, Decimal):
        return value
    try:
        return Decimal(value)
    except (InvalidOperation, TypeError) as exc:
        raise DomainError(f"not a decimal value: {value!r}") from exc
