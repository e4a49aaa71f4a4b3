"""Closed-form significant-digit probability laws.

The classical first-digit law assigns digit d the probability
log10(1 + 1/d). This module evaluates that law and its relatives:

* probability of a leading digit string (log10(1 + 1/n) for prefix value n),
* probability of digit d at position n >= 2 (a sum over all prefixes),
* the uniform reference (1/9 for position 1, 1/10 beyond),
* a two-parameter generalization log10(1 + 1/(r + d^q)), normalized,
* the "imperfect" count law N_s * log10(1/d + 1 + s*d), whose envelope dips
  and then curls up at large digits instead of decreasing monotonically.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

FIRST_DIGITS = tuple(range(1, 10))
ALL_DIGITS = tuple(range(10))

_LN10 = math.log(10.0)

# Prefix terms summed exactly: every term of positions 2 and 3.
_HEAD_TERMS = 90

# From this position on the exact law rounds to 0.1 in double precision
# for every digit (the deviation is about 1.76e-n).
_UNIFORM_POSITION = 20

# Bernoulli numbers B_2, B_4, B_6 as (index, value), for the Euler-Maclaurin
# tail. The tail starts at x >= 1900, where the B_6 term is below 1e-17 and
# a B_8 term would be below 3e-22.
_BERNOULLI = ((2, 1 / 6), (4, -1 / 30), (6, 1 / 42))


def benford_first_digit_prob(d: int) -> float:
    """Probability log10(1 + 1/d) that d leads a conforming number.

    Digit 1 leads about 30.103% of the time, digit 9 about 4.576%.
    """
    _check_digit(d, FIRST_DIGITS)
    return math.log10(1.0 + 1.0 / d)


def string_prob(prefix: str) -> float:
    """Probability that a number starts with the given digit string.

    Equals log10((n+1)/n) where n is the integer value of the prefix;
    for a single digit this reduces to the first-digit law.
    """
    if not isinstance(prefix, str) or not prefix:
        raise DomainError("prefix must be a nonempty digit string")
    if not prefix.isdigit():
        raise DomainError(f"prefix {prefix!r} contains non-digit characters")
    if prefix[0] == "0":
        raise DomainError("prefix cannot start with 0: digit 0 cannot lead")
    n = int(prefix)
    return math.log10(1.0 + 1.0 / n)


def nth_digit_prob(d: int, n: int) -> float:
    """Probability that d (0..9) appears as the n-th significant digit, n >= 2.

    Sum of log10(1 + 1/(10k + d)) over every possible leading prefix k of
    length n-1 (Hill 1995). The sum is evaluated in closed form: the first
    90 terms exactly, which covers positions 2 and 3 entirely, and the
    rest by Euler-Maclaurin summation (Abramowitz & Stegun 23.1.30) with
    three Bernoulli terms, within about 1e-16 of the exact law. The
    distribution approaches uniformity exponentially fast in n, by about
    1.76e-n; from position 20 on the exact value rounds to 0.1 in double
    precision and 0.1 is returned.
    """
    _check_digit(d, ALL_DIGITS)
    _check_position(n, 2)
    if n >= _UNIFORM_POSITION:
        return 0.1
    return _nth_digit_tail(d, n)


@lru_cache(maxsize=None)
def _nth_digit_tail(d: int, n: int) -> float:
    lo, hi = 10 ** (n - 2), 10 ** (n - 1)
    mid = min(lo + _HEAD_TERMS, hi)
    parts = [math.log1p(1 / (10 * k + d)) for k in range(lo, mid)]
    if mid < hi:
        parts += _euler_maclaurin_tail(10 * mid + d, 10 * hi + d)
    return math.fsum(parts) / _LN10


def _euler_maclaurin_tail(xa: int, xb: int) -> list[float]:
    """Terms whose sum approximates sum log1p(1/x) over x = xa, xa+10, ..., xb-10.

    In the summation variable k, with x = 10k + d and f(k) = log1p(1/x):
    the integral, from the antiderivative (x*log1p(1/x) + log1p(x))/10;
    the end correction -(f(b) - f(a))/2; and B_r/r! times the differences
    of the (r-1)-th derivatives (-1)^(r-2) (r-2)! ((x+1)^-(r-1) - x^-(r-1)) 10^(r-1).
    """
    a, b = float(xa), float(xb)
    fa, fb = math.log1p(1 / xa), math.log1p(1 / xb)
    parts = [
        (b * fb - a * fa + math.log((xb + 1) / (xa + 1))) / 10,
        -(fb - fa) / 2,
    ]
    for r, bernoulli in _BERNOULLI:
        m = r - 1
        scale = bernoulli / math.factorial(r) * (-1) ** (m - 1) * math.factorial(m - 1) * 10 ** m
        parts.append(scale * (((b + 1) ** -m - b ** -m) - ((a + 1) ** -m - a ** -m)))
    return parts


def uniform_prob(d: int, position: int = 1) -> float:
    """Uniform digit reference: 1/9 on {1..9} for position 1, else 1/10."""
    _check_position(position, 1)
    domain = FIRST_DIGITS if position == 1 else ALL_DIGITS
    _check_digit(d, domain)
    return 1.0 / len(domain)


def generalized_prob(d: int, r: float, q: float, zero_allowed: bool = False) -> float:
    """Normalized two-parameter law log10(1 + 1/(r + d^q)) / Z.

    Z sums the unnormalized terms over the digit domain, which is {1..9}
    unless zero_allowed is set. Admitting digit 0 requires r >= 1; at
    r = 0 the term diverges at d = 0. With r = 0, q = 1 the first-digit
    law is recovered. The curvature of the law never changes sign, so it
    cannot model a curl-up at large digits (see imperfect_counts).
    """
    r, q, domain = _generalized_params(r, q, zero_allowed)
    _check_digit(d, domain)
    z = math.fsum(_generalized_term(x, r, q) for x in domain)
    return _generalized_term(d, r, q) / z


def _generalized_params(r: float, q: float, zero_allowed: bool) -> tuple[float, float, tuple[int, ...]]:
    """r and q as floats, checked, with the digit domain they admit."""
    r, q = float(r), float(q)
    if not (r >= 0.0) or not math.isfinite(r):
        raise DomainError(f"parameter r must be >= 0, got {r}")
    if not (q > 0.0) or not math.isfinite(q):
        raise DomainError(f"parameter q must be > 0, got {q}")
    if not zero_allowed:
        return r, q, FIRST_DIGITS
    if r < 1.0:
        raise DomainError(f"digit 0 requires r >= 1 (log divergence guard), got r={r}")
    return r, q, ALL_DIGITS


def _generalized_term(x: int, r: float, q: float) -> float:
    if x == 0 and r == 0.0:
        raise DomainError("digit 0 with r = 0 diverges")
    return math.log10(1.0 + 1.0 / (r + float(x) ** q))


def imperfect_counts(d: int, s: float, n_s: int) -> float:
    """Expected count N_s * log10(1/d + 1 + s*d) under the imperfect law.

    s >= 0 is the curl parameter: the continuous curve has its minimum at
    1/sqrt(s), so for 1/sqrt(s) < 9 the expected counts rise again toward
    digit 9. s = 0 reduces to N_s times the first-digit law. The value is
    monotone increasing in s for fixed d.
    """
    _check_digit(d, FIRST_DIGITS)
    _check_imperfect_params(s, n_s)
    return n_s * math.log10(1.0 / d + 1.0 + s * d)


def imperfect_prob(d: int, s: float) -> float:
    """Probability form of the imperfect law, normalized over digits 1..9."""
    _check_digit(d, FIRST_DIGITS)
    _check_imperfect_params(s, 1)
    z = math.fsum(math.log10(1.0 / x + 1.0 + s * x) for x in FIRST_DIGITS)
    return math.log10(1.0 / d + 1.0 + s * d) / z


def first_digit_probs() -> tuple[float, ...]:
    """The nine first-digit probabilities, in digit order."""
    return tuple(benford_first_digit_prob(d) for d in FIRST_DIGITS)


@lru_cache(maxsize=None)
def second_digit_probs() -> tuple[float, ...]:
    """The ten second-digit probabilities, in digit order 0..9."""
    return tuple(_nth_digit_tail(d, 2) for d in ALL_DIGITS)


def _check_digit(d, domain) -> None:
    if not isinstance(d, int) or isinstance(d, bool) or d not in domain:
        raise DomainError(f"digit {d!r} outside domain {domain[0]}..{domain[-1]}")


def _check_position(n, lowest: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < lowest:
        raise DomainError(f"position must be an integer >= {lowest}, got {n!r}")


def _check_imperfect_params(s: float, n_s: int) -> None:
    if not (float(s) >= 0.0) or not math.isfinite(float(s)):
        raise DomainError(f"curl parameter s must be >= 0, got {s}")
    if not isinstance(n_s, int) or isinstance(n_s, bool) or n_s < 1:
        raise DomainError(f"scale N_s must be a positive integer, got {n_s!r}")


class LawKind(enum.Enum):
    """Digit-law families evaluable by DigitLawModel."""

    BENFORD1 = "benford-first"
    UNIFORM = "uniform"
    STRING_LAW = "string"
    NTH_DIGIT = "nth-digit"
    GENERALIZED = "generalized"
    IMPERFECT = "imperfect"


@dataclass(frozen=True)
class DigitLawModel:
    """A parametrized digit-probability law over a digit domain.

    Every kind is probability-normalized over digit_domain (within 1e-12);
    the IMPERFECT kind additionally carries an integer scale n_s for
    expected-count evaluation.
    """

    kind: LawKind
    position: int = 1
    r: float = 0.0
    q: float = 1.0
    s: float = 0.0
    n_s: int = 1
    zero_allowed: bool = False

    @classmethod
    def benford(cls) -> "DigitLawModel":
        return cls(LawKind.BENFORD1)

    @classmethod
    def uniform(cls, position: int = 1) -> "DigitLawModel":
        return cls(LawKind.UNIFORM, position=position)

    @classmethod
    def string_law(cls) -> "DigitLawModel":
        return cls(LawKind.STRING_LAW)

    @classmethod
    def nth_digit(cls, position: int) -> "DigitLawModel":
        _check_position(position, 1)
        return cls(LawKind.NTH_DIGIT, position=position)

    @classmethod
    def generalized(cls, r: float, q: float, zero_allowed: bool = False) -> "DigitLawModel":
        r, q, _ = _generalized_params(r, q, zero_allowed)
        return cls(LawKind.GENERALIZED, r=r, q=q, zero_allowed=zero_allowed)

    @classmethod
    def imperfect(cls, s: float, n_s: int = 1) -> "DigitLawModel":
        _check_imperfect_params(s, n_s)
        return cls(LawKind.IMPERFECT, s=float(s), n_s=n_s)

    @property
    def digit_domain(self) -> tuple[int, ...]:
        if self.kind in (LawKind.BENFORD1, LawKind.STRING_LAW, LawKind.IMPERFECT):
            return FIRST_DIGITS
        if self.kind is LawKind.GENERALIZED:
            return ALL_DIGITS if self.zero_allowed else FIRST_DIGITS
        return FIRST_DIGITS if self.position == 1 else ALL_DIGITS

    def prob(self, d: int) -> float:
        """Probability of digit d under this law."""
        if self.kind is LawKind.BENFORD1:
            return benford_first_digit_prob(d)
        if self.kind is LawKind.UNIFORM:
            return uniform_prob(d, self.position)
        if self.kind is LawKind.STRING_LAW:
            _check_digit(d, FIRST_DIGITS)
            return string_prob(str(d))
        if self.kind is LawKind.NTH_DIGIT:
            if self.position == 1:
                return benford_first_digit_prob(d)
            return nth_digit_prob(d, self.position)
        if self.kind is LawKind.GENERALIZED:
            return generalized_prob(d, self.r, self.q, self.zero_allowed)
        return imperfect_prob(d, self.s)

    def probabilities(self) -> dict[int, float]:
        """Probability of every digit in the domain, in digit order."""
        return {d: self.prob(d) for d in self.digit_domain}

    def expected_count(self, d: int) -> float:
        """Expected count for digit d; meaningful for the IMPERFECT kind."""
        if self.kind is LawKind.IMPERFECT:
            return imperfect_counts(d, self.s, self.n_s)
        return self.n_s * self.prob(d)
