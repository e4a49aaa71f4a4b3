"""Independent references for the benchmark's correctness checks.

Nothing here imports digitaudit: the n-th digit law comes from an mpmath
log-gamma closed form, and the test battery is recomputed from the
generated CSV cells with the standard library.
"""

from __future__ import annotations

import math

import mpmath

#: Tabulated 0.05-level chi-square critical values for 8 and 9 degrees of freedom.
CRITICAL_VALUES = {8: 15.5, 9: 16.9}

LAW_POSITIONS = range(2, 9)


def nth_digit_law(d: int, n: int) -> float:
    """Probability of digit d at position n >= 2.

    The defining sum of log10(1 + 1/(10k + d)) over k in [A, B), with
    A = 10^(n-2) and B = 10^(n-1), telescopes into log-gamma values:
    sum ln(k + (d+1)/10) - ln(k + d/10) over the same k.
    """
    with mpmath.workdps(50):
        a, b = mpmath.mpf(10) ** (n - 2), mpmath.mpf(10) ** (n - 1)
        hi, lo = mpmath.mpf(d + 1) / 10, mpmath.mpf(d) / 10
        total = (mpmath.loggamma(b + hi) - mpmath.loggamma(a + hi)
                 - mpmath.loggamma(b + lo) + mpmath.loggamma(a + lo))
        return float(total / mpmath.log(10))


def law_table() -> list[list[float]]:
    """Rows n = 2..8, columns d = 0..9."""
    return [[nth_digit_law(d, n) for d in range(10)] for n in LAW_POSITIONS]


def _first_two_digits_exact(cell: str) -> tuple[int, int]:
    digits = cell.replace(".", "").lstrip("0")
    return int(digits[0]), int(digits[1]) if len(digits) > 1 else 0


def _first_two_digits_real(value: float) -> tuple[int, int]:
    # '.11e' rounds the exact binary value half-even to 12 significant digits
    mantissa = format(value, ".11e")
    return int(mantissa[0]), int(mantissa[2])


def _histogram(position: int, digits: list[int], labels: list[str]) -> dict:
    domain = range(1, 10) if position == 1 else range(10)
    counts = {str(d): 0 for d in domain}
    breakdown: dict[str, dict[str, int]] = {}
    for digit, label in zip(digits, labels):
        counts[str(digit)] += 1
        regime = breakdown.setdefault(label, {str(d): 0 for d in domain})
        regime[str(digit)] += 1
    return {"counts": counts, "breakdown": breakdown}


def _pearson(counts: dict, probs: list[float]) -> list:
    observed = list(counts.values())
    total = math.fsum(observed)
    expected = [total * p for p in probs]
    statistic = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    critical = CRITICAL_VALUES[len(observed) - 1]
    return [statistic, "rejected" if statistic > critical else "consistent"]


def _variant(pairs: list[tuple[int, int]], labels: list[str], excluded: int,
             first: list[float], second: list[float]) -> dict:
    hists = {
        "1": _histogram(1, [p[0] for p in pairs], labels),
        "2": _histogram(2, [p[1] for p in pairs], labels),
    }
    tests = {
        "first_benford": _pearson(hists["1"]["counts"], first),
        "second_benford": _pearson(hists["2"]["counts"], second),
        "first_uniform": _pearson(hists["1"]["counts"], [1.0 / 9.0] * 9),
        "second_uniform": _pearson(hists["2"]["counts"], [1.0 / 10.0] * 10),
    }
    return {"excluded": excluded, "histograms": hists, "tests": tests}


def battery(years: list[int], columns: dict[str, list[str]],
            regimes: list[tuple[str, int, int]]) -> dict:
    """Raw and x*ln(x) test grids per column, as the battery workload reports them.

    Every generated value exceeds 1, so x*ln(x) excludes nothing.
    """
    labels = []
    for year in years:
        names = [name for name, lo, hi in regimes if lo <= year <= hi]
        labels.append(names[0] if names else "unassigned")
    first = [math.log10(1.0 + 1.0 / d) for d in range(1, 10)]
    second = [nth_digit_law(d, 2) for d in range(10)]
    out = {}
    for label, cells in columns.items():
        raw = [_first_two_digits_exact(cell) for cell in cells]
        theil = []
        for cell in cells:
            x = float(cell)
            theil.append(_first_two_digits_real(x * math.log(x)))
        out[label] = {
            "raw": _variant(raw, labels, 0, first, second),
            "theil-natural": _variant(theil, labels, 0, first, second),
        }
    return out


def compare(expected, actual, path: str = "", rel_tol: float = 1e-12) -> str | None:
    """First difference between two summaries, or None.

    Floats must agree within rel_tol (absolute below 1); everything else
    must be equal.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
        for key in expected:
            diff = compare(expected[key], actual[key], f"{path}/{key}", rel_tol)
            if diff:
                return diff
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return f"{path}: {actual!r} != {expected!r}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = compare(e, a, f"{path}/{i}", rel_tol)
            if diff:
                return diff
        return None
    if isinstance(expected, float):
        if not isinstance(actual, (int, float)) or abs(actual - expected) > rel_tol * max(1.0, abs(expected)):
            return f"{path}: {actual!r} != {expected!r}"
        return None
    if expected != actual:
        return f"{path}: {actual!r} != {expected!r}"
    return None
