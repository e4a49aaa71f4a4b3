"""Fitting the imperfect first-digit law to an observed histogram.

The count model is c(d) = N_s * log10(1/d + 1 + s*d) for d = 1..9, with
s >= 0 controlling the upturn at large digits (continuous minimum at
1/sqrt(s), minimum value log10(1 + 2*sqrt(s))) and N_s an integer scale.
Because N_s is constrained to integers, the fitted curve's total surface
S = sum c(d) need not equal the number of data points.

Search protocol (deterministic, reproducible):
  * N_s ranges over the integers [ceil(N/2), 2N] for histogram total N,
    with 9 <= N <= MAX_FIT_TOTAL (a larger total would make the search
    allocate arrays of that length; it is refused with DomainError);
  * for each N_s, s is located on a coarse grid over [0, 1] with step
    1e-4, then refined by golden-section search to below 1e-7;
  * the Pearson statistic sum (O_d - c(d))^2 / c(d) (expected-count
    denominator) is minimized; ties break toward smaller s, then smaller
    N_s.

The enlarged family contains the plain first-digit law (s = 0, N_s = N),
so the optimal fit never does worse than it on the search grid.

Before the per-scale search, scales that can neither win nor tie are
dropped by a certificate; the protocol and its results are unchanged.
Fix s and let l_d(s) = log10(1/d + 1 + s*d), A(s) = sum o_d^2/l_d(s),
B(s) = sum l_d(s) and T = sum o_d; then chi2(N, s) = A/N - 2T + N*B.
An upper bound U on the fitted chi2 is one directly scored grid point,
taken where this formula is smallest at the integer scales next to
sqrt(A/B). Each 1/l_d is convex with a second derivative that falls
with s, and each l_d is concave, so d2chi2/ds2 <= A''(0)/N on [0, 1];
a refined s therefore scores at least the smaller value at its grid
cell's ends minus A''(0)*h^2/(8N), with h the grid step. A scale is
searched only when some grid s gives
B*N^2 - (2T + U + slack)*N + A - A''(0)*h^2/8 <= 0, where a small slack
absorbs rounding; every grid s yields an interval of N, and their union,
widened by one on each side, is searched in ascending order. The formula
cancels badly near chi2 = 0 and serves only for these bounds; every
reported value is scored directly.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .digit_laws import FIRST_DIGITS, imperfect_counts
from .errors import DegenerateHistogramWarning, DomainError
from .gof_tests import DigitHistogram

S_GRID_STEP = 1e-4
S_REFINE_TOL = 1e-7
#: Largest histogram total fit_imperfect accepts: 100 times a 10^5-row
#: series. A Benford-like histogram of this total takes about 25 s and a
#: peak resident set near 380 MB (2-vCPU VM); memory grows with the total.
MAX_FIT_TOTAL = 10**7

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ImperfectFitResult:
    s: float
    n_s: int
    chi2: float
    surface: float
    minimum_location: float
    degenerate: bool = False


def imperfect_curve(s: float, n_s: int) -> tuple[float, ...]:
    """Expected counts for digits 1..9 at the given parameters."""
    return tuple(imperfect_counts(d, s, n_s) for d in FIRST_DIGITS)


def minimum_location(s: float) -> float:
    """Argmin 1/sqrt(s) of the continuous count curve (inf at s = 0)."""
    if s < 0:
        raise DomainError(f"curl parameter s must be >= 0, got {s}")
    return math.inf if s == 0 else 1.0 / math.sqrt(s)


def minimum_value(s: float) -> float:
    """Value log10(1 + 2*sqrt(s)) of the continuous curve at its minimum."""
    if s < 0:
        raise DomainError(f"curl parameter s must be >= 0, got {s}")
    return math.log10(1.0 + 2.0 * math.sqrt(s))


def fit_chi2(observed, s: float, n_s: int) -> float:
    """Pearson statistic of the observed nine counts against c(d; s, N_s)."""
    return math.fsum(
        (o - c) ** 2 / c for o, c in zip(observed, imperfect_curve(s, n_s))
    )


def fit_imperfect(hist: DigitHistogram) -> ImperfectFitResult:
    """Best (s, N_s) for a first-digit histogram under the search protocol."""
    if hist.position != 1:
        raise DomainError("imperfect-law fitting applies to first-digit histograms only")
    observed = hist.count_vector()
    total = hist.total
    if total < 9:
        raise DomainError(f"histogram total must be at least 9, got {total}")
    if total > MAX_FIT_TOTAL:
        raise DomainError(f"histogram total must be at most {MAX_FIT_TOTAL}, got {total}")

    degenerate = sum(1 for o in observed if o > 0) == 1
    if degenerate:
        warnings.warn(
            "all histogram mass sits on a single digit; fit is ill-conditioned",
            DegenerateHistogramWarning,
            stacklevel=2,
        )

    n = int(round(total))
    ns_values = np.arange(math.ceil(n / 2), 2 * n + 1, dtype=np.float64)
    n_grid = int(round(1.0 / S_GRID_STEP)) + 1
    s_grid = np.linspace(0.0, 1.0, n_grid)
    digits = np.arange(1.0, 10.0)
    l_matrix = np.log10(1.0 / digits + 1.0 + s_grid[:, None] * digits)
    obs_arr = np.asarray(observed, dtype=np.float64)
    ns_values = _candidate_scales(obs_arr, l_matrix, ns_values)

    coarse_chi2, coarse_idx = _imperfect_scan(obs_arr, l_matrix, ns_values)

    best: tuple[float, float, int] | None = None  # (chi2, s, n_s)
    for i, ns_f in enumerate(ns_values):
        ns = int(ns_f)
        idx = int(coarse_idx[i])
        candidate = (float(coarse_chi2[i]), float(s_grid[idx]), ns)
        lo = float(s_grid[max(idx - 1, 0)])
        hi = float(s_grid[min(idx + 1, n_grid - 1)])
        s_ref, chi2_ref = _golden_min(lambda s: fit_chi2(observed, s, ns), lo, hi)
        refined = (chi2_ref, s_ref, ns)
        if refined[:2] < candidate[:2]:  # tie on chi2 keeps the smaller s
            candidate = refined
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    _, s_best, ns_best = best

    chi2_best = fit_chi2(observed, s_best, ns_best)
    return ImperfectFitResult(
        s=s_best,
        n_s=ns_best,
        chi2=chi2_best,
        surface=math.fsum(imperfect_curve(s_best, ns_best)),
        minimum_location=minimum_location(s_best),
        degenerate=degenerate,
    )


def _candidate_scales(observed, l_matrix, ns_values):
    """The scales of ns_values that can win or tie the fit, ascending.

    Arguments are those of _imperfect_scan, with l_matrix rows on the
    uniform grid of step S_GRID_STEP from s = 0; the certificate is in
    the module docstring.
    """
    total = float(observed.sum())
    a = (observed**2 / l_matrix).sum(axis=1)
    b = l_matrix.sum(axis=1)

    ns_lo, ns_hi = ns_values[0], ns_values[-1]
    root = np.sqrt(a / b)
    scales = np.clip(np.stack([np.floor(root), np.ceil(root)]), ns_lo, ns_hi)
    k, j = np.unravel_index(np.argmin(a / scales - 2.0 * total + scales * b), scales.shape)
    expected = scales[k, j] * l_matrix[j : j + 1]
    upper = float(((observed - expected) ** 2 / expected).sum(axis=1)[0])

    # A''(0) = sum o_d^2 * (2*l'^2/l^3 + |l''|/l^2), all at s = 0
    digits = np.arange(1.0, 10.0)
    x0 = 1.0 / digits + 1.0
    l0 = np.log10(x0)
    l1 = digits / (x0 * math.log(10.0))
    l2 = l1 * l1 * math.log(10.0)
    curvature = float((observed**2 * (2.0 * l1 * l1 / l0**3 + l2 / l0**2)).sum())

    slack = 1e-9 * (total + max(1.0, upper))
    p = 2.0 * total + upper + slack
    c = a - curvature * S_GRID_STEP**2 / 8.0
    disc = p * p - 4.0 * b * c
    real = disc >= 0.0
    sq, two_b = np.sqrt(disc[real]), 2.0 * b[real]
    lo = np.maximum(np.ceil((p - sq) / two_b - 1.0), ns_lo)
    hi = np.minimum(np.floor((p + sq) / two_b + 1.0), ns_hi)
    hit = lo <= hi
    size = ns_values.shape[0] + 1
    starts = np.bincount((lo[hit] - ns_lo).astype(np.intp), minlength=size)
    stops = np.bincount((hi[hit] - ns_lo + 1).astype(np.intp), minlength=size)
    kept = ns_values[np.cumsum(starts - stops)[:-1] > 0]
    logger.debug(
        "imperfect fit: kept %d of %d scales, upper bound chi2 %.17g",
        kept.shape[0], ns_values.shape[0], upper,
    )
    return kept


def _imperfect_scan(observed, l_matrix, ns_values):
    """Coarse Pearson scan of the imperfect-law parameter grid.

    observed:  9 first-digit counts, as float64.
    l_matrix:  precomputed log10(1/d + 1 + s*d), shape (n_s_grid, 9),
               rows ordered by ascending s.
    ns_values: candidate integer scales, as float64.

    Returns (best_chi2, best_idx): for every scale, the minimal statistic
    over the s grid and the row index attaining it (first minimum wins,
    i.e. ties resolve toward smaller s).
    """
    best_chi2 = np.empty(ns_values.shape[0], dtype=np.float64)
    best_idx = np.empty(ns_values.shape[0], dtype=np.intp)
    for i in range(ns_values.shape[0]):
        expected = ns_values[i] * l_matrix
        chi2 = ((observed - expected) ** 2 / expected).sum(axis=1)
        j = int(np.argmin(chi2))
        best_chi2[i] = chi2[j]
        best_idx[i] = j
    return best_chi2, best_idx


def _golden_min(func, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum of func on [lo, hi], tracking the best probe.

    Shrinks the bracket below S_REFINE_TOL and returns the best point
    actually evaluated, so the reported value is never extrapolated.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = func(c), func(d)
    best_x, best_f = (c, fc) if (fc, c) <= (fd, d) else (d, fd)
    while b - a > S_REFINE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = func(c)
            if (fc, c) < (best_f, best_x):
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = func(d)
            if (fd, d) < (best_f, best_x):
                best_x, best_f = d, fd
    return best_x, best_f
