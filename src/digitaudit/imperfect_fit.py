"""Fitting the imperfect first-digit law to an observed histogram.

The count model is c(d) = N_s * log10(1/d + 1 + s*d) for d = 1..9, with
s >= 0 controlling the upturn at large digits (continuous minimum at
1/sqrt(s), minimum value log10(1 + 2*sqrt(s))) and N_s an integer scale.
Because N_s is constrained to integers, the fitted curve's total surface
S = sum c(d) need not equal the number of data points.

Search protocol (deterministic, reproducible):
  * N_s ranges over the integers [ceil(N/2), 2N] for histogram total N,
    with 9 <= N <= MAX_FIT_TOTAL;
  * for each N_s, s is located on a coarse grid over [0, 1] with step
    1e-4, then refined by golden-section search to below 1e-7;
  * the Pearson statistic sum (O_d - c(d))^2 / c(d) (expected-count
    denominator) is minimized; ties break toward smaller s, then smaller
    N_s.

The enlarged family contains the plain first-digit law (s = 0, N_s = N),
so the optimal fit never does worse than it on the search grid.

The search skips work that cannot change its result. Fix s and let
l_d(s) = log10(1/d + 1 + s*d), A(s) = sum o_d^2/l_d(s), B(s) = sum l_d(s)
and T = sum o_d; then chi2(N, s) = A/N - 2T + N*B. A falls and B rises
with s. Each 1/l_d is convex with a second derivative that falls with s,
and each l_d is concave, so d2chi2/ds2 <= A''(s_a)/N for s >= s_a. On a
block of grid points [s_a, s_b] of width w, every point therefore scores
at least A(s_b)/N - 2T + N*B(s_a), and at least the smaller of the two
end values minus A''(s_a)*w^2/(8N). The grid is cut into blocks of 1000
steps, the blocks these bounds keep into blocks of 100, then 10, and only
the points of the blocks kept at the last level are evaluated. A grid row
is computed when first needed and kept for later fits.

  * Upper bound U: the same bounds on the profile min_N (A/N + N*B), N
    clipped to the scale range, lead to the grid point where it is
    smallest; U is the statistic scored directly there, at the integer
    scale next to sqrt(A/B) where the formula is smallest.
  * Scales: a refined s scores at least the smaller value at its grid
    cell's ends minus A''(0)*h^2/(8N), with h the grid step. A scale is
    searched only when some grid s gives
    B*N^2 - (2T + U + slack)*N + A - A''(0)*h^2/8 <= 0, where a small
    slack absorbs rounding. A block is dropped when this quadratic, taken
    with the block bounds, has no root in the scale range; each kept
    point yields an interval of N, widened by one on each side, and the
    merged intervals are searched in ascending order.
  * Grid minimum per scale: starting from the previous scale's minimum,
    blocks whose bound exceeds the smallest formula value seen by more
    than a rounding tolerance are dropped; the points within that
    tolerance of the minimum are scored directly, summing the nine terms
    in numpy's pairwise order, and the first smallest score wins.

The formula cancels badly near chi2 = 0 and serves only for these bounds;
every reported value is scored directly. Memory does not grow with the
total: the search holds the kept intervals, the grid rows it touched and
a few values per touched point.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

from .digit_laws import FIRST_DIGITS, _check_curl, _check_scale, imperfect_counts
from .errors import DegenerateHistogramWarning, DomainError
from .gof_tests import DigitHistogram

S_GRID_STEP = 1e-4
S_REFINE_TOL = 1e-7
#: Largest histogram total fit_imperfect accepts: 100 times a 10^5-row
#: series. Time grows with the number of scales the search keeps, about
#: 2,800 of 1.5 million at 10^6: a Benford-shaped histogram took 0.9 s at
#: 10^6 and 9 s at 10^7 (2-vCPU VM). Memory does not grow with the total:
#: the fit's tracemalloc peak was 0.26 MB at both totals.
MAX_FIT_TOTAL = 10**7

_LAST = 10000  # grid index of s = 1: the grid is s_j = j * S_GRID_STEP
_BLOCK_WIDTHS = (1000, 100, 10)  # grid steps per block, coarse to fine
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LN10 = math.log(10.0)

#: Grid row j -> (l_1, ..., l_9, B, weights of A'') at s_j, computed on first
#: use; at most 10,001 rows of 19 floats.
_ROWS: dict[int, tuple[float, ...]] = {}

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
    s = _check_curl(s)
    return math.inf if s == 0 else 1.0 / math.sqrt(s)


def minimum_value(s: float) -> float:
    """Value log10(1 + 2*sqrt(s)) of the continuous curve at its minimum."""
    return math.log10(1.0 + 2.0 * math.sqrt(_check_curl(s)))


def fit_chi2(observed, s: float, n_s: int) -> float:
    """Pearson statistic of the observed nine counts against c(d; s, N_s)."""
    s = _check_curl(s)
    _check_scale(n_s)
    return _curve_chi2(observed, n_s)(s)


def _curve_chi2(observed, n_s: int):
    """s -> fit_chi2(observed, s, n_s) for a checked n_s, without checking s.

    The golden search probes only s in [0, 1] at a valid scale, so each
    probe skips the parameter checks of fit_chi2.
    """
    terms = [(o, 1.0 / d + 1.0, d) for o, d in zip(observed, FIRST_DIGITS)]

    def chi2(s: float) -> float:
        squares = []
        for o, a, d in terms:
            c = n_s * math.log10(a + s * d)
            squares.append((o - c) ** 2 / c)
        return math.fsum(squares)

    return chi2


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
    search = _Search(observed, math.ceil(n / 2), 2 * n)
    upper, idx = search.upper_bound()
    spans = search.kept_scales(upper)

    best: tuple[float, float, int] | None = None  # (chi2, s, n_s)
    for first, last in spans:
        for ns in range(first, last + 1):
            idx, coarse = search.grid_argmin(ns, idx)
            candidate = (coarse, idx * S_GRID_STEP, ns)
            lo = max(idx - 1, 0) * S_GRID_STEP
            hi = min(idx + 1, _LAST) * S_GRID_STEP
            s_ref, chi2_ref = _golden_min(_curve_chi2(observed, ns), lo, hi)
            refined = (chi2_ref, s_ref, ns)
            if refined[:2] < candidate[:2]:  # tie on chi2 keeps the smaller s
                candidate = refined
            if best is None or candidate < best:
                best = candidate
    assert best is not None
    _, s_best, ns_best = best
    logger.debug(
        "imperfect fit: kept %d of %d scales, %d grid rows evaluated, "
        "%d points scored directly, upper bound chi2 %.17g",
        sum(last - first + 1 for first, last in spans), 2 * n - math.ceil(n / 2) + 1,
        len(search.points), search.scored, upper,
    )

    chi2_best = fit_chi2(observed, s_best, ns_best)
    return ImperfectFitResult(
        s=s_best,
        n_s=ns_best,
        chi2=chi2_best,
        surface=math.fsum(imperfect_curve(s_best, ns_best)),
        minimum_location=minimum_location(s_best),
        degenerate=degenerate,
    )


def _row(j: int) -> tuple[float, ...]:
    """Grid point j's l_1..l_9, then B, then the weights of A''.

    s_j = j * S_GRID_STEP is where np.linspace(0, 1, 10001) puts it, and
    A''(s_j) = sum o_d^2 * w_d with w_d = 2*l'^2/l^3 + |l''|/l^2.
    """
    row = _ROWS.get(j)
    if row is None:
        s = j * S_GRID_STEP
        ls, ws = [], []
        for d in FIRST_DIGITS:
            x = 1.0 / d + 1.0 + s * d
            l = math.log10(x)
            q = d / (x * l)  # l'/l times ln 10
            ls.append(l)
            ws.append(q * q / _LN10 * (2.0 / (_LN10 * l) + 1.0))
        row = _ROWS[j] = (*ls, sum(ls), *ws)
    return row


def _descend(select) -> list[int]:
    """Grid indices of the finest blocks select keeps, ascending.

    select(blocks) takes (a, b) grid-index pairs and returns those worth
    refining; the whole grid is cut into blocks of _BLOCK_WIDTHS[0] steps,
    each kept block into blocks of the next width, and the points of the
    blocks kept at the last width, ends included, are returned.
    """
    blocks = [(0, _LAST)]
    for width in _BLOCK_WIDTHS:
        blocks = select([(c, c + width) for a, b in blocks for c in range(a, b, width)])
    return sorted({j for a, b in blocks for j in range(a, b + 1)})


class _Search:
    """The bounds of one fit over the s-grid (see the module docstring)."""

    def __init__(self, observed, ns_lo: int, ns_hi: int):
        self.observed = [float(o) for o in observed]
        self.squares = [o * o for o in self.observed]
        self.total = math.fsum(self.observed)
        self.ns_lo, self.ns_hi = ns_lo, ns_hi
        self.points: dict[int, tuple[float, float]] = {}  # j -> (A, B) where touched
        self.dips: dict[int, float] = {}  # j -> A''(s_j) * h^2 / 8
        self.scored = 0  # grid points scored directly by grid_argmin

    def ab(self, j: int) -> tuple[float, float]:
        """(A, B) at grid point j."""
        point = self.points.get(j)
        if point is None:
            row = _row(j)
            point = self.points[j] = (sum(q / l for q, l in zip(self.squares, row)), row[9])
        return point

    def dip(self, j: int) -> float:
        """A''(s_j) * h^2 / 8: A'' falls with s, so this bounds it from s_j on."""
        value = self.dips.get(j)
        if value is None:
            row = _row(j)
            value = self.dips[j] = (sum(q * w for q, w in zip(self.squares, row[10:]))
                                    * S_GRID_STEP**2 / 8.0)
        return value

    def score(self, j: int, n: int) -> float:
        """Pearson statistic at grid point j and scale n, summed as numpy does."""
        t = []
        for o, l in zip(self.observed, _row(j)):
            e = n * l
            t.append((o - e) * (o - e) / e)
        return ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7])) + t[8]

    def upper_bound(self) -> tuple[float, int]:
        """(U, j): the statistic at grid point j, where the scale profile is smallest."""
        ns_lo, ns_hi, ab = self.ns_lo, self.ns_hi, self.ab

        def profile(a, b):
            n = min(max(math.sqrt(a / b), ns_lo), ns_hi)
            return a / n + n * b

        j = _grid_minima(lambda j: profile(*ab(j)),
                         lambda a, b: profile(ab(b)[0], ab(a)[1]),
                         lambda a: self.dip(a) / ns_lo, 0.0)[0]
        a, b = ab(j)
        root = math.sqrt(a / b)
        scales = (min(max(math.floor(root), ns_lo), ns_hi), min(max(math.ceil(root), ns_lo), ns_hi))
        return self.score(j, min(scales, key=lambda n: a / n + n * b)), j

    def kept_scales(self, upper: float) -> list[list[int]]:
        """The scales that can win or tie, as merged ascending [first, last] spans."""
        total, ab, dip = self.total, self.ab, self.dip
        slack = 1e-9 * (total + max(1.0, upper))
        p = 2.0 * total + upper + slack
        kappa = dip(0)

        def interval(a, b, kappa):
            # the integers N within 1 of a root interval of B*N^2 - p*N + A - kappa
            disc = p * p - 4.0 * b * (a - kappa)
            if disc < 0.0:
                return None
            sq = math.sqrt(disc)
            lo = max(math.ceil((p - sq) / (2.0 * b) - 1.0), self.ns_lo)
            hi = min(math.floor((p + sq) / (2.0 * b) + 1.0), self.ns_hi)
            return (lo, hi) if lo <= hi else None

        def select(blocks):
            kept = []
            for a, b in blocks:
                wide = kappa + dip(a) * (b - a) ** 2
                if interval(ab(b)[0], ab(a)[1], kappa) and (
                        interval(*ab(a), wide) or interval(*ab(b), wide)):
                    kept.append((a, b))
            return kept

        spans: list[list[int]] = []
        for lo, hi in sorted(filter(None, (interval(*ab(j), kappa) for j in _descend(select)))):
            if spans and lo <= spans[-1][1] + 1:
                spans[-1][1] = max(spans[-1][1], hi)
            else:
                spans.append([lo, hi])
        return spans

    def grid_argmin(self, n: int, guess: int) -> tuple[int, float]:
        """(j, chi2) at the first grid point where the statistic at scale n is smallest.

        The grid point guess, evaluated first, only speeds up the search.
        """
        t2, ab = 2.0 * self.total, self.ab

        def form(j):
            a, b = ab(j)
            return a / n - t2 + n * b

        near = _grid_minima(form, lambda a, b: ab(b)[0] / n - t2 + n * ab(a)[1],
                            lambda a: self.dip(a) / n, 2e-9 * (self.total + 1.0), guess)
        self.scored += len(near)
        chi2, j = min((self.score(j, n), j) for j in near)
        return j, chi2


def _grid_minima(value, bound, dip, tol: float, guess: int = 0) -> list[int]:
    """The grid points whose value is within tol of the smallest, ascending.

    bound(a, b) is a lower bound of value on the block [a, b], and dip(a)
    bounds value''/8 per squared grid step from s_a on, so value on the
    block is also at least the smaller end value minus dip(a) * width^2.
    Blocks whose bound exceeds the smallest value seen, starting with the
    value at guess, by more than tol are dropped.
    """
    values: dict[int, float] = {}

    def at(j):
        v = values.get(j)
        if v is None:
            v = values[j] = value(j)
        return v

    least = at(guess)

    def select(blocks):
        nonlocal least
        least = min(least, min(at(j) for block in blocks for j in block))
        cut = least + tol
        return [(a, b) for a, b in blocks
                if min(at(a), at(b)) - dip(a) * (b - a) ** 2 <= cut and bound(a, b) <= cut]

    leaves = _descend(select)
    cut = min(map(at, leaves)) + tol
    return [j for j in leaves if at(j) <= cut]


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
