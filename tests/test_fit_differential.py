"""The imperfect-law fit against the exhaustive numpy search it replaces.

`exhaustive_fit` is the body of `fit_imperfect` before scale pruning,
kept verbatim as the oracle, with the numpy `_imperfect_scan` it called:
it runs the coarse scan of the whole 10,001-point s-grid and the
golden-section refinement on every scale in [ceil(N/2), 2N]. The
standard-library fit, which prunes scales and grid blocks, must return
the same result object, bit for bit.
"""

import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitaudit.errors import DegenerateHistogramWarning, DomainError
from digitaudit.gof_tests import DigitHistogram
from digitaudit.imperfect_fit import (
    S_GRID_STEP,
    ImperfectFitResult,
    _Search,
    _golden_min,
    fit_chi2,
    fit_imperfect,
    imperfect_curve,
    minimum_location,
)


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


def exhaustive_fit(hist: DigitHistogram) -> ImperfectFitResult:
    """Best (s, N_s) for a first-digit histogram under the search protocol."""
    if hist.position != 1:
        raise DomainError("imperfect-law fitting applies to first-digit histograms only")
    observed = hist.count_vector()
    total = hist.total
    if total < 9:
        raise DomainError(f"histogram total must be at least 9, got {total}")

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


def histogram(counts) -> DigitHistogram:
    return DigitHistogram.from_counts(1, dict(zip(range(1, 10), counts)))


def assert_same_fit(counts):
    hist = histogram(counts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateHistogramWarning)
        pruned, oracle = fit_imperfect(hist), exhaustive_fit(hist)
    assert pruned == oracle
    return pruned


@st.composite
def curled_counts(draw):
    """Rounded imperfect-law counts with integer noise: near-ties between scales."""
    n = draw(st.integers(min_value=9, max_value=400))
    s = draw(st.sampled_from([0.0, 0.001, 0.003, 0.01, 0.05]))
    noise = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=9, max_size=9))
    counts = [
        max(0, round(n * math.log10(1 / d + 1 + s * d)) + e)
        for d, e in zip(range(1, 10), noise)
    ]
    counts[0] += max(0, 9 - sum(counts))
    return counts


@st.composite
def single_digit_counts(draw):
    counts = [0] * 9
    counts[draw(st.integers(min_value=0, max_value=8))] = draw(
        st.integers(min_value=9, max_value=400)
    )
    return counts


histogram_counts = st.one_of(
    curled_counts(),
    st.lists(st.integers(min_value=0, max_value=40), min_size=9, max_size=9).filter(
        lambda c: sum(c) >= 9
    ),
    single_digit_counts(),
    st.lists(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False), min_size=9, max_size=9
    ).filter(lambda c: sum(c) >= 9),
)


@settings(max_examples=25, deadline=None)
@given(histogram_counts)
def test_matches_exhaustive_search(counts):
    assert_same_fit(counts)


# a curled histogram of exactly 1000 points: 1,501 scales in [500, 2000]
CURLED_1000 = [292, 172, 123, 97, 80, 69, 61, 55, 51]


def test_matches_exhaustive_search_at_n_1000():
    assert_same_fit(CURLED_1000)


def test_criterion_7_histogram_unchanged():
    counts = [round(62 * math.log10(1 / d + 1 + 0.003 * d)) for d in range(1, 10)]
    fit = assert_same_fit(counts)
    assert fit.n_s == 63
    assert fit.s == pytest.approx(0.00225, abs=1e-6)


@st.composite
def large_counts(draw):
    """Benford-like or curled histograms with totals up to 10^4."""
    n = draw(st.integers(min_value=1000, max_value=10_000))
    s = draw(st.sampled_from([0.0, 0.002, 0.02, 0.07]))
    noise = draw(st.lists(st.integers(min_value=-30, max_value=30), min_size=9, max_size=9))
    return [max(0, round(n * math.log10(1 / d + 1 + s * d)) + e)
            for d, e in zip(range(1, 10), noise)]


# each example runs the exhaustive oracle on up to 15,001 scales, about 10 s
@settings(max_examples=5, deadline=None)
@given(large_counts())
def test_matches_exhaustive_search_at_large_totals(counts):
    assert_same_fit(counts)


def test_curvature_bound_keeps_few_scales():
    search = _Search(CURLED_1000, 500, 2000)
    spans = search.kept_scales(search.upper_bound()[0])
    kept = [n for first, last in spans for n in range(first, last + 1)]
    assert 1 <= len(kept) < 50
    assert all(a < b for a, b in zip(kept, kept[1:]))
    assert fit_imperfect(histogram(CURLED_1000)).n_s in kept


def test_one_debug_line_per_fit(caplog):
    with caplog.at_level(logging.DEBUG, logger="digitaudit.imperfect_fit"):
        fit_imperfect(histogram([19, 11, 8, 6, 5, 5, 4, 4, 3]))
    (record,) = caplog.records
    message = record.getMessage()
    assert "of 98 scales" in message
    assert re.search(r"\b\d+ grid rows evaluated, \d+ points scored directly\b", message)
