"""Imperfect-law curve analytics and the deterministic fit protocol."""

import math
import subprocess
import sys
import tracemalloc

import pytest

from digitaudit.digit_laws import imperfect_counts, imperfect_prob
from digitaudit.errors import DegenerateHistogramWarning, DomainError
from digitaudit.gof_tests import DigitHistogram
from digitaudit.imperfect_fit import (
    MAX_FIT_TOTAL,
    S_GRID_STEP,
    ImperfectFitResult,
    _Search,
    fit_chi2,
    fit_imperfect,
    imperfect_curve,
    minimum_location,
    minimum_value,
)


def curve_oracle(s, n_s):
    return [n_s * math.log10(1 / d + 1 + s * d) for d in range(1, 10)]


def pearson_oracle(observed, s, n_s):
    return math.fsum((o - c) ** 2 / c for o, c in zip(observed, curve_oracle(s, n_s)))


def exhaustive_scan(observed, step=1e-3, ns_values=None):
    """Independent grid optimizer over the search box (or given scales)."""
    if ns_values is None:
        total = round(math.fsum(observed))
        ns_values = range(math.ceil(total / 2), 2 * total + 1)
    best = None
    for n_s in ns_values:
        for i in range(int(round(1 / step)) + 1):
            s = i * step
            cand = (pearson_oracle(observed, s, n_s), s, n_s)
            if best is None or cand < best:
                best = cand
    return best


class TestCurve:
    def test_zero_curl_reduces_to_scaled_law(self):
        assert imperfect_curve(0.0, 64) == tuple(64 * math.log10(1 + 1 / d) for d in range(1, 10))

    def test_integer_minimum_case(self):
        # at s = 0.04 the continuous minimum sits exactly on digit 5
        curve = imperfect_curve(0.04, 100)
        assert min(curve) == curve[4]
        assert curve[4] == pytest.approx(100 * math.log10(1.4), abs=1e-12)

    @pytest.mark.parametrize(
        "s,n_s,expected_surface",
        [(0.0031, 61, 64.09), (0.0012, 63, 64.24)],
    )
    def test_published_surface_checks(self, s, n_s, expected_surface):
        surface = math.fsum(imperfect_curve(s, n_s))
        assert surface == pytest.approx(expected_surface, abs=0.05)

    @pytest.mark.parametrize("s", [0.01, 0.04, 0.25])
    def test_minimum_formula_against_dense_sampling(self, s):
        step = 1e-4
        xs = [1.0 + i * step for i in range(int(11.0 / step) + 1)]  # covers [1, 12]
        values = [math.log10(1 / x + 1 + s * x) for x in xs]
        argmin = xs[values.index(min(values))]
        assert argmin == pytest.approx(minimum_location(s), abs=step)
        assert min(values) == pytest.approx(minimum_value(s), abs=1e-7)

    def test_minimum_location_at_zero_curl(self):
        assert minimum_location(0.0) == math.inf
        assert minimum_value(0.0) == 0.0


class TestFit:
    def test_noiseless_counts_recover_exactly(self):
        counts = {d: 64 * math.log10(1 + 1 / d) for d in range(1, 10)}
        fit = fit_imperfect(DigitHistogram.from_counts(1, counts))
        assert fit.s == 0.0
        assert fit.n_s == 64
        assert fit.chi2 == 0.0
        assert fit.minimum_location == math.inf
        assert not fit.degenerate

    def test_rounded_forward_counts(self):
        observed = [round(c) for c in curve_oracle(0.003, 62)]
        hist = DigitHistogram.from_counts(1, dict(zip(range(1, 10), observed)))
        fit = fit_imperfect(hist)
        assert fit.n_s in (61, 62, 63)
        # stage 1: an independent coarse scan of the whole box picks the scale
        _, _, best_ns = exhaustive_scan(observed, step=1e-3)
        assert fit.n_s == best_ns
        # stage 2: a fine scan at that scale pins the curl parameter
        fine_chi2, fine_s, _ = exhaustive_scan(observed, step=1e-5, ns_values=[best_ns])
        assert fit.s == pytest.approx(fine_s, abs=1e-5)
        assert fit.chi2 <= fine_chi2 + 1e-12
        assert fit.chi2 == pytest.approx(pearson_oracle(observed, fit.s, fit.n_s), abs=1e-12)

    def test_grid_optimality(self):
        observed = [20, 12, 9, 7, 6, 4, 3, 2, 2]
        hist = DigitHistogram.from_counts(1, dict(zip(range(1, 10), observed)))
        fit = fit_imperfect(hist)
        step = 2e-3
        total = round(sum(observed))
        for n_s in range(math.ceil(total / 2), 2 * total + 1):
            for i in range(int(1 / step) + 1):
                assert pearson_oracle(observed, i * step, n_s) >= fit.chi2 - 1e-9

    def test_never_worse_than_plain_law(self):
        for observed in ([19, 11, 8, 6, 5, 5, 4, 4, 3], [30, 10, 6, 5, 4, 3, 2, 2, 2]):
            hist = DigitHistogram.from_counts(1, dict(zip(range(1, 10), observed)))
            fit = fit_imperfect(hist)
            total = round(sum(observed))
            assert fit.chi2 <= pearson_oracle(observed, 0.0, total) + 1e-12

    def test_surface_equals_curve_sum(self):
        observed = [19, 11, 8, 6, 5, 5, 4, 4, 3]
        fit = fit_imperfect(DigitHistogram.from_counts(1, dict(zip(range(1, 10), observed))))
        assert fit.surface == pytest.approx(math.fsum(curve_oracle(fit.s, fit.n_s)), abs=1e-9)

    def test_deterministic(self):
        hist = DigitHistogram.from_counts(1, dict(zip(range(1, 10), [22, 9, 8, 7, 5, 4, 4, 3, 2])))
        first, second = fit_imperfect(hist), fit_imperfect(hist)
        assert first == second

    def test_degenerate_histogram_warns(self):
        hist = DigitHistogram.from_counts(1, {7: 64})
        with pytest.warns(DegenerateHistogramWarning):
            fit = fit_imperfect(hist)
        assert fit.degenerate
        assert isinstance(fit, ImperfectFitResult)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            fit_imperfect(DigitHistogram.from_counts(1, {1: 8}))
        with pytest.raises(DomainError):
            fit_imperfect(DigitHistogram.from_counts(2, {d: 5 for d in range(10)}))
        with pytest.raises(DomainError, match="at most"):
            fit_imperfect(DigitHistogram.from_counts(1, {1: MAX_FIT_TOTAL, 2: 1}))

    def test_fit_chi2_matches_oracle(self):
        observed = [19, 11, 8, 6, 5, 5, 4, 4, 3]
        assert fit_chi2(observed, 0.004, 60) == pytest.approx(
            pearson_oracle(observed, 0.004, 60), abs=1e-12
        )


@pytest.mark.parametrize(
    "observed, s, n_s",
    [([19, 11, 8, 6, 5, 5, 4, 4, 3], 0.004, 60), ([0, 0, 0, 0, 7, 0, 0, 0, 2], 0, 9),
     ([301, 176, 125, 97, 79, 67, 58, 51, 46], 0.7380953, 1999)],
)
def test_fit_chi2_sums_imperfect_curve_bit_for_bit(observed, s, n_s):
    # the pre-lean definition, summed over the public count curve
    expected = math.fsum(
        (o - c) ** 2 / c for o, c in zip(observed, imperfect_curve(s, n_s))
    )
    assert fit_chi2(observed, s, n_s) == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: minimum_location(math.nan),
        lambda: minimum_value(math.nan),
        lambda: minimum_location(math.inf),
        lambda: minimum_value(math.inf),
        lambda: imperfect_counts(1, "x", 5),
        lambda: imperfect_prob(1, "x"),
        lambda: imperfect_curve(None, 5),
        lambda: minimum_location("x"),
        lambda: fit_chi2([5] * 9, math.nan, 45),
    ],
    ids=["location-nan", "value-nan", "location-inf", "value-inf", "counts-str",
         "prob-str", "curve-none", "location-str", "chi2-nan"],
)
def test_curl_parameter_rejected_as_domain_error(call):
    with pytest.raises(DomainError, match="curl parameter s"):
        call()


def test_scan_matches_direct_evaluation():
    observed = [19, 11, 8, 6, 5, 5, 4, 4, 3]
    total = round(sum(observed))
    ns_values = range(math.ceil(total / 2), 2 * total + 1)
    search = _Search(observed, ns_values[0], ns_values[-1])
    for ns in (ns_values[0], ns_values[len(ns_values) // 2], ns_values[-1]):
        idx, chi2 = search.grid_argmin(ns, 0)
        assert search.grid_argmin(ns, 10_000) == (idx, chi2)  # the guess only saves work
        # every point of the full grid, scored directly; the first minimum wins
        direct = [pearson_oracle(observed, j * S_GRID_STEP, ns) for j in range(10_001)]
        assert chi2 == pytest.approx(direct[idx], abs=1e-12)
        assert min(direct) >= chi2 - 1e-12


def test_large_total_fits_in_little_memory():
    # a Benford-shaped histogram of 10^6 points: 1.5 million scales
    counts = [round(10**6 * math.log10(1 + 1 / d)) for d in range(1, 10)]
    hist = DigitHistogram.from_counts(1, dict(zip(range(1, 10), counts)))
    tracemalloc.start()
    try:
        fit = fit_imperfect(hist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert fit.n_s == 10**6
    assert fit.s == 0.0


def test_import_leaves_numpy_unloaded():
    code = "import sys, digitaudit, digitaudit.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"
