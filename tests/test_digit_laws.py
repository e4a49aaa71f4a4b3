"""Digit-law evaluation: reference values, normalization, structure."""

import dataclasses
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from digitaudit import digit_laws as laws
from digitaudit.errors import DomainError


def brute_nth_digit_prob(d, n):
    """Independent loop oracle for the position-n digit probability."""
    return math.fsum(math.log10(1 + 1 / (10 * k + d)) for k in range(10 ** (n - 2), 10 ** (n - 1)))


def loggamma_nth_digit_prob(d, n):
    """Closed-form oracle: the prefix sum telescopes into log-gamma values."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b = mpmath.mpf(10) ** (n - 2), mpmath.mpf(10) ** (n - 1)
        hi, lo = mpmath.mpf(d + 1) / 10, mpmath.mpf(d) / 10
        total = (mpmath.loggamma(b + hi) - mpmath.loggamma(a + hi)
                 - mpmath.loggamma(b + lo) + mpmath.loggamma(a + lo))
        return float(total / mpmath.log(10))


class TestFirstDigitLaw:
    def test_tabulated_values(self):
        assert laws.benford_first_digit_prob(1) == pytest.approx(0.30103, abs=1e-5)
        assert laws.benford_first_digit_prob(9) == pytest.approx(0.04576, abs=1e-5)

    def test_closed_form(self):
        for d in range(1, 10):
            assert laws.benford_first_digit_prob(d) == math.log10(1 + 1 / d)

    def test_sums_to_one(self):
        total = math.fsum(laws.benford_first_digit_prob(d) for d in range(1, 10))
        assert abs(total - 1.0) < 1e-12

    def test_strictly_decreasing(self):
        probs = [laws.benford_first_digit_prob(d) for d in range(1, 10)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize("bad", [0, 10, -1, 1.5, "3"])
    def test_domain(self, bad):
        with pytest.raises((DomainError, TypeError)):
            laws.benford_first_digit_prob(bad)


class TestStringLaw:
    def test_worked_value(self):
        assert laws.string_prob("123") == pytest.approx(math.log10(124 / 123), abs=1e-15)
        assert laws.string_prob("123") == pytest.approx(0.003526, abs=1e-5)

    def test_single_digit_reduces_to_first_digit_law(self):
        for d in range(1, 10):
            assert laws.string_prob(str(d)) == laws.benford_first_digit_prob(d)

    def test_two_nines(self):
        assert laws.string_prob("99") == pytest.approx(math.log10(100 / 99), abs=1e-15)

    def test_chain_rule(self):
        # summing over the next digit recovers the shorter prefix probability
        for d1 in range(1, 10):
            total = math.fsum(laws.string_prob(f"{d1}{d2}") for d2 in range(10))
            assert abs(total - laws.benford_first_digit_prob(d1)) < 1e-12

    @pytest.mark.parametrize("bad", ["", "0", "012", "x2", "1.5", None])
    def test_rejects_bad_prefixes(self, bad):
        with pytest.raises(DomainError):
            laws.string_prob(bad)


class TestNthDigitLaw:
    def test_second_digit_two(self):
        assert laws.nth_digit_prob(2, 2) == pytest.approx(0.1088, abs=5e-5)

    def test_matches_brute_force(self):
        for d, n in [(0, 3), (2, 2), (7, 3), (9, 4)]:
            assert laws.nth_digit_prob(d, n) == pytest.approx(brute_nth_digit_prob(d, n), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_normalization(self, n):
        total = math.fsum(laws.nth_digit_prob(d, n) for d in range(10))
        assert abs(total - 1.0) < 1e-12

    def test_approaches_uniform(self):
        deviations = [
            max(abs(laws.nth_digit_prob(d, n) - 0.1) for d in range(10))
            for n in (2, 3, 4, 5)
        ]
        assert all(a > b for a, b in zip(deviations, deviations[1:]))
        assert deviations[2] < 0.01  # position 4

    @pytest.mark.parametrize("n", range(2, 26))
    def test_matches_loggamma_oracle_without_warning(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [laws.nth_digit_prob(d, n) for d in range(10)]
        assert values == pytest.approx([loggamma_nth_digit_prob(d, n) for d in range(10)], abs=1e-15)

    def test_position_one_rejected(self):
        with pytest.raises(DomainError):
            laws.nth_digit_prob(2, 1)

    def test_digit_domain(self):
        with pytest.raises(DomainError):
            laws.nth_digit_prob(10, 2)

    @pytest.mark.parametrize("n", [3.0, 2.5, True, "3"])
    def test_non_integer_position_rejected(self, n):
        with pytest.raises(DomainError):
            laws.nth_digit_prob(3, n)
        with pytest.raises(DomainError):
            laws.DigitLawModel.nth_digit(n)
        with pytest.raises(DomainError):
            laws.uniform_prob(3, n)


class TestUniform:
    def test_values(self):
        assert laws.uniform_prob(3, 1) == 1 / 9
        assert laws.uniform_prob(0, 2) == 1 / 10

    def test_zero_cannot_lead(self):
        with pytest.raises(DomainError):
            laws.uniform_prob(0, 1)


class TestGeneralizedLaw:
    def test_reduces_to_first_digit_law(self):
        for d in range(1, 10):
            assert laws.generalized_prob(d, 0.0, 1.0) == pytest.approx(
                laws.benford_first_digit_prob(d), abs=1e-12
            )

    def test_zero_digit_value(self):
        # with r=1, q=1 the normalizer telescopes to log10(11)
        expected = math.log10(2) / math.log10(11)
        assert laws.generalized_prob(0, 1.0, 1.0, zero_allowed=True) == pytest.approx(
            expected, abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        q=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
    )
    def test_normalization(self, r, q):
        total = math.fsum(laws.generalized_prob(d, r, q) for d in range(1, 10))
        assert abs(total - 1.0) < 1e-12

    def test_normalization_with_zero_digit(self):
        total = math.fsum(laws.generalized_prob(d, 1.0, 2.0, zero_allowed=True) for d in range(10))
        assert abs(total - 1.0) < 1e-12

    def test_zero_digit_guard(self):
        with pytest.raises(DomainError):
            laws.generalized_prob(0, 0.0, 1.0)
        with pytest.raises(DomainError):
            laws.generalized_prob(0, 0.5, 1.0, zero_allowed=True)

    @pytest.mark.parametrize("r,q", [(-0.1, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_parameter_domain(self, r, q):
        with pytest.raises(DomainError):
            laws.generalized_prob(3, r, q)


class TestImperfectLaw:
    def test_zero_curl_is_plain_law(self):
        for d in range(1, 10):
            assert laws.imperfect_counts(d, 0.0, 64) == 64 * math.log10(1 + 1 / d)

    def test_direct_evaluation(self):
        assert laws.imperfect_counts(9, 0.0031, 61) == pytest.approx(
            61 * math.log10(1 / 9 + 1 + 0.0031 * 9), abs=1e-15
        )

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=9),
        s1=st.floats(min_value=0.0, max_value=0.5),
        ds=st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_monotone_in_curl(self, d, s1, ds):
        assert laws.imperfect_counts(d, s1 + ds, 50) > laws.imperfect_counts(d, s1, 50)

    @pytest.mark.parametrize("s", [0.02, 0.05, 0.1, 0.3, 0.9])
    def test_curl_up_beats_interior_minimum(self, s):
        # for an interior minimum (1/sqrt(s) < 9), digit 9 exceeds the dip
        location = 1 / math.sqrt(s)
        assert location < 9
        d_star = min(range(1, 10), key=lambda d: abs(d - location))
        assert laws.imperfect_counts(9, s, 64) > laws.imperfect_counts(d_star, s, 64)

    def test_probability_form_normalized(self):
        for s in (0.0, 0.003, 0.04, 0.5):
            total = math.fsum(laws.imperfect_prob(d, s) for d in range(1, 10))
            assert abs(total - 1.0) < 1e-12

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            laws.imperfect_counts(3, -0.1, 64)
        with pytest.raises(DomainError):
            laws.imperfect_counts(3, 0.1, 0)
        with pytest.raises(DomainError):
            laws.imperfect_counts(0, 0.1, 64)


@dataclasses.dataclass(frozen=True)
class DataclassLawModel:
    """The frozen dataclass DigitLawModel was, kept as the named tuple's oracle."""

    kind: laws.LawKind
    position: int = 1
    r: float = 0.0
    q: float = 1.0
    s: float = 0.0
    n_s: int = 1
    zero_allowed: bool = False

    @classmethod
    def benford(cls):
        return cls(laws.LawKind.BENFORD1)

    @classmethod
    def uniform(cls, position=1):
        return cls(laws.LawKind.UNIFORM, position=position)

    @classmethod
    def string_law(cls):
        return cls(laws.LawKind.STRING_LAW)

    @classmethod
    def nth_digit(cls, position):
        return cls(laws.LawKind.NTH_DIGIT, position=position)

    @classmethod
    def generalized(cls, r, q, zero_allowed=False):
        return cls(laws.LawKind.GENERALIZED, r=float(r), q=float(q), zero_allowed=zero_allowed)

    @classmethod
    def imperfect(cls, s, n_s=1):
        return cls(laws.LawKind.IMPERFECT, s=float(s), n_s=n_s)

    @property
    def digit_domain(self):
        kind = self.kind
        if kind in (laws.LawKind.BENFORD1, laws.LawKind.STRING_LAW, laws.LawKind.IMPERFECT):
            return laws.FIRST_DIGITS
        if kind is laws.LawKind.GENERALIZED:
            return laws.ALL_DIGITS if self.zero_allowed else laws.FIRST_DIGITS
        return laws.FIRST_DIGITS if self.position == 1 else laws.ALL_DIGITS

    def prob(self, d):
        kind = self.kind
        if kind is laws.LawKind.BENFORD1:
            return laws.benford_first_digit_prob(d)
        if kind is laws.LawKind.UNIFORM:
            return laws.uniform_prob(d, self.position)
        if kind is laws.LawKind.STRING_LAW:
            return laws.string_prob(str(d))
        if kind is laws.LawKind.NTH_DIGIT:
            if self.position == 1:
                return laws.benford_first_digit_prob(d)
            return laws.nth_digit_prob(d, self.position)
        if kind is laws.LawKind.GENERALIZED:
            return laws.generalized_prob(d, self.r, self.q, self.zero_allowed)
        return laws.imperfect_prob(d, self.s)

    def probabilities(self):
        return {d: self.prob(d) for d in self.digit_domain}

    def expected_count(self, d):
        if self.kind is laws.LawKind.IMPERFECT:
            return laws.imperfect_counts(d, self.s, self.n_s)
        return self.n_s * self.prob(d)


CONSTRUCTIONS = [
    ("benford", ()),
    ("uniform", ()),
    ("uniform", (1,)),
    ("uniform", (2,)),
    ("string_law", ()),
    ("nth_digit", (1,)),
    ("nth_digit", (2,)),
    ("nth_digit", (5,)),
    ("generalized", (0.7, 1.3)),
    ("generalized", (2, 1)),
    ("generalized", (2.0, 0.8, True)),
    ("imperfect", (0.04, 64)),
    ("imperfect", (0,)),
]


class TestNamedTupleParity:
    def pairs(self):
        return [(getattr(laws.DigitLawModel, name)(*args), getattr(DataclassLawModel, name)(*args))
                for name, args in CONSTRUCTIONS]

    def test_repr_hash_and_equality_match_the_dataclass(self):
        pairs = self.pairs()
        for new, old in pairs:
            assert repr(new) == "DigitLawModel" + repr(old).removeprefix("DataclassLawModel")
            assert hash(new) == hash(old)
        for new_a, old_a in pairs:
            for new_b, old_b in pairs:
                assert (new_a == new_b) == (old_a == old_b)

    def test_evaluation_matches_the_dataclass(self):
        for new, old in self.pairs():
            assert new.digit_domain == old.digit_domain
            assert new.probabilities() == old.probabilities()
            for d in new.digit_domain:
                assert new.expected_count(d) == old.expected_count(d)

    def test_fields_cannot_be_assigned(self):
        for new, _ in self.pairs():
            with pytest.raises(AttributeError):
                new.s = 0.5
            with pytest.raises(AttributeError):
                new.kind = laws.LawKind.UNIFORM


class TestDigitLawModel:
    @pytest.mark.parametrize(
        "model",
        [
            laws.DigitLawModel.benford(),
            laws.DigitLawModel.uniform(1),
            laws.DigitLawModel.uniform(2),
            laws.DigitLawModel.string_law(),
            laws.DigitLawModel.nth_digit(2),
            laws.DigitLawModel.nth_digit(3),
            laws.DigitLawModel.generalized(0.7, 1.3),
            laws.DigitLawModel.generalized(2.0, 0.8, zero_allowed=True),
            laws.DigitLawModel.imperfect(0.04, 64),
        ],
        ids=lambda m: f"{m.kind.value}-p{m.position}",
    )
    def test_probabilities_sum_to_one(self, model):
        assert abs(math.fsum(model.probabilities().values()) - 1.0) < 1e-12

    def test_dispatch_matches_functions(self):
        assert laws.DigitLawModel.benford().prob(3) == laws.benford_first_digit_prob(3)
        assert laws.DigitLawModel.nth_digit(2).prob(0) == laws.nth_digit_prob(0, 2)
        assert laws.DigitLawModel.nth_digit(1).prob(4) == laws.benford_first_digit_prob(4)
        assert laws.DigitLawModel.string_law().prob(7) == laws.string_prob("7")

    def test_imperfect_expected_counts_reduce_at_zero_curl(self):
        model = laws.DigitLawModel.imperfect(0.0, 64)
        for d in range(1, 10):
            assert model.expected_count(d) == 64 * math.log10(1 + 1 / d)

    def test_domains(self):
        assert laws.DigitLawModel.benford().digit_domain == tuple(range(1, 10))
        assert laws.DigitLawModel.nth_digit(2).digit_domain == tuple(range(10))
        assert laws.DigitLawModel.generalized(1.0, 1.0, zero_allowed=True).digit_domain == tuple(range(10))

    def test_generalized_zero_needs_offset(self):
        with pytest.raises(DomainError):
            laws.DigitLawModel.generalized(0.3, 1.0, zero_allowed=True)

    def test_generalized_parameters_validated_at_construction(self):
        with pytest.raises(DomainError):
            laws.DigitLawModel.generalized(-1.0, 1.0)
        with pytest.raises(DomainError):
            laws.DigitLawModel.generalized(1.0, 0.0)
