from fractions import Fraction

import numpy as np
import pytest

from densediv.errors import DomainError
from densediv.families import (
    FamilySpec,
    _ssf_within,
    check_factorization_lemma,
    check_partial_density_sum,
    check_phi_identity_range,
    check_ssf_identity_range,
    count_members,
    enumerate_members,
)
from densediv.integers import factorize

from _shared import check_theta2, schinzel_szekeres, ssf_identity_mask


class TestPhiIdentity:
    # the identity at one x is the range form's sum up to x
    def test_x_100(self):
        assert check_phi_identity_range(100, FamilySpec("bpower", Fraction(2), a=Fraction(1)))

    def test_x_1(self):
        assert check_phi_identity_range(1, FamilySpec("bpower", Fraction(2), a=Fraction(1)))

    def test_squarefree_sqrt(self):
        spec = FamilySpec("bpower", Fraction(3), a=Fraction(1, 2), squarefree=True)
        assert check_phi_identity_range(10_000, spec)

    def test_range_small(self):
        assert check_phi_identity_range(2000, FamilySpec("bpower", Fraction(2), a=Fraction(1)))
        assert check_phi_identity_range(
            2000, FamilySpec("bpower", Fraction(3), a=Fraction(1, 2), squarefree=True)
        )

    def test_y_below_2_rejected(self):
        with pytest.raises(DomainError):
            spec = FamilySpec("bpower", Fraction(19, 10), a=Fraction(1, 2), squarefree=True)
            check_phi_identity_range(10, spec)

    def test_range_y_below_2_rejected(self):
        with pytest.raises(DomainError):
            check_phi_identity_range(10, FamilySpec("bpower", Fraction(3, 2), a=Fraction(1)))

    @pytest.mark.parametrize("spec", [
        FamilySpec("bpower", Fraction(2), a=Fraction(1)),
        FamilySpec("bpower", Fraction(3), a=Fraction(1, 2), squarefree=True),
    ])
    def test_range_1e5(self, spec):
        assert check_phi_identity_range(100_000, spec)


class TestDensitySum:
    def test_single_term(self):
        spec = FamilySpec("bpower", Fraction(2), a=Fraction(1))
        assert check_partial_density_sum(spec, 1) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_and_below_one(self):
        spec = FamilySpec("bpower", Fraction(2), a=Fraction(1))
        vals = [check_partial_density_sum(spec, N) for N in (1, 10, 100, 1000, 10_000)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals)

    def test_measured_value_at_1e5(self):
        spec = FamilySpec("bpower", Fraction(2), a=Fraction(1))
        v = check_partial_density_sum(spec, 100_000)
        assert 0.9 < v < 1.0
        assert v == pytest.approx(0.943601, abs=1e-4)


class TestSSFIdentity:
    def test_examples(self):
        # the per-n form, and the count it implies:
        # |{n <= x : F_beta(n)/n <= y^beta}| = B_{1/beta}(x, y)
        for x, y, beta in ((1, Fraction(2), Fraction(1)), (1000, Fraction(2), Fraction(1)),
                           (1000, Fraction(3), Fraction(2))):
            assert check_ssf_identity_range(x, y, beta)
            count = count_members(FamilySpec("bpower", y, a=1 / beta), x)
            assert np.count_nonzero(ssf_identity_mask(x, y, beta)) == count

    def test_range_products_past_int64(self):
        assert check_ssf_identity_range(600, Fraction(10**17 + 3, 3 * 10**16), Fraction(7, 3))

    def test_range_y_below_2_rejected(self):
        with pytest.raises(DomainError):
            check_ssf_identity_range(10, Fraction(3, 2), Fraction(1))

    @pytest.mark.parametrize("beta", [Fraction(0), Fraction(-1)])
    def test_beta_not_positive_rejected(self, beta):
        calls = [
            lambda: schinzel_szekeres(10, beta),
            lambda: _ssf_within(10, beta, 20, 1, 0),
            lambda: check_ssf_identity_range(10, Fraction(2), beta),
        ]
        for call in calls:
            with pytest.raises(DomainError):
                call()


class TestTheta2:
    def test_trivial(self):
        assert check_theta2(1, Fraction(2))

    def test_up_to_32_both_y(self):
        for y in (Fraction(2), Fraction(3)):
            for n in range(1, 33):
                assert check_theta2(n, y)

    def test_medium_range(self):
        for y in (Fraction(2), Fraction(3)):
            for n in range(1, 2001):
                assert check_theta2(n, y), (n, y)


class TestFactorizationLemma:
    def test_base_case(self):
        for R in (Fraction(1), Fraction(3, 2), Fraction(2)):
            assert check_factorization_lemma(1, 2, Fraction(2), R, 1, 0)

    def test_prime_case(self):
        # n = p <= y: for R in (p, y p], the split uses d_w = n
        assert check_factorization_lemma(2, 2, Fraction(2), Fraction(3), 0, 1)
        assert check_factorization_lemma(2, 2, Fraction(2), Fraction(2), 1, 0)

    def test_precondition_violations(self):
        with pytest.raises(DomainError):
            check_factorization_lemma(12, 2, Fraction(2), Fraction(1), 1, 1)
        with pytest.raises(DomainError):
            check_factorization_lemma(12, 2, Fraction(2), Fraction(100), 1, 0)
        with pytest.raises(DomainError):
            # 5 is not in the ThetaLower(2) family for y=2
            check_factorization_lemma(5, 2, Fraction(2), Fraction(2), 1, 0)

    def test_grid_over_members(self):
        y = Fraction(2)
        for i in (1, 2, 3):
            spec = FamilySpec("thetalower", y, i=i)
            members = enumerate_members(spec, 3000)
            for n in members[::3]:
                f = factorize(n)
                for v in range(i):
                    w = i - 1 - v
                    for k in range(1, 7):
                        R = Fraction(k * 2 * n, 6) if k > 1 else Fraction(1)
                        R = min(max(R, Fraction(1)), y * n)
                        assert check_factorization_lemma(f, i, y, R, v, w), (n, i, v, R)
