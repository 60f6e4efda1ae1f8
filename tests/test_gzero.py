import json
import math
from fractions import Fraction

import numpy as np
import pytest

from densediv._constants import EULER_GAMMA, EXP_NEG_GAMMA
from densediv.errors import DomainError, SearchFailureError
from densediv.gzero import (
    count_zeros_rect,
    dgda_identity_check,
    find_lambda,
    g_eval,
    g_eval_integral,
    g_eval_neg_int,
    g_eval_series,
    g_series_error_bound,
    h_bound,
    lambda_asymptote_report,
    locate_zero_in_rect,
    residue_C,
)
from densediv.reference import LAMBDA_TABLE, truncate_matches

C1 = 1.0 / (1.0 - EXP_NEG_GAMMA)


class TestNegIntExact:
    def test_n0_is_one(self):
        for a in (Fraction(1), Fraction(1, 2), Fraction(7, 3)):
            assert g_eval_neg_int(a, 0) == 1

    def test_a1_n1_is_zero(self):
        assert g_eval_neg_int(Fraction(1), 1) == 0

    def test_half_bracket(self):
        assert g_eval_neg_int(Fraction(1, 2), 2) == Fraction(1, 8)
        assert g_eval_neg_int(Fraction(1, 2), 3) == Fraction(-5, 48)

    def test_negative_n(self):
        with pytest.raises(DomainError):
            g_eval_neg_int(Fraction(1), -1)


class TestSeriesRoute:
    def test_bound_halves_per_K(self):
        b1 = g_series_error_bound(Fraction(1), 1.0, 20)
        b2 = g_series_error_bound(Fraction(1), 1.0, 21)
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_K_too_small(self):
        with pytest.raises(DomainError):
            g_eval_series(Fraction(1), complex(-8.5, 0), K=4)

    def test_pole_points_rejected(self):
        with pytest.raises(DomainError):
            g_eval_series(Fraction(1), -3.0)

    def test_matches_neg_int_limit(self):
        # series at -n + 1e-9 approaches the exact rational value, n <= 25;
        # the offset contributes |g'| * 1e-9, bounded here via the value scale
        for a in (Fraction(1), Fraction(1, 2)):
            scale = EXP_NEG_GAMMA / float(a)
            for n in range(0, 26, 5):
                exact = float(g_eval_neg_int(a, n)) * scale
                val, bound = g_eval_series(a, complex(-n + 1e-9, 0.0))
                assert abs(val.real - exact) < bound + 1e-7 * (1.0 + abs(exact))

    def test_reflection_symmetry(self):
        a = Fraction(1, 3)
        v1, _ = g_eval_series(a, complex(0.7, 2.3))
        v2, _ = g_eval_series(a, complex(0.7, -2.3))
        assert v1.real == pytest.approx(v2.real, rel=1e-10)
        assert v1.imag == pytest.approx(-v2.imag, rel=1e-10)

    def test_g_at_zero(self):
        # g_a(0) = e^-gamma / a
        for a in (Fraction(1), Fraction(1, 2)):
            assert g_eval(a, 0.0) == pytest.approx(EXP_NEG_GAMMA / float(a), rel=1e-12)
            assert g_eval_integral(a, 1e-14).real == pytest.approx(
                EXP_NEG_GAMMA / float(a), rel=1e-9
            )

    def test_large_positive_sigma(self):
        # the h_2 tail cutoff must track the integrand peak at u ~ a*Re(s);
        # reference values from direct quadrature of the J-form integral
        got, _ = g_eval_series(Fraction(1, 5), 12.0)
        assert got.real == pytest.approx(12.4132632338, rel=1e-10)
        got, _ = g_eval_series(Fraction(1), 25.0)
        assert got.real == pytest.approx(25.0000000277, rel=1e-10)
        vs, _ = g_eval_series(Fraction(1, 3), complex(8.0, 3.0))
        vi = g_eval_integral(Fraction(1, 3), complex(8.0, 3.0))
        assert abs(vs - vi) < 1e-6


SAMPLE_20 = [
    1.0, 2.5, 0.25, 3.0 + 0.0j,
    complex(-0.5, 1.0), complex(-1.5, 2.0), complex(-2.5, 3.0), complex(-4.5, 0.5),
    complex(0.5, -1.5), complex(1.5, 4.0), complex(2.0, -3.0), complex(-3.5, 1.5),
    complex(-5.5, 5.0), complex(0.1, 0.1), complex(-0.9, 6.0), complex(1.0, 8.0),
    complex(-2.0 + 0.3, -4.0), complex(-6.5, 2.5), complex(4.0, 1.0), complex(-1.2, -2.2),
]


class TestMethodTriangle:
    @pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    def test_series_vs_integral(self, a):
        for s in SAMPLE_20:
            vs, bound = g_eval_series(a, s)
            vi = g_eval_integral(a, s)
            # below the summed error bounds, and below the 1e-6 gate
            assert abs(vs - vi) < bound + 1e-6
            assert abs(vs - vi) < 1e-6


class TestFindLambda:
    def test_a1_exact(self):
        cert = find_lambda(Fraction(1))
        assert cert.lam == 1.0
        assert cert.bracket == (1, 1)
        assert cert.residual == 0.0
        # exactness at the rational level
        assert g_eval_neg_int(Fraction(1), 1) * 1 == 0

    def test_table_rows(self):
        assert truncate_matches(find_lambda(Fraction(1, 3)).lam, LAMBDA_TABLE[3])
        assert truncate_matches(find_lambda(Fraction(1, 10)).lam, LAMBDA_TABLE[10])

    def test_small_residual_at_printed_zero(self):
        # the truncated table value already sits within 1e-4 of the zero
        val, _ = g_eval_series(Fraction(1, 2), complex(-2.46206, 0.0))
        assert abs(val) < 1e-4

    def test_bracket_evidence(self):
        for i in (2, 3, 7):
            cert = find_lambda(Fraction(1, i))
            lo, hi = cert.bracket
            s_lo, s_hi = cert.bracket_signs
            assert s_lo > 0 > s_hi
            assert s_lo == g_eval_neg_int(Fraction(1, i), lo)
            assert s_hi == g_eval_neg_int(Fraction(1, i), hi)
            assert lo < cert.lam < hi
            assert cert.residual < 1e-9

    def test_a_above_one(self):
        cert = find_lambda(Fraction(2))
        assert 0.0 < cert.lam < 1.0
        assert cert.bracket == (0, 1)

    def test_search_cap_raises(self):
        # a large enough that lambda_a < 1 always brackets; force failure by cap
        with pytest.raises((SearchFailureError, DomainError)):
            find_lambda(Fraction(0))

    def test_int_and_fraction_share_cache_entry(self):
        cert = find_lambda(Fraction(1))
        misses = find_lambda.cache_info().misses
        assert find_lambda(1) is cert
        assert find_lambda(1, None) is cert
        assert find_lambda.cache_info().misses == misses

    def test_nonpositive_start_raises(self, monkeypatch):
        # the sign scan needs g_a(0) a e^gamma > 0; an explicit error, not an assert
        from densediv import gzero

        monkeypatch.setattr(gzero, "g_eval_neg_int", lambda a, n: Fraction(0))
        with pytest.raises(SearchFailureError):
            find_lambda(Fraction(7, 3))


class TestResidue:
    def test_c1_closed_form(self):
        cert = find_lambda(Fraction(1))
        assert abs(cert.C - C1) < 1e-4
        # derivative at the zero: g'(-1) = 1 - e^-gamma
        assert 1.0 / cert.C == pytest.approx(1.0 - EXP_NEG_GAMMA, rel=1e-8)

    def test_direct_call_consistency(self):
        cert = find_lambda(Fraction(1, 2))
        again = residue_C(Fraction(1, 2), cert.lam)
        assert again == pytest.approx(cert.C, rel=1e-9)


class TestHBound:
    def test_decreasing_in_sigma(self):
        vals = [h_bound(Fraction(1), s) for s in (-4.0, -2.0, 0.0, 2.0)]
        assert vals == sorted(vals, reverse=True)

    def test_contains_known_complex_zero(self):
        assert h_bound(Fraction(1), -3.03) >= 11.36

    def test_bounds_located_zero(self):
        z = locate_zero_in_rect(1, (-3.6, -2.5, 10.8, 11.9), resolution=0.02)
        assert abs(z) <= h_bound(Fraction(1), z.real) + 0.1


class TestWinding:
    def test_pole_pair_member(self):
        assert count_zeros_rect(1, (-3.5, -0.5, 5, 20)) == 1

    def test_no_zeros_right_of_lambda(self):
        assert count_zeros_rect(1, (-0.5, 2, -5, 5)) == 0

    def test_zero_free_inner_rect(self):
        assert count_zeros_rect(1, (-2.9, -0.9, 0.1, 11)) == 0

    def test_rightmost_zero_strip_all_table_rows(self):
        # [-lambda-0.01, 0] x [-H, H] holds exactly the real zero, so counting
        # 1 there certifies no other zero right of -lambda_a - 0.01
        for i in range(1, 11):
            a = Fraction(1, i)
            cert = find_lambda(a)
            H = h_bound(a, -cert.lam - 0.01)
            n = count_zeros_rect(a, (-cert.lam - 0.01, 0.0, -H, H))
            assert n == 1, f"a=1/{i}"
            tiny = count_zeros_rect(
                a, (-cert.lam - 0.01, -cert.lam + 0.01, -0.01, 0.01), n0=16
            )
            assert tiny == 1, f"a=1/{i}"

    def test_pole_pair_a_half(self):
        # dominant complex pair for a=1/2 sits near -4.65 + 18.71i
        z = locate_zero_in_rect(Fraction(1, 2), (-5.3, -4.1, 18.2, 19.3), resolution=0.02)
        assert abs(z - complex(-4.65, 18.71)) < 0.05
        # measured strip width: consistent with the tabulated mu for a=1/2,
        # the lambda + 2.03 conjecture is only reported, never asserted
        gap = -z.real - find_lambda(Fraction(1, 2)).lam
        print(f"a=1/2 measured mu - lambda gap: {gap:.3f}")

    def test_bad_rect(self):
        with pytest.raises(DomainError):
            count_zeros_rect(1, (0.0, -1.0, 0.0, 1.0))


class TestDgda:
    def test_sample_points(self):
        assert dgda_identity_check(1, 1.0) < 1e-6
        assert dgda_identity_check(Fraction(1, 2), complex(-2, 3)) < 1e-6

    def test_at_zero_closed_form(self):
        # both sides reduce to -(1/a) g_a(0) = -e^-gamma/a^2
        for af in (1.0, 0.5):
            res = dgda_identity_check(af, 0.0)
            assert res < 1e-6


class TestAsymptoteReport:
    def test_r_bound_a1(self):
        rows = lambda_asymptote_report([Fraction(1)])
        assert rows[0]["r_a_ok"]
        assert abs(rows[0]["r_a"]) <= 2.0 / 3.0

    def test_small_a_gap_reported(self):
        rows = lambda_asymptote_report([Fraction(1, 10)])
        gap = rows[0]["small_a_gap"]
        assert gap == pytest.approx(0.1 * 20.6568 - (math.log(10) - 1.0), abs=1e-3)

    def test_lambda_monotone_in_i(self):
        lams = [find_lambda(Fraction(1, i)).lam for i in range(1, 21)]
        assert all(l2 > l1 for l1, l2 in zip(lams, lams[1:]))


class TestCertificateExport:
    def test_json_roundtrip(self):
        cert = find_lambda(Fraction(1, 2))
        doc = json.loads(cert.to_json())
        assert doc["schema"] == 1
        assert doc["a"] == "1/2"
        assert doc["bracket"] == [2, 3]
        assert doc["lambda"] == pytest.approx(cert.lam)
        assert doc["C"] == pytest.approx(cert.C)
