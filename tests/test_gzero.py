import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densediv._constants import EULER_GAMMA, EXP_NEG_GAMMA
from densediv.errors import (
    BoundaryZeroError,
    DomainError,
    NumericalConsistencyError,
    ResourceLimitError,
    SearchFailureError,
)
from densediv import gzero
from densediv.gzero import (
    count_zeros_rect,
    dgda_identity_check,
    find_lambda,
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


class TestNegIntHelper:
    def test_exact_at_nonpositive_integers(self):
        for a in (Fraction(1), Fraction(1, 2)):
            for n in (0, 1, 4):
                expected = float(g_eval_neg_int(a, n)) * EXP_NEG_GAMMA / float(a)
                assert gzero._g_exact_or_series(a, complex(-n, 0.0)) == complex(expected)

    def test_series_elsewhere(self):
        a, s = Fraction(1, 2), complex(-1.5, 0.0)
        assert gzero._g_exact_or_series(a, s) == g_eval_series(a, s)[0]
        assert gzero._g_exact_or_series(a, complex(-1.0, 1e-3)) == g_eval_series(a, complex(-1.0, 1e-3))[0]

    @pytest.mark.parametrize("v, noise", [
        (complex(math.nan, math.nan), math.nan),
        (complex(math.inf, 0.0), 1e-16),
        (1.0 + 0j, math.inf),
        (1.0 + 0j, math.nan),
        (1.0 + 0j, 0.03),  # below 50x its noise
    ])
    def test_margin_falls_back_past_a_non_finite_or_noisy_float(self, monkeypatch, v, noise):
        a, s = Fraction(1, 2), complex(-1.5, 0.0)
        monkeypatch.setattr(gzero, "_g_series_float", lambda a_, s_: (v, noise))
        assert gzero._g_exact_or_series(a, s, margin=50.0) == g_eval_series(a, s)[0]

    def test_margin_keeps_a_clear_float(self, monkeypatch):
        a, s = Fraction(1, 2), complex(-1.5, 0.0)
        monkeypatch.setattr(gzero, "_g_series_float", lambda a_, s_: (1.0 + 0j, 0.02))
        assert gzero._g_exact_or_series(a, s, margin=50.0) == 1.0 + 0j
        assert gzero._g_exact_or_series(a, s) == g_eval_series(a, s)[0]


class TestSeriesRoute:
    def test_bound_halves_per_K(self):
        b1 = g_series_error_bound(Fraction(1), 1.0, 20)
        b2 = g_series_error_bound(Fraction(1), 1.0, 21)
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_K_too_small(self):
        # past Re s = -257 the K <= 258 terms cannot meet K >= 1 - Re s
        with pytest.raises(DomainError):
            g_eval_series(Fraction(1), complex(-300.5, 0))

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
            assert gzero._g_exact_or_series(a, 0j) == pytest.approx(
                EXP_NEG_GAMMA / float(a), rel=1e-12
            )
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


def _per_k_gammalow(s, z, k):
    # the direct evaluation of one term, by mpmath's own incomplete gamma
    return mp.gammainc(s + k, 0, z)


class TestDownwardRecurrence:
    @pytest.mark.parametrize(
        "a", [Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 20), Fraction(2, 3), Fraction(3)]
    )
    def test_matches_per_term_evaluation(self, a):
        # terms of the recurrence against their own direct evaluation at dps
        # 40: the top index, the middle, the term next to the pole A ~ 0 and
        # k = 0, the end of the longest downward run
        for re in (-51.7, -37.3, -21.5, -9.8, -2.6, -0.5, 0.7, 2.0):
            for im in (0.0, 0.4, 3.0, 11.0):
                sc = complex(re, im)
                K = gzero._default_K(a, sc)
                with mp.workdps(40):
                    ss = mp.mpc(sc) if im else mp.mpf(re)
                    z = mp.mpf(a.denominator) / mp.mpf(a.numerator)
                    tol = mp.mpf(10) ** -38
                    down = gzero._mp_gammalow_down(ss, z, K, tol)
                    assert len(down) == K + 1
                    near_pole = max(0, math.ceil(-re))
                    for k in {0, near_pole, K // 2, K}:
                        ref = _per_k_gammalow(ss, z, k)
                        assert abs(down[k] - ref) <= 1e-32 * abs(ref), (a, sc, k)

    def test_series_matches_per_term_sum(self):
        # the whole h_1 + h_2 value: per-term loop against g_eval_series
        a, sc = Fraction(1, 3), complex(-7.3, 2.0)
        K = gzero._default_K(a, sc)
        b = gzero.b_coefficients(gzero._BMAX)
        with mp.workdps(40):
            ss, z = mp.mpc(sc), mp.mpf(3)
            tot = mp.mpf(0)
            for k in range(K + 1):
                bk = mp.mpf(b[k].numerator) / mp.mpf(b[k].denominator)
                tot += bk / z**k * _per_k_gammalow(ss, z, k)
            h2 = gzero._h2_eval(a, ss, 40)
            ref = complex((mp.exp(-mp.euler) * z * tot + h2 * mp.power(z, ss + 1)) / mp.gamma(ss))
        val, _ = g_eval_series(a, sc)
        assert abs(val - ref) < 1e-15 * abs(ref)


class TestH2Panels:
    def test_shared_e1_nodes_equal_per_a_evaluation(self):
        # weights from the shared unit-panel E1 values are bit-identical to
        # evaluating E1 at each node for this a alone
        a, dps = Fraction(1, 10), 40
        with mp.workdps(dps + 8):
            z = mp.mpf(10)
            nodes01 = gzero.GaussLegendre(mp.mp).calc_nodes(4, mp.mp.prec)
            for m in (1, 2, 7):
                lnxs, ws = gzero._h2_panel(a, dps, m)
                assert len(ws) == len(nodes01) == 24
                # log u (and E1) are one evaluation shared by every a
                assert gzero._h2_panel(Fraction(1, 3), dps, m)[0] is lnxs
                lo_m, hi_m = mp.mpf(m), mp.mpf(m + 1)
                mid, half = (lo_m + hi_m) / 2, (hi_m - lo_m) / 2
                for (x, w), lnx, wt in zip(nodes01, lnxs, ws):
                    u = mid + half * x
                    assert lnx == mp.log(u)
                    assert wt == w * half * mp.exp(-u * z + mp.e1(u))

    def test_value_does_not_depend_on_earlier_calls(self):
        # a fresh process, and this one after a call at s = 40 (which reads
        # panels much further right), give the same mp value
        code = (
            "from fractions import Fraction\nimport mpmath as mp\nfrom densediv import gzero\n"
            "with mp.workdps(40):\n"
            "    print(repr(gzero._h2_eval(Fraction(1, 3), mp.mpc(-4.3, 1.1), 40)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, check=True, timeout=120).stdout.strip()
        with mp.workdps(40):
            gzero._h2_eval(Fraction(1, 3), mp.mpf(40), 40)
            assert repr(gzero._h2_eval(Fraction(1, 3), mp.mpc(-4.3, 1.1), 40)) == fresh

    def test_process_caches_are_bounded(self):
        for f in (find_lambda, gzero._h2_float_nodes, gzero._e1_unit_panel, gzero._h2_panel):
            assert 10 <= f.cache_info().maxsize < 10_000
        # the unit panels of one find_lambda round over the ten a = 1/i fit:
        # for Re s <= 0 the sum stops by u = 1 + 50 ln(10) a
        panels = sum(math.ceil(1 + 50 * math.log(10) / i) for i in range(1, 11))
        assert gzero._h2_panel.cache_info().maxsize >= panels


class TestFloatRouteNoise:
    @pytest.mark.parametrize(
        "a", [Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 20), Fraction(1, 25)]
    )
    def test_noise_against_high_precision(self, a):
        # the estimate bounds the error for |s| <= 14; on Re s in [-64, 2]
        # it is exceeded by less than 8x, inside the callers' 50x margin
        for re in np.arange(-63.863, 2.1, 6.0):
            for im in (0.0, 0.4, 3.0):
                s = complex(re, im)
                v, noise = gzero._g_series_float(a, s)
                ref, _ = g_eval_series(a, s)
                err = abs(v - ref)
                assert err <= 8.0 * noise, (a, s, err / noise)
                if abs(s) <= 14.0:
                    assert err <= noise, (a, s, err / noise)


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

    @given(
        st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]),
        st.floats(min_value=-6.0, max_value=4.0),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_series_vs_integral_random_s(self, a, re, im):
        # the series normalization is 0/0 at a non-positive integer
        assume(not (im == 0.0 and re <= 0 and re == round(re)))
        s = complex(re, im)
        vs, bound = g_eval_series(a, s)
        vi = g_eval_integral(a, s)
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
        assert find_lambda(a=1) is cert
        assert find_lambda.cache_info().misses == misses

    def test_bisection_below_the_margin(self, monkeypatch):
        # noise inflated on the real axis sends every bisection sample to the
        # series route in high precision; the signs, so lambda, stay the same
        a = Fraction(1, 3)
        cert = find_lambda(a)
        orig = gzero._g_series_float

        def noisy(a_, s):
            v, noise = orig(a_, s)
            return v, 1e30 * noise if s.imag == 0.0 else noise

        monkeypatch.setattr(gzero, "_g_series_float", noisy)
        calls = []
        orig_mp = gzero.g_eval_series

        def counting(a_, s, **kw):
            calls.append(s)
            return orig_mp(a_, s, **kw)

        monkeypatch.setattr(gzero, "g_eval_series", counting)
        again = gzero._find_lambda.__wrapped__(a)
        assert (again.lam, again.residual) == (cert.lam, cert.residual)
        lo, hi = cert.bracket
        # 34 bisection samples, then the secant's and the residual's
        assert sum(1 for s in calls if s.imag == 0.0 and lo < -s.real < hi) >= 34 + 3

    @pytest.mark.parametrize("i", range(2, 11))
    def test_polish_evaluates_each_point_once(self, monkeypatch, i):
        # every high-precision point (bisection samples below the margin, the
        # secant's, the residual's at lambda and residue_C's) is evaluated
        # once: g_eval_series' cache misses are its distinct points
        a = Fraction(1, i)
        expected = find_lambda(a)
        orig = gzero.g_eval_series
        calls = []

        def counting(a_, s):
            calls.append(s)
            return orig(a_, s)

        monkeypatch.setattr(gzero, "g_eval_series", counting)
        orig.cache_clear()
        assert gzero._find_lambda.__wrapped__(a) == expected
        assert calls and orig.cache_info().misses == len(set(calls))

    def test_samples_are_kept_by_point(self):
        # a = 1/i, i <= 10, sample g_a in high precision at 33 distinct
        # points; each is evaluated once, and the repeats (the polish starting
        # from a bisection sample, the residual at lambda) are cache hits
        gzero.g_eval_series.cache_clear()
        for i in range(1, 11):
            gzero._find_lambda.__wrapped__(Fraction(1, i))
        info = gzero.g_eval_series.cache_info()
        assert info.misses == 33 and info.hits > 0
        assert info.maxsize is not None  # the memo is bounded

    def test_a_past_the_panel_budget_refused(self, monkeypatch):
        # a = 1000 would sum ~115,000 unit panels of h_2 per sample; it is
        # refused before any sample of g_a, and the largest admitted a is 35.57
        def no_sample(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(gzero, "_g_series_float", no_sample)
        monkeypatch.setattr(gzero, "g_eval_neg_int", no_sample)
        for a in (Fraction(1000), Fraction(3558, 100), Fraction(10**6)):
            with pytest.raises(ResourceLimitError, match="unit panels of h_2"):
                gzero._find_lambda.__wrapped__(a)
            with pytest.raises(ResourceLimitError):
                g_eval_series(a, 0.5)
        gzero._check_h2_budget(Fraction(3557, 100))

    def test_float_route_nan_in_the_bracket(self):
        # at a = 1/60 the float route is NaN near s = -204; the NaN must not be
        # read as a sign, and C comes from two finite routes
        a = Fraction(1, 60)
        v, noise = gzero._g_series_float(a, complex(-204.4, 0.0))
        assert not (math.isfinite(abs(v)) and math.isfinite(noise))
        cert = find_lambda(a)
        assert 204 < cert.lam < 205 and cert.bracket == (204, 205)
        assert cert.residual < 1e-15
        assert math.isfinite(cert.C) and cert.C > 0

    def test_scan_stops_where_the_series_route_ends(self):
        # the last bracket end whose every sample (contour included) keeps
        # K <= _BMAX, and one past it
        a = Fraction(1, 100)
        n = gzero._SCAN_MAX
        assert g_eval_neg_int(a, n) > 0
        g_eval_series(a, complex(-n - gzero._CONTOUR_R, 0.0))
        with pytest.raises(DomainError):
            g_eval_series(a, complex(-n - 1 - gzero._CONTOUR_R, 0.0))
        with pytest.raises(DomainError, match=f"up to n={n} for a=1/100"):
            find_lambda(a)

    def test_nonpositive_start_raises(self, monkeypatch):
        # the sign scan needs g_a(0) a e^gamma > 0; an explicit error, not an assert
        from densediv import gzero, specfun

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

    @staticmethod
    def _mp_derivative(a, lam):
        # Richardson central differences of the high-precision series route
        def gr(x):
            return gzero._g_exact_or_series(a, complex(x, 0.0)).real

        h = 1e-5
        d1 = (gr(-lam + h) - gr(-lam - h)) / (2 * h)
        d2 = (gr(-lam + h / 2) - gr(-lam - h / 2)) / h
        return (4 * d2 - d1) / 3

    @staticmethod
    def _count_mp_calls(monkeypatch):
        calls = []
        orig = gzero.g_eval_series

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(gzero, "g_eval_series", counting)
        return calls

    @pytest.mark.parametrize(
        "a", [Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 7), Fraction(1, 10), Fraction(1, 14)]
    )
    def test_complex_step_matches_mp_differences(self, a):
        lam = find_lambda(a).lam
        deriv, err = gzero._complex_step_derivative(a, -lam)
        assert err <= 1e-8 * abs(deriv)  # below the fallback margin
        ref = self._mp_derivative(a, lam)
        assert deriv == pytest.approx(ref, rel=1e-7)

    def test_fallback_past_the_noise_margin(self, monkeypatch):
        # at a = 1/20 the float noise is above rtol/100: the mp differences run
        a = Fraction(1, 20)
        cert = find_lambda(a)
        calls = self._count_mp_calls(monkeypatch)
        assert residue_C(a, cert.lam) == cert.C
        assert len(calls) == 4

    def test_no_mp_evaluation_below_the_margin(self, monkeypatch):
        a = Fraction(1, 2)
        cert = find_lambda(a)
        calls = self._count_mp_calls(monkeypatch)
        assert residue_C(a, cert.lam) == cert.C
        assert calls == []

    def test_forced_fallback_keeps_C(self, monkeypatch):
        a = Fraction(1, 2)
        cert = find_lambda(a)
        orig = gzero._g_series_float

        def noisy(a_, s):
            v, noise = orig(a_, s)
            return (v, 1e6 * noise) if s.imag in (1e-2, 5e-3) else (v, noise)

        monkeypatch.setattr(gzero, "_g_series_float", noisy)
        calls = self._count_mp_calls(monkeypatch)
        assert residue_C(a, cert.lam) == cert.C
        assert len(calls) == 4

    def test_disagreement_raises(self, monkeypatch):
        # a 0.1% error in the complex-step samples alone must be caught
        a = Fraction(1, 2)
        cert = find_lambda(a)
        orig = gzero._g_series_float

        def skewed(a_, s):
            v, noise = orig(a_, s)
            return (1.001 * v, noise) if s.imag in (1e-2, 5e-3) else (v, noise)

        monkeypatch.setattr(gzero, "_g_series_float", skewed)
        with pytest.raises(NumericalConsistencyError, match="residue routes disagree"):
            residue_C(a, cert.lam)


    @pytest.mark.parametrize("route", ["contour", "derivative"])
    def test_nan_on_one_route_raises(self, monkeypatch, route):
        a = Fraction(1, 2)
        lam = find_lambda(a).lam
        orig = gzero._g_exact_or_series
        nan = complex(math.nan, math.nan)
        if route == "contour":
            monkeypatch.setattr(gzero, "_g_exact_or_series", lambda *args, **kw: nan)
        else:
            # the complex step and the mp differences at -lambda +- h
            monkeypatch.setattr(gzero, "_complex_step_derivative", lambda a_, x: (math.nan, math.nan))
            monkeypatch.setattr(
                gzero, "_g_exact_or_series",
                lambda a_, s, *args, **kw: nan if abs(s + lam) < 1e-3 else orig(a_, s, *args, **kw),
            )
        with pytest.raises(NumericalConsistencyError, match="residue routes disagree"):
            residue_C(a, lam)


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

    def test_zero_on_boundary_raises(self):
        # -lambda_1 = -1 lies on the left edge: shrunk, the rectangle holds
        # no zero, enlarged it holds one, so no count is returned
        assert count_zeros_rect(1, (-0.999, 0.0, -0.5, 0.5)) == 0
        assert count_zeros_rect(1, (-1.001, 0.0, -0.5, 0.5)) == 1
        with pytest.raises(BoundaryZeroError, match=r"\(-1\.0, 0\.0, -0\.5, 0\.5\)"):
            count_zeros_rect(1, (-1.0, 0.0, -0.5, 0.5))

    def test_locate_real_zero_in_rect_symmetric_about_axis(self):
        # the first split is the real axis, through -lambda_1 = -1, and a
        # later one falls on x = -1: both move off the midpoint
        z = locate_zero_in_rect(1, (-1.5, -0.5, -0.6, 0.6), 0.005)
        assert abs(z + 1.0) < 0.005

    def test_unresolved_phase_raises(self, monkeypatch):
        # modulus 1 everywhere, phase jumping by pi at Re s = -1/3 on the
        # bottom and top edges: no bisection can resolve the step
        def g(s):
            return np.where(np.real(s) < -1.0 / 3.0, 1.0 + 0j, -1.0 + 0j)

        monkeypatch.setattr(gzero, "g_eval_integral_many", lambda a, ss: g(np.asarray(ss)))
        monkeypatch.setattr(gzero, "g_eval_integral", lambda a, s: complex(g(s)))
        with pytest.raises(NumericalConsistencyError, match="unresolved"):
            count_zeros_rect(1, (-1.0, 1.0, -1.0, 1.0))


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
