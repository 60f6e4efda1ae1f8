import cmath
import itertools
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densediv import gzero, specfun
from densediv._constants import EXP_NEG_GAMMA
from densediv.errors import DomainError
from densediv.specfun import (
    b_coefficients,
    buchstab_omega,
    buchstab_omega_prime,
    build_omega_table,
    e1,
    k_oscillatory,
    k_zeros,
    loggamma,
)

from _shared import entire_I, k_airy, omega_table_reference


class TestOmega:
    def test_closed_form_first_interval(self):
        assert buchstab_omega(1.5) == pytest.approx(2.0 / 3.0, abs=1e-14)
        us = np.linspace(1.0, 2.0, 57)
        assert np.allclose(buchstab_omega(us), 1.0 / us, atol=1e-14)

    def test_closed_form_second_interval(self):
        # one integration of the delay equation on [2,3]
        assert buchstab_omega(2.5) == pytest.approx(0.5621860432432658, abs=1e-12)

    def test_table_matches_pointwise_history(self):
        # the numpy history evaluation changes no bit of the table
        values, derivs = omega_table_reference()
        tab = build_omega_table()
        assert np.array_equal(tab.values, values)
        assert np.array_equal(tab.derivs, derivs)

    def test_tail_bound_lemma(self):
        # |omega(u) - e^-gamma| <= 1/Gamma(u+1) at every table point
        tab = build_omega_table()
        bound = 1.0 / np.array([math.gamma(u + 1.0) for u in tab.us])
        assert np.all(np.abs(tab.values - EXP_NEG_GAMMA) <= bound)

    def test_omega_10(self):
        assert abs(buchstab_omega(10.0) - EXP_NEG_GAMMA) <= 1.0 / math.gamma(11.0)

    def test_switch_region(self):
        assert buchstab_omega(25.0) == EXP_NEG_GAMMA

    def test_derivative_bound_lemma(self):
        us = np.linspace(1.0, 12.0, 441)
        dv = np.abs(buchstab_omega_prime(us))
        bound = 1.0 / np.array([math.gamma(u + 1.0) for u in us])
        assert np.all(dv <= bound * (1 + 1e-9))

    def test_domain(self):
        with pytest.raises(DomainError):
            buchstab_omega(0.5)


def _poly_mul(p, q, K):
    out = [Fraction(0)] * (K + 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            if i + j > K:
                break
            out[i + j] += pi * qj
    return out


def _exp_series_oracle(K):
    """Independent route: sum c^m/m! with truncated polynomial powers."""
    c = [Fraction(0)] * (K + 1)
    fact = 1
    for k in range(1, K + 1):
        fact *= k
        c[k] = Fraction((-1) ** (k + 1), k * fact)
    out = [Fraction(0)] * (K + 1)
    out[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * K
    mfact = 1
    for m in range(1, K + 1):
        power = _poly_mul(power, c, K)
        mfact *= m
        for idx in range(K + 1):
            out[idx] += power[idx] / mfact
    return out


class TestBCoefficients:
    def test_first_values(self):
        b = b_coefficients(4)
        assert b[0] == 1
        assert b[1] == 1
        assert b[2] == Fraction(1, 4)
        assert b[3] == Fraction(-1, 36)

    def test_against_independent_oracle(self):
        K = 18
        oracle = _exp_series_oracle(K)
        b = b_coefficients(K)
        assert list(b) == oracle

    def test_integer_recurrence_matches_fraction_recurrence(self):
        # the Fraction form of the recurrence, b_n = (1/n) sum (-1)^{k+1} b_{n-k}/k!
        K = 258
        fact = [1]
        for k in range(1, K + 1):
            fact.append(fact[-1] * k)
        ref = [Fraction(1)]
        for n in range(1, K + 1):
            s = Fraction(0)
            for k in range(1, n + 1):
                s += Fraction((-1) ** (k + 1), fact[k]) * ref[n - k]
            ref.append(s / n)
        assert b_coefficients(K) == tuple(ref)

    def test_cauchy_bound(self):
        b = b_coefficients(200)
        for k in range(201):
            assert abs(b[k]) < Fraction(4, 2**k)

    def test_numeric_reexpansion(self):
        # sum b_k u^k must reproduce exp(-I(-u))
        b = b_coefficients(40)
        for u in (0.1, 0.5, 0.9):
            tot, uk = 0.0, 1.0
            for c in b:
                tot += float(c) * uk
                uk *= u
            assert tot == pytest.approx(math.exp(-entire_I(-u)), rel=1e-13)


def _gammalow_float(s, z, K):
    """gamma(s+k, z) for k = 0..K from the float route's recurrence, its
    prefactor z^{s+k} e^-z applied at dps 40."""
    H = gzero._float_gammalow_down(complex(s), z, K)
    with mp.workdps(40):
        return [h * mp.exp((mp.mpc(s) + k) * mp.log(z) - z) for k, h in enumerate(H)]


def _gammalow_mp(s, z, K):
    with mp.workdps(40):
        ss = mp.mpc(s) if complex(s).imag else mp.mpf(complex(s).real)
        return gzero._mp_gammalow_down(ss, mp.mpf(z), K, mp.mpf(10) ** -38)


class TestGamma:
    def test_integers(self):
        assert cmath.exp(-loggamma(1)) == pytest.approx(1.0, rel=1e-15)
        assert cmath.exp(loggamma(5)) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert cmath.exp(loggamma(0.5)) == pytest.approx(1.7724538509055159, rel=1e-14)

    def test_pole(self):
        with pytest.raises(DomainError):
            loggamma(-3)

    def test_upper_gamma_exponential(self):
        # Gamma(1, z) = e^-z: Gamma(1) minus the lower gamma of the recurrence
        for z in (0.1, 1.0, 7.5):
            got = 1.0 - complex(_gammalow_float(1.0, z, 0)[0])
            assert got == pytest.approx(math.exp(-z), rel=1e-12)

    def test_upper_gamma_region_vs_quadrature(self):
        # Re s <= 0.5, where the float route once took Gamma(s) minus a
        # continued fraction: the recurrence from the top index against the
        # mp route's, every k.  Measured: 2.9e-15 relative.
        for sr, si, z in itertools.product(
            (-55.5, -20.25, -3.3, -0.7, 0.5), (0.0, 0.3, 11.36, 44.0), (0.5, 1.0, 3.0, 10.0, 20.0)
        ):
            K = max(1, math.ceil(1 - sr)) + 8
            got, ref = _gammalow_float(complex(sr, si), z, K), _gammalow_mp(complex(sr, si), z, K)
            for k in range(K + 1):
                assert abs(got[k] - ref[k]) <= 1e-13 * abs(ref[k]), (sr, si, z, k)


class TestIncompleteGammaRoutine:
    """The two downward recurrences, from one power series at the top index:
    complex128 over the prefactor (the float route) against mpmath numbers
    (the adaptive-precision route), and the mpmath one against
    mp.gammainc.  Measured error: 4.8e-15 relative in floats, 1.3e-37 at
    dps 40."""

    def test_float_lower_gamma(self):
        # TestGamma's grid, out to Re s = 59.5, the top index and k = 0
        for sr, si, z in itertools.product(
            (-55.5, -20.25, -3.3, -0.7, 0.5, 7.5, 30.5, 59.5),
            (0.0, 0.3, 11.36, 44.0),
            (0.5, 1.0, 3.0, 10.0, 20.0),
        ):
            K = max(1, math.ceil(1 - sr)) + 8
            got, ref = _gammalow_float(complex(sr, si), z, K), _gammalow_mp(complex(sr, si), z, K)
            for k in (0, K):
                assert abs(got[k] - ref[k]) <= 1e-13 * abs(ref[k]), (sr, si, z, k)

    def test_mp_lower_gamma(self):
        # the adaptive-precision route of g_a takes the series only at Re A >= 1
        for re, im, z in itertools.product(
            (0.7, 2.0, 17.3, 41.1, 59.5),
            (0.0, 0.4, 3.0, 11.0),
            (1, 2, 10, 20),
        ):
            with mp.workdps(40):
                A = mp.mpc(re, im) if im else mp.mpf(re)
                zz = mp.mpf(z)
                got = mp.exp(A * mp.log(zz) - zz) * specfun._lower_series(A, zz, mp.mpf(10) ** -38)
            with mp.workdps(80):
                ref = mp.gammainc(A, 0, z)
                assert abs(got - ref) <= mp.mpf(10) ** -35 * abs(ref), (re, im, z)


class TestFloatSpecialFunctions:
    """loggamma, e1 and omega's envelope against mpmath at 40 digits."""

    @given(st.floats(min_value=-171.0, max_value=30.0), st.floats(min_value=-12.0, max_value=12.0))
    @settings(max_examples=300, deadline=None)
    def test_loggamma_and_rgamma(self, re, im):
        # exp(-loggamma) is 1/Gamma with its sign.  Both are within 1e-14 c,
        # relative for 1/Gamma and absolute mod 2 pi i for log Gamma, with
        # c = 1 + |log Gamma(s)| + |s| log(2 + |s|): the rounding of log Gamma's
        # size, and of s times its sensitivity |psi(s)|.  Measured: 2.0e-15 c
        # at most on 36,000 random points, near the poles included
        s = complex(re, im)
        assume(not (im == 0.0 and re == round(re)))
        lg = loggamma(s)
        with mp.workdps(40):
            ref_lg = mp.loggamma(mp.mpc(re, im))
            ref_rg = mp.rgamma(mp.mpc(re, im))
        d = lg - complex(ref_lg)
        d = complex(d.real, math.remainder(d.imag, 2 * math.pi))
        tol = 1e-14 * (1 + abs(lg) + abs(s) * math.log(2 + abs(s)))
        assert abs(d) <= tol, (s, abs(d))
        if -lg.real > math.log(sys.float_info.max):
            assert abs(ref_rg) > sys.float_info.max, s  # 1/Gamma overflows
            return
        rg = cmath.exp(-lg)
        assert abs(rg - complex(ref_rg)) <= tol * abs(complex(ref_rg)), s

    def test_loggamma_far_off_the_axis(self):
        # past |Im pi s| = 20 the reflection reads sin(pi s)'s growing exponential
        for s in (complex(-3.3, 50.0), complex(-40.5, -80.0), complex(0.2, 300.0)):
            with mp.workdps(40):
                ref = complex(mp.loggamma(mp.mpc(s)))
            d = loggamma(s) - ref
            assert abs(complex(d.real, math.remainder(d.imag, 2 * math.pi))) <= 1e-13 * abs(ref), s

    @given(st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_e1(self, us):
        # the continued fraction at depth 100: within 2e-15 relative on
        # [1, 100]; measured 4.2e-16
        u = np.array(us)
        got = e1(u)
        with mp.workdps(40):
            ref = np.array([float(mp.e1(x)) for x in us])
        assert np.all(np.abs(got - ref) <= 2e-15 * ref), us

    @given(st.lists(st.floats(min_value=13.0, max_value=300.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_omega_prime_envelope(self, ts):
        # exp(-lgamma(t+1)) is 1/Gamma(t+1) within 1e-15 lgamma(t+1) relative
        # (measured 1.6e-13 at t = 167) where that is a normal float, and
        # within one subnormal step of 1e-313 past it
        t = np.array(ts)
        got = buchstab_omega_prime(t)
        with mp.workdps(40):
            ref = np.array([float(mp.rgamma(x + 1)) for x in ts])
        lg = np.array([math.lgamma(x + 1) for x in ts])
        normal = ref > 1e-300
        assert np.all(np.abs(got - ref)[normal] <= 1e-15 * lg[normal] * ref[normal]), ts
        assert np.all(np.abs(got - ref)[~normal] <= 1e-313), ts


class TestKAiry:
    def test_reference_zeros(self):
        zs = k_zeros(4)
        refs = [2.383446, 5.510195, 8.647357, 11.786842]
        for got, ref in zip(zs, refs):
            assert math.floor(got * 1e6) / 1e6 == ref

    def test_zero_asymptotics(self):
        # nu_k ~ pi (k + 3/4); the stated check is nu_3 against pi*3.75
        zs = k_zeros(4)
        assert abs(zs[3] - math.pi * 3.75) < 0.01

    def test_closed_form_zeros_are_zeros(self):
        # nu_k = (2/3)|a_k|^{3/2} from the zeros a_k of Ai: K vanishes there
        zs = k_zeros(8)
        assert zs == sorted(zs) and len(zs) == 8
        assert all(abs(k_airy(nu)) < 1e-12 for nu in zs)
        assert k_zeros(0) == [] and k_zeros(-1) == []

    def test_two_path_agreement(self):
        for nu in np.linspace(0.5, 15.0, 30):
            assert abs(k_airy(float(nu)) - k_oscillatory(float(nu))) < 1e-6

    def test_cross_check_mode(self):
        assert k_airy(2.0) == pytest.approx(k_oscillatory(2.0), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            k_airy(0.0)
