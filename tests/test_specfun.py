import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from densediv import specfun
from densediv._constants import EXP_NEG_GAMMA
from densediv.errors import DomainError
from densediv.specfun import (
    b_coefficients,
    buchstab_omega,
    buchstab_omega_prime,
    build_omega_table,
    gamma_complex,
    k_oscillatory,
    k_zeros,
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


class TestGamma:
    def test_integers(self):
        assert gamma_complex(1) == pytest.approx(1.0)
        assert gamma_complex(5) == pytest.approx(24.0)

    def test_half(self):
        assert gamma_complex(0.5) == pytest.approx(1.7724538509055159, rel=1e-12)

    def test_pole(self):
        with pytest.raises(DomainError):
            gamma_complex(-3)

    def test_upper_gamma_exponential(self):
        # Gamma(1, z) = e^-z: Gamma(1) minus the lower gamma's power series
        for z in (0.1, 1.0, 7.5):
            got = gamma_complex(1.0) - specfun._lower_gamma(complex(1.0), z)
            assert got == pytest.approx(math.exp(-z), rel=1e-12)

    def test_upper_gamma_region_vs_quadrature(self):
        # the continued fraction for Gamma(s, z) over the part of the sample
        # grid where the lower gamma reads it, Re s <= 0.5, mpmath as oracle
        pts = []
        for sr in (-55.5, -20.25, -3.3, -0.7, 0.5):
            for si in (0.0, 0.3, 11.36, 44.0):
                for z in (0.5, 1.0, 3.0, 10.0, 20.0):
                    pts.append((sr, si, z))
        for sr, si, z in pts:
            got = specfun._upper_cf(complex(sr, si), z)
            with mp.workdps(40):
                ref = complex(mp.gammainc(mp.mpc(sr, si), z, mp.inf))
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-300), (sr, si, z)


class TestIncompleteGammaRoutine:
    """specfun's series / continued-fraction routine on complex128, and its
    power series on mpmath numbers, against mp.gammainc.  Re A <= 0.5 takes
    Gamma(A) minus the continued fraction, Re A > 0.5 the series.  Measured
    error: 4.4e-14 relative in floats, 1.3e-37 at dps 40."""

    def test_float_lower_gamma(self):
        # TestGamma's grid
        for sr, si, z in itertools.product(
            (-55.5, -20.25, -3.3, -0.7, 0.5, 7.5, 30.5, 59.5),
            (0.0, 0.3, 11.36, 44.0),
            (0.5, 1.0, 3.0, 10.0, 20.0),
        ):
            with mp.workdps(40):
                ref = complex(mp.gammainc(mp.mpc(sr, si), 0, z))
            got = specfun._lower_gamma(complex(sr, si), z)
            assert abs(got - ref) <= 1e-12 * abs(ref), (sr, si, z)

    def test_mp_lower_gamma(self):
        # the adaptive-precision route of g_a takes the series only at Re A >= 1
        for re, im, z in itertools.product(
            (0.7, 2.0, 17.3, 41.1, 59.5),
            (0.0, 0.4, 3.0, 11.0),
            (1, 2, 10, 20),
        ):
            with mp.workdps(40):
                A = mp.mpc(re, im) if im else mp.mpf(re)
                got = specfun._lower_series(A, mp.mpf(z), mp.mpf(10) ** -38, mp.exp, mp.log)
            with mp.workdps(80):
                ref = mp.gammainc(A, 0, z)
                assert abs(got - ref) <= mp.mpf(10) ** -35 * abs(ref), (re, im, z)


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
