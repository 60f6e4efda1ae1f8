import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from densediv._constants import EULER_GAMMA, EXP_NEG_GAMMA
from densediv.errors import DomainError
from densediv.specfun import (
    K_airy,
    b_coefficients,
    buchstab_omega,
    buchstab_omega_prime,
    build_omega_table,
    entire_I,
    exp_integral_J,
    gamma_complex,
    k_oscillatory,
    k_zeros,
    upper_incomplete_gamma,
)


class TestOmega:
    def test_closed_form_first_interval(self):
        assert buchstab_omega(1.5) == pytest.approx(2.0 / 3.0, abs=1e-14)
        us = np.linspace(1.0, 2.0, 57)
        assert np.allclose(buchstab_omega(us), 1.0 / us, atol=1e-14)

    def test_closed_form_second_interval(self):
        # one integration of the delay equation on [2,3]
        assert buchstab_omega(2.5) == pytest.approx(0.5621860432432658, abs=1e-12)

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


class TestJ:
    def test_value_at_one(self):
        # adaptive-quadrature oracle: mp.quad of e^-t/t on [1, inf) = 0.2193839344...
        assert exp_integral_J(1.0) == pytest.approx(0.2193839343955203, abs=1e-12)

    def test_envelope(self):
        for u in (0.3, 1.0, 2.0, 5.0, 10.0):
            assert exp_integral_J(u) < math.exp(-u) / u

    def test_log_identity(self):
        # J(u) = -gamma - log u - I(-u) on (0, 5]
        for u in np.linspace(0.05, 5.0, 40):
            lhs = exp_integral_J(float(u))
            rhs = -EULER_GAMMA - math.log(u) - entire_I(-float(u))
            assert abs(lhs - rhs) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_integral_J(0.0)


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
        assert list(b.coefficients) == oracle

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
        assert b_coefficients(K).coefficients == tuple(ref)

    def test_cauchy_bound(self):
        b = b_coefficients(200)
        for k in range(201):
            assert abs(b[k]) < Fraction(4, 2**k)

    def test_numeric_reexpansion(self):
        # sum b_k u^k must reproduce exp(-I(-u))
        b = b_coefficients(40)
        for u in (0.1, 0.5, 0.9):
            assert b.eval_float(u) == pytest.approx(math.exp(-entire_I(-u)), rel=1e-13)


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
        for z in (0.1, 1.0, 7.5):
            assert upper_incomplete_gamma(1.0, z) == pytest.approx(math.exp(-z), rel=1e-12)

    def test_upper_gamma_region_vs_quadrature(self):
        # deterministic sample over the contract region, mpmath as oracle
        mp.mp.dps = 40
        pts = []
        for sr in (-55.5, -20.25, -3.3, -0.7, 0.5, 7.5, 30.5, 59.5):
            for si in (0.0, 0.3, 11.36, 44.0):
                for z in (0.5, 1.0, 3.0, 10.0, 20.0):
                    pts.append((sr, si, z))
        for sr, si, z in pts:
            got = upper_incomplete_gamma(complex(sr, si), z)
            ref = complex(mp.gammainc(mp.mpc(sr, si), z, mp.inf))
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-300), (sr, si, z)

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(1.0, -1.0)


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

    def test_two_path_agreement(self):
        for nu in np.linspace(0.5, 15.0, 30):
            assert abs(K_airy(float(nu)) - k_oscillatory(float(nu))) < 1e-6

    def test_cross_check_mode(self):
        assert K_airy(2.0, cross_check=True) == pytest.approx(k_oscillatory(2.0), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            K_airy(0.0)
