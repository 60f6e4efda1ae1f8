"""Scalar special functions.

Buchstab's omega (delay equation solver with dense output), the exponential
integral J, the exact rational coefficients b_k of exp(-I(-u)), gamma /
upper incomplete gamma for complex arguments, and the Airy-type oscillatory
integral K(nu) with two independent evaluation paths.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.special as sc

from ._constants import EXP_NEG_GAMMA
from .errors import DomainError

# ---------------------------------------------------------------------------
# Buchstab omega
# ---------------------------------------------------------------------------

# omega is analytic between integer abscissae: 1/u on [1,2],
# (1 + log(u-1))/u on [2,3]; beyond that we integrate the delay equation
# omega'(u) = (omega(u-1) - omega(u))/u with RK4 and keep (value, derivative)
# pairs so cubic Hermite interpolation reproduces the solution to ~1e-13.
OMEGA_STEP = 1.0 / 1024
OMEGA_SWITCH = 12.0  # beyond this, |omega - e^-gamma| <= 1/Gamma(u+1) < 3e-9
_OMEGA_UMAX = 13.0


@dataclass(frozen=True)
class OmegaTable:
    """Dense-output table of Buchstab's function on [3, u_max]."""

    step: float
    u0: float
    us: np.ndarray
    values: np.ndarray
    derivs: np.ndarray

    @property
    def u_max(self) -> float:
        return float(self.us[-1])


def _omega_23(u: float) -> float:
    return (1.0 + math.log(u - 1.0)) / u


@lru_cache(maxsize=4)
def build_omega_table(u_max: float = _OMEGA_UMAX, step: float = OMEGA_STEP) -> OmegaTable:
    n = int(round((u_max - 3.0) / step))
    us = 3.0 + step * np.arange(n + 1)
    w = np.zeros(n + 1)
    wd = np.zeros(n + 1)
    w[0] = _omega_23(3.0)

    def hist(t: float) -> float:
        if t < 2.0:
            return 1.0 / t
        if t < 3.0:
            return _omega_23(t)
        j = min(int((t - 3.0) / step), n - 1)
        s = (t - us[j]) / step
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * w[j] + step * h10 * wd[j] + h01 * w[j + 1] + step * h11 * wd[j + 1]

    def f(u: float, val: float) -> float:
        return (hist(u - 1.0) - val) / u

    wd[0] = f(3.0, w[0])
    h = step
    for j in range(n):
        u0, y0 = us[j], w[j]
        k1 = f(u0, y0)
        k2 = f(u0 + h / 2, y0 + h / 2 * k1)
        k3 = f(u0 + h / 2, y0 + h / 2 * k2)
        k4 = f(u0 + h, y0 + h * k3)
        w[j + 1] = y0 + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        wd[j + 1] = f(us[j + 1], w[j + 1])
    us.setflags(write=False)
    w.setflags(write=False)
    wd.setflags(write=False)
    return OmegaTable(step=step, u0=3.0, us=us, values=w, derivs=wd)


def buchstab_omega(u) -> float | np.ndarray:
    """Buchstab's function omega(u) for u >= 1 (scalar or array).

    Accurate to ~1e-12 for u <= 12; returns e^{-gamma} beyond, where the
    error is bounded by 1/Gamma(u+1).
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 1.0):
        raise DomainError("omega(u) requires u >= 1")
    tab = build_omega_table()
    out = np.empty_like(arr)
    m1 = arr < 2.0
    m2 = (arr >= 2.0) & (arr < 3.0)
    m3 = (arr >= 3.0) & (arr < OMEGA_SWITCH)
    m4 = arr >= OMEGA_SWITCH
    out[m1] = 1.0 / arr[m1]
    t2 = arr[m2]
    out[m2] = (1.0 + np.log(t2 - 1.0)) / t2
    t3 = arr[m3]
    if t3.size:
        h = tab.step
        j = np.minimum(((t3 - 3.0) / h).astype(np.int64), len(tab.us) - 2)
        s = (t3 - tab.us[j]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out[m3] = (
            h00 * tab.values[j]
            + h * h10 * tab.derivs[j]
            + h01 * tab.values[j + 1]
            + h * h11 * tab.derivs[j + 1]
        )
    out[m4] = EXP_NEG_GAMMA
    if np.isscalar(u) or arr.ndim == 0:
        return float(out)
    return out


def buchstab_omega_prime(u) -> float | np.ndarray:
    """|omega'| building block: omega'(u), exact on [1,3], DE-based beyond.

    For u above the table range returns the lemma envelope 1/Gamma(u+1),
    which upper-bounds |omega'| there.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 1.0):
        raise DomainError("omega'(u) requires u >= 1")
    out = np.empty_like(arr)
    m1 = arr < 2.0
    m2 = (arr >= 2.0) & (arr < 3.0)
    m3 = (arr >= 3.0) & (arr < _OMEGA_UMAX - OMEGA_STEP)
    m4 = arr >= _OMEGA_UMAX - OMEGA_STEP
    out[m1] = -1.0 / arr[m1] ** 2
    t = arr[m2]
    out[m2] = (t / (t - 1.0) - (1.0 + np.log(t - 1.0))) / t**2
    t = arr[m3]
    if t.size:
        out[m3] = (buchstab_omega(t - 1.0) - buchstab_omega(t)) / t
    t = arr[m4]
    if t.size:
        out[m4] = 1.0 / sc.gamma(t + 1.0)
    if np.isscalar(u) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Exponential integral J and the power series I
# ---------------------------------------------------------------------------


def exp_integral_J(u: float) -> float:
    """J(u) = integral of e^{-t}/t over [u, inf), u > 0."""
    if u <= 0:
        raise DomainError("J(u) requires u > 0")
    return float(sc.exp1(u))


def entire_I(x: float, terms: int = 120) -> float:
    """I(x) = integral of (e^t - 1)/t over [0, x], by its entire power series."""
    total = 0.0
    term = 1.0
    for k in range(1, terms + 1):
        term *= x / k
        contrib = term / k
        total += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(total)):
            break
    return total


# ---------------------------------------------------------------------------
# Rational series b_k with exp(-I(-u)) = sum b_k u^k
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalSeries:
    """Exact rational power series coefficients up to index K."""

    coefficients: tuple[Fraction, ...]

    @property
    def K(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coefficients[k]

    def eval_float(self, u: float) -> float:
        tot = 0.0
        uk = 1.0
        for c in self.coefficients:
            tot += float(c) * uk
            uk *= u
        return tot


@lru_cache(maxsize=8)
def b_coefficients(K: int) -> RationalSeries:
    """Exact b_0..b_K via formal exponentiation of -I(-u).

    -I(-u) = sum_{k>=1} (-1)^{k+1} u^k/(k*k!), so with c_k that coefficient,
    b_n = (1/n) * sum_{k=1}^{n} k*c_k*b_{n-k} = (1/n) sum (-1)^{k+1} b_{n-k}/k!.
    The recurrence runs on the integers B_n = (n!)^2 b_n:
    B_n = sum_{k=1}^{n} (-1)^{k+1} c(n,k) B_{n-k} with
    c(n,k) = C(n,k) (n-1)!/(n-k)!, so c(n,1) = n and
    c(n,k+1) = c(n,k) (n-k)^2/(k+1).
    """
    if K < 0:
        raise DomainError("K must be >= 0")
    B = [1]
    b = [Fraction(1)]
    sq_fact = 1  # (n!)^2
    for n in range(1, K + 1):
        tot = 0
        c = n
        for k in range(1, n + 1):
            tot += c * B[n - k] if k % 2 else -c * B[n - k]
            c = c * (n - k) ** 2 // (k + 1)
        B.append(tot)
        sq_fact *= n * n
        b.append(Fraction(tot, sq_fact))
    return RationalSeries(tuple(b))


# ---------------------------------------------------------------------------
# Gamma and upper incomplete gamma for complex argument
# ---------------------------------------------------------------------------


def gamma_complex(s: complex) -> complex:
    """Gamma(s) for complex s; raises at the poles."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise DomainError(f"gamma pole at s = {s}")
    return complex(sc.gamma(s))


def _lower_series(s: complex, z: float, tol: float = 1e-17, maxit: int = 100000) -> complex:
    # gamma_low(s,z) = z^s e^-z sum_{n>=0} z^n / (s(s+1)...(s+n)); Re(s) > 0
    term = 1.0 / s
    total = term
    for n in range(1, maxit):
        term *= z / (s + n)
        total += term
        if abs(term) < tol * abs(total):
            break
    return cmath.exp(s * math.log(z) - z) * total


def _upper_cf(s: complex, z: float, tol: float = 1e-16, maxit: int = 200000) -> complex:
    # modified Lentz for Gamma(s,z) = z^s e^-z / (z+1-s - 1(1-s)/(z+3-s - ...))
    tiny = 1e-300
    b = z + 1.0 - s
    C = b if abs(b) > tiny else tiny
    D = 0.0
    f = C
    for i in range(1, maxit):
        an = -i * (i - s)
        b = z + 2 * i + 1.0 - s
        D = b + an * D
        if abs(D) < tiny:
            D = tiny
        C = b + an / C
        if abs(C) < tiny:
            C = tiny
        D = 1.0 / D
        delta = C * D
        f *= delta
        if abs(delta - 1.0) < tol:
            break
    return cmath.exp(s * math.log(z) - z) / f


def upper_incomplete_gamma(s: complex, z: float) -> complex:
    """Gamma(s, z) = integral of t^{s-1} e^{-t} over [z, inf), z > 0 real.

    Entire in s. Series/continued-fraction split; relative accuracy ~1e-12
    on |Re s| <= 60, |Im s| <= 60, 0 < z <= 20 (verified against quadrature).
    """
    s = complex(s)
    z = float(z)
    if z <= 0:
        raise DomainError("upper_incomplete_gamma requires z > 0")
    sr = s.real
    if z >= sr + 1.0:
        return _upper_cf(s, z)
    if sr > 0.5:
        return gamma_complex(s) - _lower_series(s, z)
    # z < Re(s)+1 and Re(s) <= 0.5 means z < 1.5: lift into Re > 0, step down.
    m = int(math.ceil(1.0 - sr))
    sm = s + m
    val = gamma_complex(sm) - _lower_series(sm, z)
    A = sm
    for _ in range(m):
        A -= 1
        val = (val - cmath.exp(A * math.log(z) - z)) / A
    return val


# ---------------------------------------------------------------------------
# K(nu): oscillatory integral and its Airy form
# ---------------------------------------------------------------------------

_GLX10, _GLW10 = np.polynomial.legendre.leggauss(10)


def k_airy(nu: float) -> float:
    """K(nu) via the Airy identity: 2*pi*(2/(3 nu))^{1/3} Ai(-(3 nu/2)^{2/3})."""
    if nu <= 0:
        raise DomainError("K(nu) requires nu > 0")
    zz = -((1.5 * nu) ** (2.0 / 3.0))
    ai = sc.airy(zz)[0]
    return float(2.0 * math.pi * (2.0 / (3.0 * nu)) ** (1.0 / 3.0) * ai)


def k_oscillatory(nu: float) -> float:
    """K(nu) by direct quadrature of 2*int_0^inf cos(nu (u^3-3u)/2) du.

    Phase-adaptive Gauss panels on [0, A] plus a three-term integration-by-
    parts tail; agrees with the Airy path to ~1e-10 for nu in [0.5, 15].
    """
    if nu <= 0:
        raise DomainError("K(nu) requires nu > 0")

    def phi(x):
        return nu * (x**3 - 3.0 * x) / 2.0

    def dphi(x):
        return 1.5 * nu * (x * x - 1.0)

    A = max(6.0, (1.2e8 / nu**3) ** 0.125 * 1.2)
    bps = [0.0]
    n1 = int(math.ceil(nu / math.pi)) + 2
    bps += list(np.linspace(0.0, 1.0, n1 + 1)[1:])
    pA, p1 = phi(A), phi(1.0)
    npan = int(math.ceil((pA - p1) / math.pi))
    x = 1.0
    for j in range(1, npan):
        target = p1 + j * (pA - p1) / npan
        x = max(x, 1.0 + 1e-9)
        for _ in range(60):
            d = dphi(x)
            step = (phi(x) - target) / (d if d > 0 else 1e-9)
            x -= step
            if x <= 1.0:
                x = 1.0 + 1e-12
            if abs(step) < 1e-12 * max(1.0, x):
                break
        bps.append(x)
    bps.append(A)
    bps = np.array(sorted(set(bps)))
    lo, hi = bps[:-1], bps[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    U = mid[:, None] + half[:, None] * _GLX10[None, :]
    F = np.cos(nu * (U**3 - 3.0 * U) / 2.0)
    val = float(np.sum(half * (F @ _GLW10)))
    # IBP boundary terms at A; the neglected remainder is < ~1e-8 by choice of A
    dA = dphi(A)
    d2A = 3.0 * nu * A
    psiA = (3.0 * nu * dA - 3.0 * d2A * d2A) / dA**4
    tail = -math.sin(pA) / dA + math.cos(pA) * d2A / dA**3 - math.sin(pA) * psiA / dA
    return 2.0 * (val + tail)


def K_airy(nu: float, cross_check: bool = False, tol: float = 1e-6) -> float:
    """K(nu), primary evaluation through the Airy path.

    With cross_check=True the oscillatory quadrature path is also evaluated
    and the two must agree within tol.
    """
    val = k_airy(nu)
    if cross_check:
        alt = k_oscillatory(nu)
        if abs(val - alt) > tol:
            from .errors import NumericalConsistencyError

            raise NumericalConsistencyError(
                f"K({nu}): airy={val!r} vs quadrature={alt!r} disagree beyond {tol}"
            )
    return val


def k_zeros(count: int) -> list[float]:
    """First ``count`` positive zeros of K(nu), increasing.

    Located by bracketing sign changes of the Airy-path evaluation and
    bisection refinement (the zeros satisfy nu_k ~ pi*(k + 3/4) for large k).
    """
    zeros: list[float] = []
    lo = 0.3
    step = 0.05
    prev_u = lo
    prev_v = k_airy(lo)
    u = lo
    while len(zeros) < count and u < 6.0 + math.pi * (count + 2):
        u += step
        v = k_airy(u)
        if v == 0.0:
            zeros.append(u)
        elif prev_v * v < 0.0:
            a, b = prev_u, u
            fa = prev_v
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = k_airy(m)
                if fm == 0.0 or (b - a) < 1e-14:
                    a = b = m
                    break
                if (fm > 0) == (fa > 0):
                    a, fa = m, fm
                else:
                    b = m
            zeros.append(0.5 * (a + b))
        prev_u, prev_v = u, v
    return zeros[:count]
