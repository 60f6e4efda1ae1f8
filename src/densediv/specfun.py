"""Scalar special functions.

Buchstab's omega (delay equation solver with dense output) and its
derivative, the exact rational coefficients b_k of exp(-I(-u)), gamma for
complex arguments, the lower incomplete gamma, and the Airy-type oscillatory
integral K(nu) by direct quadrature, with its zeros in closed form.

The lower incomplete gamma has one power series and one continued fraction.
The float series route of g_a runs both on complex128; the
adaptive-precision route runs the power series alone on mpmath numbers,
passing its tolerance, exp and log.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from ._constants import EXP_NEG_GAMMA
from .errors import DomainError


@lru_cache(maxsize=1)
def _special():
    """scipy.special, imported on first use: the import costs a fresh process
    ~0.25 s and ~24 MB, and membership, counts and the rho tables never need it."""
    import scipy.special

    return scipy.special


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
    """Dense-output table of Buchstab's function on [3, 13], one row per OMEGA_STEP."""

    us: np.ndarray
    values: np.ndarray
    derivs: np.ndarray


def _omega_23(u: float) -> float:
    return (1.0 + math.log(u - 1.0)) / u


def _hermite(s, h, y0, d0, y1, d1):
    """Cubic Hermite interpolant at fraction s of a step h that runs from value
    y0, derivative d0 to value y1, derivative d1 (scalars or arrays)."""
    r2 = (1 - s) ** 2
    s2 = s * s
    h00 = (1 + 2 * s) * r2
    h10 = s * r2
    h01 = s2 * (3 - 2 * s)
    h11 = s2 * (s - 1)
    return h00 * y0 + h * h10 * d0 + h01 * y1 + h * h11 * d1


def _omega_hermite(t: np.ndarray, us: np.ndarray, w: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """omega at t >= 3 from the rows (us, w, wd) of the table: the Hermite
    cubic of t's row interval, the last interval serving t past the end."""
    j = np.minimum(((t - 3.0) / OMEGA_STEP).astype(np.int64), len(us) - 2)
    return _hermite((t - us[j]) / OMEGA_STEP, OMEGA_STEP, w[j], wd[j], w[j + 1], wd[j + 1])


@lru_cache(maxsize=1)
def build_omega_table() -> OmegaTable:
    """omega and omega' on [3, 13], one row per OMEGA_STEP, by RK4 on the
    delay equation.

    The delay term omega(u - 1) reaches one unit back: the step from row j
    reads the table up to row j + 2 - per (per steps to a unit).  So once
    row b is final, the history of the next per - 1 steps, at u - 1
    and u + h/2 - 1, is one numpy evaluation: _omega_23 (math.log) below 3,
    the Hermite interpolant of the final rows above.  The steps then run on
    Python floats.  Every value is the one a point-by-point evaluation of the
    history gives.
    """
    step = h = OMEGA_STEP
    n = int(round((_OMEGA_UMAX - 3.0) / step))
    us = 3.0 + step * np.arange(n + 1)
    w = np.zeros(n + 1)
    wd = np.zeros(n + 1)

    def hist(t: np.ndarray) -> list[float]:
        out = np.empty_like(t)
        low = t < 3.0
        out[low] = [_omega_23(x) for x in t[low].tolist()]
        out[~low] = _omega_hermite(t[~low], us, w, wd)
        return out.tolist()

    def f(u: float, past: float, val: float) -> float:
        return (past - val) / u

    w[0] = _omega_23(3.0)
    wd[0] = f(3.0, _omega_23(2.0), w[0])
    chunk = int(round(1.0 / step)) - 1
    for b in range(0, n, chunk):
        e = min(b + chunk, n)
        grid = hist(us[b : e + 1] - 1.0)
        mid = hist(us[b:e] + h / 2 - 1.0)
        u = us[b : e + 1].tolist()
        y0 = float(w[b])
        for i in range(e - b):
            u0 = u[i]
            k1 = f(u0, grid[i], y0)
            k2 = f(u0 + h / 2, mid[i], y0 + h / 2 * k1)
            k3 = f(u0 + h / 2, mid[i], y0 + h / 2 * k2)
            k4 = f(u0 + h, grid[i + 1], y0 + h * k3)
            y0 = y0 + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            w[b + i + 1] = y0
            wd[b + i + 1] = f(u[i + 1], grid[i + 1], y0)
    us.setflags(write=False)
    w.setflags(write=False)
    wd.setflags(write=False)
    return OmegaTable(us=us, values=w, derivs=wd)


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
        out[m3] = _omega_hermite(t3, tab.us, tab.values, tab.derivs)
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
        out[m4] = 1.0 / _special().gamma(t + 1.0)
    if np.isscalar(u) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Rational series b_k with exp(-I(-u)) = sum b_k u^k
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def b_coefficients(K: int) -> tuple[Fraction, ...]:
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
    return tuple(b)


# ---------------------------------------------------------------------------
# Gamma and the lower incomplete gamma for complex argument
# ---------------------------------------------------------------------------


def gamma_complex(s: complex) -> complex:
    """Gamma(s) for complex s; raises at the poles."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise DomainError(f"gamma pole at s = {s}")
    return complex(_special().gamma(s))


_SERIES_MAXIT = 100000
_CF_MAXIT = 200000


def _lower_series(A, z, tol=1e-17, exp=cmath.exp, log=math.log):
    # gamma_low(A,z) = z^A e^-z sum_{n>=0} z^n / (A(A+1)...(A+n)); Re(A) > 0
    term = 1 / A
    total = term
    for n in range(1, _SERIES_MAXIT):
        term *= z / (A + n)
        total += term
        if abs(term) < tol * abs(total):
            break
    return exp(A * log(z) - z) * total


def _upper_cf(A, z):
    # modified Lentz for Gamma(A,z) = z^A e^-z / (z+1-A - 1(1-A)/(z+3-A - ...)) in complex128
    tiny = 1e-300
    b = z + 1 - A
    C = b if abs(b) >= tiny else tiny
    D = 0
    f = C
    for i in range(1, _CF_MAXIT):
        an = -i * (i - A)
        b = z + 2 * i + 1 - A
        D = b + an * D
        if abs(D) < tiny:
            D = tiny
        C = b + an / C
        if abs(C) < tiny:
            C = tiny
        D = 1 / D
        delta = C * D
        f *= delta
        if abs(delta - 1) < 1e-16:
            break
    return cmath.exp(A * math.log(z) - z) / f


def _lower_gamma(A, z):
    """Lower incomplete gamma(A, z) in complex128, z > 0: the series for
    Re A > 0.5, else Gamma(A) minus the continued fraction for the upper gamma."""
    if A.real > 0.5:
        return _lower_series(A, z)
    return gamma_complex(A) - _upper_cf(A, z)


# ---------------------------------------------------------------------------
# K(nu): oscillatory integral and its zeros
# ---------------------------------------------------------------------------

_GLX10, _GLW10 = np.polynomial.legendre.leggauss(10)


def k_oscillatory(nu: float) -> float:
    """K(nu) by direct quadrature of 2*int_0^inf cos(nu (u^3-3u)/2) du.

    Phase-adaptive Gauss panels on [0, A] plus a three-term integration-by-
    parts tail; agrees with the Airy form (see k_zeros) to ~1e-10 for nu in
    [0.5, 15].
    """
    if nu <= 0:
        raise DomainError("K(nu) requires nu > 0")

    A = max(6.0, (1.2e8 / nu**3) ** 0.125 * 1.2)
    n1 = int(math.ceil(nu / math.pi)) + 2
    # the phase phi(x) = nu (x^3 - 3x)/2 at A and at 1
    pA, p1 = nu * (A**3 - 3.0 * A) / 2.0, -nu
    npan = int(math.ceil((pA - p1) / math.pi))
    # past x = 1 a breakpoint every pi of phase: phi(x) = target is
    # x^3 - 3x = 2c with c = target/nu, whose root x >= 1 is
    # 2 cos(arccos(c)/3) for c <= 1 and 2 cosh(arccosh(c)/3) past 1
    c = (p1 + np.arange(1, npan) * (pA - p1) / npan) / nu
    roots = np.where(c <= 1.0, 2.0 * np.cos(np.arccos(np.minimum(c, 1.0)) / 3.0),
                     2.0 * np.cosh(np.arccosh(np.maximum(c, 1.0)) / 3.0))
    bps = np.unique(np.concatenate(([0.0], np.linspace(0.0, 1.0, n1 + 1)[1:], roots, [A])))
    lo, hi = bps[:-1], bps[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    U = mid[:, None] + half[:, None] * _GLX10[None, :]
    F = np.cos(nu * (U**3 - 3.0 * U) / 2.0)
    val = float(np.sum(half * (F @ _GLW10)))
    # IBP boundary terms at A; the neglected remainder is < ~1e-8 by choice of A
    dA = 1.5 * nu * (A * A - 1.0)
    d2A = 3.0 * nu * A
    psiA = (3.0 * nu * dA - 3.0 * d2A * d2A) / dA**4
    tail = -math.sin(pA) / dA + math.cos(pA) * d2A / dA**3 - math.sin(pA) * psiA / dA
    return 2.0 * (val + tail)


def k_zeros(count: int) -> list[float]:
    """First ``count`` positive zeros of K(nu), increasing.

    K(nu) = 2 pi (2/(3 nu))^{1/3} Ai(-(3 nu/2)^{2/3}) vanishes exactly where
    -(3 nu/2)^{2/3} is a zero a_k of Ai, so nu_k = (2/3) |a_k|^{3/2}
    (nu_k ~ pi (k + 3/4) for large k).  The a_k come from mpmath's
    airyaizero at 20 digits, so each nu_k is good to a few ulps; scipy's
    ai_zeros is off by up to 8e-12 at a_5.
    """
    with mp.workdps(20):
        return [float(2 * (-mp.airyaizero(k)) ** 1.5 / 3) for k in range(1, count + 1)]
