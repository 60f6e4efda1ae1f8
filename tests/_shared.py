"""Heavy fixtures shared between the unit suites and the acceptance suite."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from densediv.errors import DomainError
from densediv.families import FamilySpec, _chain_member, _ssf_within, is_member, membership_tables
from densediv.integers import FactoredInteger, divisors, factorize
from densediv.specfun import _OMEGA_UMAX, OMEGA_STEP, _hermite, _omega_23, _special


def within_one_ulp(value: float, printed: str) -> bool:
    """True iff |value - printed| is below one unit in the last printed place."""
    digits = len(printed.split(".")[1]) if "." in printed else 0
    return abs(value - float(printed)) < 10.0 ** (-digits)


# the most terms entire_I sums before its relative 1e-18 stop
_I_TERMS = 120


def entire_I(x: float) -> float:
    """I(x) = integral of (e^t - 1)/t over [0, x], by its entire power series."""
    total = 0.0
    term = 1.0
    for k in range(1, _I_TERMS + 1):
        term *= x / k
        contrib = term / k
        total += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def k_airy(nu: float) -> float:
    """K(nu) via the Airy identity: 2*pi*(2/(3 nu))^{1/3} Ai(-(3 nu/2)^{2/3}),
    the route k_oscillatory's quadrature is checked against."""
    if nu <= 0:
        raise DomainError("K(nu) requires nu > 0")
    zz = -((1.5 * nu) ** (2.0 / 3.0))
    ai = _special().airy(zz)[0]
    return float(2.0 * math.pi * (2.0 / (3.0 * nu)) ** (1.0 / 3.0) * ai)


@dataclass(frozen=True)
class SSFValue:
    """F_beta(n): the maximizing divisor and the exact comparison key.

    For beta = pb/qb the key is d**qb * P^-(d)**pb; keys compare exactly like
    the real values d * P^-(d)**beta (same qb).
    """

    d: int
    key: int
    beta: Fraction


def schinzel_szekeres(n: int | FactoredInteger, beta: Fraction | int) -> SSFValue:
    """F_beta(n) = max over divisors d > 1 of d * (P^-(d))^beta; F_beta(1) = 1.
    The per-n reference for the bulk masks of families._ssf_within."""
    beta = Fraction(beta)
    if beta <= 0:
        raise DomainError("beta must be > 0")
    pb, qb = beta.numerator, beta.denominator
    f = n if isinstance(n, FactoredInteger) else factorize(n)
    keys = (
        (d, d**qb * next(q for q, _ in f.factors if d % q == 0) ** pb) for d in divisors(f)[1:]
    )
    best_d, best_key = max(keys, key=lambda dk: dk[1], default=(1, 1))
    return SSFValue(d=best_d, key=best_key, beta=beta)


def a_beta_mask(x: int, y: Fraction, beta: Fraction) -> np.ndarray:
    """F_beta(n) <= x y over n = 0..x: the set A_beta counts."""
    qb = Fraction(beta).denominator
    bound = x * Fraction(y)
    # d p^beta <= B  <=>  d^qb p^pb B_den^qb <= B_num^qb
    return _ssf_within(x, beta, bound.numerator**qb, bound.denominator**qb, 0)


def ssf_identity_mask(x: int, y: Fraction, beta: Fraction) -> np.ndarray:
    """F_beta(n) <= n y^beta over n = 0..x, the mask check_ssf_identity_range reads."""
    y, beta = Fraction(y), Fraction(beta)
    pb, qb = beta.numerator, beta.denominator
    return _ssf_within(x, beta, y.numerator**pb, y.denominator**pb, qb)


def check_theta2(n: int | FactoredInteger, y: Fraction | int) -> bool:
    """Dense(2) membership by definition (the oracle) equals the chain test
    with theta(m) = y * max_{d | m, d in Dense(1)} min(m/d, d)."""
    y = Fraction(y)
    f = n if isinstance(n, FactoredInteger) else factorize(n)
    spec = FamilySpec("dense", y, i=2)
    return is_member(f, spec) == _chain_member(spec, f)


@lru_cache(maxsize=8)
def tables_at(N: int, y: Fraction, imax: int = 4):
    return membership_tables(N, y, imax)


class DefinitionReference:
    """Dense(i) and StrongDense(i) for one y, straight from the definitions,
    sharing no code with the package.

    Level 0 holds every n >= 1.  n is in StrongDense(i) iff for every j + k =
    i - 1 (every j, no mirror halving) and every R in [1, y n] there is a
    factorisation n = q r with q in StrongDense(j), r in StrongDense(k) and
    R/y <= r <= R.  Dense(i) asks this for the one pair j = 0, k = i - 1:
    every R in [1, y n] has a divisor r of n in Dense(i - 1) with R/y <= r <= R.
    """

    def __init__(self, y):
        self.y = Fraction(y)
        self._memo = {}
        self._divs = {}

    def _divisors(self, n):
        if n not in self._divs:
            small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
            self._divs[n] = sorted(set(small + [n // d for d in small]))
        return self._divs[n]

    def _covers(self, rs, n):
        """Every R in [1, y n] lies in some [r, y r] with r in rs (sorted)."""
        # every R <= reach is covered by the r read so far (R = 1 by the next
        # r, which must be 1); an r > reach leaves the R just below r uncovered
        reach = Fraction(1)
        for r in rs:
            if r > reach:
                return False
            reach = max(reach, self.y * r)
        return reach >= self.y * n

    def member(self, kind, n, i):
        if i == 0:
            return True
        key = (kind, n, i)
        if key not in self._memo:
            ks = [i - 1] if kind == "dense" else range(i)
            self._memo[key] = all(
                self._covers([r for r in self._divisors(n)
                              if self.member(kind, r, k) and self.member(kind, n // r, i - 1 - k)],
                             n)
                for k in ks
            )
        return self._memo[key]


def omega_table_reference():
    """(values, derivs) of Buchstab's omega on [3, 13] by the scalar RK4 that
    evaluates the delay history point by point, the table's first form."""
    step = OMEGA_STEP
    n = int(round((_OMEGA_UMAX - 3.0) / step))
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
        return _hermite((t - us[j]) / step, step, w[j], wd[j], w[j + 1], wd[j + 1])

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
    return w, wd
