"""Independent references that the workload checks compare against.

Nothing here imports densediv: each reference is written from the
definition or from the literature, so a fault in the package cannot hide in
the check.

* ``dickman_rho``: Dickman's rho_0 from the delay equation
  u rho'(u) = -rho(u - 1), by power series on each unit interval
  (Marsaglia, Zaman & Marsaglia, Math. Comp. 53 (1989)).
* ``chain_member``, ``dense_member``, ``strong_member``: the family
  definitions applied to one n, in exact rational arithmetic.
* ``chain_counts``: counting functions of chain families up to 1e7 by a
  numpy smallest-prime-factor walk.
* ``LAMBDA_DIGITS``, ``C_DIGITS``, ``COMPLEX_ZERO_A1``: the paper's printed
  values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

EULER_GAMMA = 0.57721566490153286060651209008240243
C1_EXACT = 1.0 / (1.0 - math.exp(-EULER_GAMMA))

# lambda_{1/i} and C_{1/i} as printed in the paper (truncated digits).
LAMBDA_DIGITS = {
    1: "1", 2: "2.46206", 3: "4.20605", 4: "6.15900", 5: "8.27925",
    6: "10.5395", 7: "12.9203", 8: "15.4074", 9: "17.9892", 10: "20.6568",
}
C_DIGITS = {
    1: "2.28029", 2: "3.7815", 3: "5.7645", 4: "8.3827", 5: "11.812",
    6: "16.265", 7: "22.000", 8: "29.333", 9: "38.648", 10: "50.410",
}
# the zero of g_1 closest to the zero-free strip, to the paper's two decimals
COMPLEX_ZERO_A1 = complex(-3.03, 11.36)


def matches_digits(value: float, printed: str) -> bool:
    """True iff value is within one unit of the last printed digit."""
    places = len(printed.split(".")[1]) if "." in printed else 0
    return abs(value - float(printed)) < 10.0 ** (-places)


# ---------------------------------------------------------------------------
# Dickman's rho
# ---------------------------------------------------------------------------

_TERMS = 90


def _dickman_coefficients(k_max: int) -> list[list[float]]:
    """coef[k][j]: rho(u) = sum_j coef[k][j] (k - u)^j on k - 1 <= u <= k.

    With z = k - u the delay equation reads (k - z) rho_k'(z) = rho_{k-1}(z),
    so c_{j+1} = (c'_j + j c_j) / (k (j + 1)) with c' the previous interval.
    rho(k) = (1/k) int_{k-1}^k rho then gives c_0 = sum_{j>=1} c_j/(j+1) / (k-1).
    Every coefficient is positive, so the tail keeps its relative accuracy.
    """
    coef = [[0.0] * _TERMS, [1.0] + [0.0] * (_TERMS - 1)]
    for k in range(2, k_max + 1):
        prev = coef[k - 1]
        c = [0.0] * _TERMS
        c[1] = prev[0] / k
        for j in range(1, _TERMS - 1):
            c[j + 1] = (prev[j] + j * c[j]) / (k * (j + 1))
        c[0] = sum(c[j] / (j + 1) for j in range(1, _TERMS)) / (k - 1)
        coef.append(c)
    return coef


def dickman_rho(u) -> np.ndarray:
    """rho_0(u) for an array of u >= 0, to ~1e-15 relative."""
    us = np.atleast_1d(np.asarray(u, dtype=float))
    k = np.maximum(np.ceil(us - 1e-15), 1).astype(int)
    coef = np.array(_dickman_coefficients(int(k.max())))
    z = k - us
    out = np.zeros_like(us)
    for j in range(_TERMS - 1, -1, -1):  # Horner in z
        out = out * z + coef[k, j]
    return out


def dickman_closed_form(u: float) -> float:
    """rho_0 on [1, 3]: 1 - log u, then the dilogarithm form on [2, 3]."""
    if 1.0 <= u <= 2.0:
        return 1.0 - math.log(u)
    if 2.0 < u <= 3.0:
        li2 = float(mpmath.polylog(2, 1.0 - u))
        return 1.0 - (1.0 - math.log(u - 1.0)) * math.log(u) + li2 + math.pi**2 / 12.0
    raise ValueError("closed forms cover 1 <= u <= 3 only")


def dickman_self_test() -> list[str]:
    """Compare dickman_rho with the closed forms and with known values."""
    bad = []
    for u in np.linspace(1.0, 3.0, 41):
        ref = dickman_closed_form(float(u))
        got = float(dickman_rho(u)[0])
        if abs(got - ref) > 1e-13:
            bad.append(f"rho({u:.3f}) = {got!r}, closed form {ref!r}")
    # the tabulated value rho(10) = 2.77017183772596e-11
    got = float(dickman_rho(10.0)[0])
    if abs(got / 2.77017183772596e-11 - 1.0) > 1e-9:
        bad.append(f"rho(10) = {got!r}")
    return bad


# ---------------------------------------------------------------------------
# family definitions for single n
# ---------------------------------------------------------------------------


def factor(n: int) -> list[int]:
    """Prime factors of n with multiplicity, nondecreasing (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def divisors_of(n: int) -> list[int]:
    divs = {1}
    for p in factor(n):
        divs |= {d * p for d in divs}
    return sorted(divs)


def theta_allows(kind: str, y: Fraction, param, p: int, m: int) -> bool:
    """p <= theta(m) for the chain families, compared exactly.

    smooth: theta = y; thetalower(i): max(y, (y m)^(1/i));
    thetaupper(i): y m^(1/i); bpower(a): y m^a; bstar(a): max(y, (y m)^a).
    """
    if kind == "smooth":
        return p <= y
    if kind == "thetalower":
        return p <= y or Fraction(p) ** param <= y * m
    if kind == "thetaupper":
        return Fraction(p) ** param <= y**param * m
    a = Fraction(param)
    # p <= c^a  <=>  p^q <= c^r for a = r/q
    r, q = a.numerator, a.denominator
    if kind == "bpower":
        return Fraction(p) ** q <= y**q * Fraction(m) ** r
    if kind == "bstar":
        return p <= y or Fraction(p) ** q <= (y * m) ** r
    raise ValueError(f"{kind} is not a chain family")


def chain_member(kind: str, y: Fraction, param, n: int, squarefree: bool = False) -> bool:
    """n = p_1 p_2 ... p_k (p_1 <= ... <= p_k) is a member iff
    p_{j+1} <= theta(p_1 ... p_j) for every j >= 0."""
    ps = factor(n)
    if squarefree and len(set(ps)) != len(ps):
        return False
    m = 1
    for p in ps:
        if not theta_allows(kind, y, param, p, m):
            return False
        m *= p
    return True


def _covers(points: list[int], n: int, y: Fraction) -> bool:
    """True iff every R in [1, y n] has some point r with R/y <= r <= R,
    i.e. the intervals [r, y r] cover [1, y n].  points is increasing, <= n."""
    py, qy = y.numerator, y.denominator
    last = None
    for r in points:
        # r may not lie beyond the covered part: [1, 1] before any point,
        # [1, y last] after one
        if (r > 1) if last is None else (r * qy > py * last):
            return False
        last = r
    return last == n  # y last >= y n


class DenseReference:
    """Dense(i) and StrongDense(i) for one y, from the definitions.

    Dense(0) and StrongDense(0) hold every n >= 1.
    n is in Dense(i) iff n is in Dense(i-1) and the divisors of n that lie in
    Dense(i-1) leave no gap: every R in [1, y n] has such a divisor in
    [R/y, R].
    n is in StrongDense(i) iff for every j + k = i - 1 and every R in
    [1, y n] there is a factorisation n = q r with q in StrongDense(j),
    r in StrongDense(k) and R/y <= r <= R (the Polymath definition).
    """

    def __init__(self, y: Fraction):
        self.y = Fraction(y)
        self._memo: dict[tuple, bool] = {}

    def dense(self, n: int, i: int) -> bool:
        if i == 0:
            return True
        key = ("d", n, i)
        if key not in self._memo:
            self._memo[key] = self.dense(n, i - 1) and _covers(
                [d for d in divisors_of(n) if self.dense(d, i - 1)], n, self.y
            )
        return self._memo[key]

    def strong(self, n: int, i: int) -> bool:
        if i == 0:
            return True
        key = ("s", n, i)
        if key not in self._memo:
            divs = divisors_of(n)
            self._memo[key] = all(
                _covers(
                    [r for r in divs if self.strong(r, k) and self.strong(n // r, i - 1 - k)],
                    n,
                    self.y,
                )
                for k in range(i)
            )
        return self._memo[key]

    def member(self, kind: str, n: int, i: int) -> bool:
        return self.dense(n, i) if kind == "dense" else self.strong(n, i)


# ---------------------------------------------------------------------------
# bulk chain counts
# ---------------------------------------------------------------------------


def _spf_table(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, limit + 1):
        if p * p > limit:
            break
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = spf == 0
    spf[rest] = np.arange(limit + 1, dtype=np.int32)[rest]
    return spf


def _theta_vec(kind: str, y: Fraction, param, p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Vectorised theta_allows for integer y; every product stays below 2^63."""
    if y.denominator != 1:
        raise ValueError("the bulk reference takes integer y")
    yi = y.numerator
    if kind == "smooth":
        return p <= yi
    if kind in ("thetalower", "thetaupper") and int(p.max(initial=1)) ** param * yi**param >= 2**63:
        raise ValueError(f"{kind}({param}) overflows int64 at this x")
    if kind == "thetalower":
        return (p <= yi) | (p**param <= yi * m)
    if kind == "thetaupper":
        return p**param <= yi**param * m
    a = Fraction(param)
    r, q = a.numerator, a.denominator
    if kind == "bpower" and (r, q) == (1, 1):
        return p <= yi * m
    if kind == "bstar" and (r, q) == (2, 3):
        # p^3 <= (y m)^2  <=>  p^2 <= floor((y m)^2 / p), free of overflow
        return (p <= yi) | (p * p <= (yi * m) ** 2 // p)
    raise ValueError(f"no overflow-safe bulk form for {kind} with {param}")


def chain_counts(families: list[tuple], xs: list[int], chunk: int = 1 << 20) -> list[list[int]]:
    """counts[f][k] = #{n <= xs[k] : n in families[f]}.

    families holds (kind, y, param, squarefree) tuples.  Each n is walked
    through its prime factors in increasing order, all families at once.
    """
    x_max = max(xs)
    spf = _spf_table(x_max).astype(np.int64)
    xs_arr = np.asarray(xs)
    counts = np.zeros((len(families), len(xs)), dtype=np.int64)
    for lo in range(1, x_max + 1, chunk):
        n = np.arange(lo, min(lo + chunk, x_max + 1), dtype=np.int64)
        ok = np.ones((len(families), n.size), dtype=bool)
        idx = np.nonzero(n > 1)[0]
        rem, m, prev = n[idx], np.ones(idx.size, np.int64), np.zeros(idx.size, np.int64)
        while idx.size:
            p = spf[rem]
            for f, (kind, y, param, sf) in enumerate(families):
                good = _theta_vec(kind, y, param, p, m)
                if sf:
                    good &= p != prev
                ok[f, idx] &= good
            m *= p
            rem //= p
            prev = p
            live = rem > 1
            idx, rem, m, prev = idx[live], rem[live], m[live], prev[live]
        # members <= x within this chunk
        upto = np.searchsorted(n, xs_arr, side="right")
        csum = np.concatenate([np.zeros((len(families), 1), np.int64), np.cumsum(ok, axis=1)], axis=1)
        counts += csum[:, upto]
    return counts.tolist()
