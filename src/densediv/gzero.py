"""The entire function g_a(s): evaluation, zero location, residues, winding counts.

Three independent evaluation routes:

* ``g_eval_series``  -- the incomplete-gamma series h_{1,a,K} plus the tail
  integral h_{2,a}, normalized by a^{s+1} Gamma(s); carries an explicit
  truncation bound 4 e^{-gamma} / (2^K a^{Re s} |Gamma(s)|).  Evaluated in
  adaptive-precision arithmetic because the sum cancels heavily near zeros;
  ``_g_series_float`` is its complex128 fast path.  Both take their lower
  incomplete gammas from specfun's power series (``_lower_series``).
* ``g_eval_integral`` -- s + e^{-gamma}/(a (1+a)^s) + s * int_1^inf
  (omega(u) - e^{-gamma}) (1+a u)^{-s-1} du, in float arithmetic; the only
  route that stays well-scaled for large |Im s|.
* ``g_eval_neg_int`` -- exact rationals: g_a(-n) a e^gamma is a polynomial
  in a with coefficients built from the b_k series.

-lambda_a is the right-most real zero; C_a = 1/g_a'(-lambda_a).
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

from ._constants import EULER_GAMMA, EXP_NEG_GAMMA
from .errors import (
    BoundaryZeroError,
    DomainError,
    NumericalConsistencyError,
    ResourceLimitError,
    SearchFailureError,
)
from .specfun import _lower_series, b_coefficients, buchstab_omega, buchstab_omega_prime, e1, loggamma

_BMAX = 258  # b_k available up to this index; series cap K <= _BMAX


@dataclass(frozen=True)
class ZeroCertificate:
    """Evidence for the right-most real zero -lambda_a of g_a.

    bracket = (n - 1, n): the exact rationals g_a(-m) a e^gamma are positive
    at m = 0..n - 1 and not at m = n (bracket_signs holds the last two), so
    -n is the first non-positive integer where the sign changes, and g_a has
    a zero in [-n, -(n - 1)] (degenerate (n, n) when g_a(-n) = 0).  lam is
    that zero, by bisection and secant polish inside the bracket; residual is
    |a e^gamma g_a(-lam)|; C = 1/g_a'(-lam) from the residue contour, checked
    against the derivative.  A certificate does not show that no zero lies
    between two integers or off the real axis right of -lam, so its JSON
    lists no zero-free rectangles ("zero_free_rects" is empty).
    """

    a: Fraction
    lam: float
    C: float
    bracket: tuple[int, int]
    bracket_signs: tuple[Fraction, Fraction]
    residual: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "a": str(self.a),
                "lambda": self.lam,
                "C": self.C,
                "bracket": list(self.bracket),
                "bracket_signs": [str(s) for s in self.bracket_signs],
                "residual": self.residual,
                "zero_free_rects": [],
            },
            indent=2,
        )


# ---------------------------------------------------------------------------
# exact values at non-positive integers
# ---------------------------------------------------------------------------


def g_eval_neg_int(a: Fraction | int, n: int) -> Fraction:
    """Exact rational value of g_a(-n) * a * e^gamma for integer n >= 0."""
    if n < 0:
        raise DomainError("n must be >= 0")
    a = Fraction(a)
    b = b_coefficients(_BMAX) if n <= _BMAX else b_coefficients(n)
    s = Fraction(0)
    c = 1  # n!/(n-k)!
    for k in range(n + 1):
        s += (-a) ** k * b[k] * c
        c *= n - k
    return s


def _at_nonpositive_integer(s: complex) -> bool:
    return s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real)


def _g_exact_or_series(a: Fraction, s: complex, margin: float | None = None) -> complex:
    """g_a(s) from the exact rational value where s is a non-positive integer
    (a removable point of the series normalization); else from the float
    series route if a margin is given and its value is finite and at least
    margin times its finite noise; else from the series route from _dps(a) digits."""
    if _at_nonpositive_integer(s):
        return complex(float(g_eval_neg_int(a, int(-s.real))) * EXP_NEG_GAMMA / float(a))
    if margin is not None:
        v, noise = _g_series_float(a, s)
        if math.isfinite(abs(v)) and math.isfinite(noise) and abs(v) >= margin * noise:
            return v
    return g_eval_series(a, s)[0]


# ---------------------------------------------------------------------------
# series route (adaptive precision)
# ---------------------------------------------------------------------------


def _mp_gammalow_down(s, z, K: int, tol) -> list:
    """[gamma(s+k, z) for k = 0..K], the lower incomplete gamma: one direct
    evaluation at the top index A = s+K, then the downward recurrence
    gamma(A, z) = (gamma(A+1, z) + z^A e^-z) / A (DLMF 8.8.1).

    Downward is the stable direction: an error in gamma(A+1, z) reaches
    gamma(A, z) divided by A, carried like the homogeneous solution Gamma(A),
    and for real A > 0 gamma(A, z)/Gamma(A) grows as A decreases, so the
    relative error shrinks.  With K >= 1 - Re s, which g_eval_series checks,
    the top index has Re A >= 1, where specfun's power series converges.
    """
    A = s + K
    zpow = mp.exp(A * mp.log(z) - z)  # z^A e^-z
    gl = zpow * _lower_series(A, z, tol)
    out = [gl]
    for k in range(K - 1, -1, -1):
        A = s + k
        zpow /= z
        gl = (gl + zpow) / A
        out.append(gl)
    out.reverse()
    return out


@lru_cache(maxsize=8)
def _gl24_halves(prec: int) -> tuple[tuple, tuple]:
    """The 24-point Gauss-Legendre nodes x and weights w on [-1, 1], halved:
    a unit panel [m, m+1] has nodes m + 1/2 + x/2 and weights w/2, so every
    panel at one precision shares the weights."""
    pairs = GaussLegendre(mp.mp).calc_nodes(4, prec)
    return tuple(x / 2 for x, _ in pairs), tuple(w / 2 for _, w in pairs)


@lru_cache(maxsize=1024)
def _e1_unit_panel(dps: int, m: int) -> tuple[tuple, tuple, tuple, tuple]:
    """The Gauss-Legendre nodes u and weights of the unit panel [m, m+1], with
    log u and E1(u) there, at dps + 8 digits.  They do not depend on a, so
    every a shares one evaluation."""
    with mp.workdps(dps + 8):
        halves, weights = _gl24_halves(mp.mp.prec)
        mid = mp.mpf(2 * m + 1) / 2
        us = tuple(mid + h for h in halves)
        return us, weights, tuple(mp.log(u) for u in us), tuple(mp.e1(u) for u in us)


# the unit panels of h_2 one high-precision sample may sum, and _h2_panel keeps
_H2_PANELS = 4096


def _check_h2_budget(a: Fraction) -> None:
    """Refuse an a whose high-precision samples of g_a would sum more than
    _H2_PANELS unit panels of h_2.  At Re s = 0 and _dps(a) digits _h2_eval
    sums the panels m with (m - 1)/a <= (dps + 10) ln 10, about 115 a once
    a >= 0.07, so every a <= 35.57 is admitted."""
    panels = math.floor((_dps(a) + 10) * math.log(10) * float(a)) + 1
    if panels > _H2_PANELS:
        raise ResourceLimitError(
            f"a = {a}: a high-precision sample of g_a sums {panels} unit panels "
            f"of h_2, budget {_H2_PANELS}"
        )


@lru_cache(maxsize=_H2_PANELS)
def _h2_panel(a: Fraction, dps: int, m: int) -> tuple[tuple, tuple]:
    """log u and the weighted W(u) = exp(-u/a + E1(u)) at the nodes of the
    unit panel [m, m+1], at dps + 8 digits; only exp(-u/a) is computed per a."""
    us, weights, lnxs, e1s = _e1_unit_panel(dps, m)
    with mp.workdps(dps + 8):
        z = mp.mpf(a.denominator) / mp.mpf(a.numerator)
        return lnxs, tuple(w * mp.exp(-u * z + e1) for u, w, e1 in zip(us, weights, e1s))


def _h2_eval(a: Fraction, s, dps: int):
    """h_{2,a}(s) = int_1^inf u^s W(u) du over the unit panels m = 1, 2, ...,
    up to the first panel past the integrand's peak where its magnitude
    u^sigma e^{-(u-1)/a} has fallen below working precision."""
    sigma = float(mp.re(s))
    zf = float(a.denominator) / float(a.numerator)
    ln_tol = sigma * math.log(max(1.0, sigma / zf)) - (dps + 10) * math.log(10)
    tot = mp.mpf(0)
    m = 1
    while m <= max(1.5, sigma / zf) or sigma * math.log(m) - (m - 1.0) * zf >= ln_tol:
        for lnx, w in zip(*_h2_panel(a, dps, m)):
            tot += w * mp.exp(s * lnx)
        m += 1
    return tot


def _ln_bound_at_K0(a: float, s: complex) -> float:
    """ln of the truncation bound at K = 0."""
    return math.log(4.0) - EULER_GAMMA - s.real * math.log(a) - loggamma(s).real


def g_series_error_bound(a: Fraction | float, s: complex, K: int) -> float:
    """The explicit truncation bound 4 e^{-gamma} / (2^K a^{Re s} |Gamma(s)|)."""
    lnb = _ln_bound_at_K0(float(a), complex(s)) - K * math.log(2.0)
    return math.exp(lnb) if lnb < 700 else math.inf


def _default_K(a: Fraction, s: complex, target: float = 1e-12) -> int:
    # smallest K with the bound below target, capped at 200; the validity
    # floor K >= 1 - Re(s) always wins over the cap
    kmin = max(1, int(math.ceil(1.0 - complex(s).real)))
    need = int(math.ceil((_ln_bound_at_K0(float(a), complex(s)) - math.log(target)) / math.log(2.0)))
    K = min(max(need, 8), 200)
    return min(max(K, kmin), _BMAX)


@lru_cache(maxsize=256)
def g_eval_series(a: Fraction | int | float, s: complex | float) -> tuple[complex, float]:
    """g_a(s) by the h_1 series + h_2 integral route; returns (value, bound).

    The series holds K = _default_K(a, s) terms.  ``bound`` is the explicit
    truncation estimate; arithmetic error is kept below it by escalating the
    working precision, from _dps(a) digits, whenever the summation is
    observed to cancel.  s at a non-positive integer is a removable point of
    the normalization: use g_eval_neg_int there.  Past Re s = -257 the
    K <= _BMAX terms cannot meet K >= 1 - Re s, and the route refuses; so
    does an a past the h_2 panel budget (_check_h2_budget).  The value
    depends on (a, s) alone and is kept: find_lambda's polish reads a
    bisection sample again without evaluating it.
    """
    a = Fraction(a) if not isinstance(a, Fraction) else a
    if a <= 0:
        raise DomainError("a must be > 0")
    _check_h2_budget(a)
    sc = complex(s)
    if _at_nonpositive_integer(sc):
        raise DomainError("use g_eval_neg_int at non-positive integers")
    K = _default_K(a, sc)
    if K < 1.0 - sc.real:
        raise DomainError(f"K={K} violates K >= 1 - Re(s) = {1.0 - sc.real}")
    b = b_coefficients(_BMAX)
    bound = g_series_error_bound(a, sc, K)

    dps = _dps(a)
    loss = 0.0
    for _ in range(8):
        with mp.workdps(dps):
            tol = mp.mpf(10) ** (-dps + 2)
            ss = mp.mpc(sc) if sc.imag != 0.0 else mp.mpf(sc.real)
            z = mp.mpf(a.denominator) / mp.mpf(a.numerator)
            afrac = 1 / z
            tot = mp.mpf(0)
            maxterm = mp.mpf(0)
            ak = mp.mpf(1)
            for k, gl in enumerate(_mp_gammalow_down(ss, z, K, tol)):
                t = ak * mp.mpf(b[k].numerator) / mp.mpf(b[k].denominator) * gl
                tot += t
                if abs(t) > maxterm:
                    maxterm = abs(t)
                ak *= afrac
            g1 = tot / mp.gamma(ss)
            h2 = _h2_eval(a, ss, dps)
            g2 = h2 * mp.power(z, ss + 1) / mp.gamma(ss)
            val = mp.exp(-mp.euler) * z * g1 + g2
            loss = float(mp.log10(maxterm / abs(tot))) if tot != 0 and maxterm > 0 else 0.0
        if loss + 18 < dps:
            return complex(val), bound
        dps = int(dps + max(20, loss + 24 - dps))
    return complex(val), bound


# ---------------------------------------------------------------------------
# float fast path for the series route
# ---------------------------------------------------------------------------

_GLX24, _GLW24 = np.polynomial.legendre.leggauss(24)


def _gl_float_nodes(lo: np.ndarray, hi: np.ndarray, x: np.ndarray, w: np.ndarray):
    """The Gauss-Legendre rule (x, w) on [-1, 1] carried to each panel
    [lo, hi]: its nodes and weights, panel by panel."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


@lru_cache(maxsize=32)
def _h2_float_nodes(a: Fraction):
    z = float(a.denominator) / float(a.numerator)
    U = max(3.0, 1.0 + 42.0 * math.log(10.0) / z)
    edges = np.arange(1.0, math.ceil(U) + 1.0)
    u, w = _gl_float_nodes(edges[:-1], np.minimum(edges[1:], U), _GLX24, _GLW24)
    return np.log(u), w * np.exp(-u * z + e1(u))


@lru_cache(maxsize=1)
def _b_float() -> tuple[float, ...]:
    """b_0..b_BMAX as floats, converted once per process."""
    return tuple(float(x) for x in b_coefficients(_BMAX))


def _float_gammalow_down(s: complex, z: float, K: int) -> list[complex]:
    """[H_k for k = 0..K] in complex128, gamma(s+k, z) = z^{s+k} e^-z H_k:
    the power series at the top index, then _mp_gammalow_down's recurrence
    over the prefactor, H_k = (z H_{k+1} + 1)/(s + k), with no exp per term."""
    H = [_lower_series(s + K, z, 1e-17)]
    for k in range(K - 1, -1, -1):
        H.append((z * H[-1] + 1.0) / (s + k))
    return H[::-1]


def _g_series_float(a: Fraction, s: complex) -> tuple[complex, float]:
    """Series route in complex128; returns (value, noise estimate).

    With z = 1/a, gamma(s+k, z) = z^{s+k} e^-z H_k (_float_gammalow_down) and
    a z = 1, so g_a(s) = z^{s+1}/Gamma(s) (e^-gamma e^-z sum_k b_k H_k + h_2(s)).
    The factor z^{s+1}/Gamma(s) is one exp of its log: far left z^s
    underflows where 1/Gamma(s) is finite (a = 1/60, s = -170.5).  Where
    1/Gamma(s) overflows (-Re log Gamma(s) > ln(max float), Re s < -171.6)
    or the factor does, the value is NaN and the noise infinite.

    The noise is 1e-14 times the scale of the two summands of g_a (the largest
    h_1 term and |h_2|, each over |Gamma(s)|), against which the value
    cancels.  Against the adaptive-precision route on the grid Re s in
    [-64, 2], Im s in {0, 0.4, 3}, a in {1, 1/2, 1/10, 1/20, 1/25}, the
    error is at most 0.34 times the noise for |s| <= 14 and 2.8 times it
    further left, where the rounding of u^s and log Gamma(s) grows like
    |s| eps.  _g_exact_or_series re-evaluates in high precision below 50x
    (find_lambda) and 1e4x (residue_C's contour) the noise, and residue_C's
    complex-step derivative once its noise exceeds 1/100 of _RESIDUE_RTOL;
    each margin covers that factor, and both take a NaN as a sample to
    re-evaluate.  Where the noise is comparable to the value the value means
    nothing: at a = 1, s = -31.863 it is 5e18 against a true -3e16.
    """
    sc = complex(s)
    z = 1.0 / float(a)
    lg = loggamma(sc)
    ln_scale = (sc + 1) * math.log(z) - lg  # log of z^{s+1}/Gamma(s)
    if max(-lg.real, ln_scale.real) > math.log(sys.float_info.max):
        return complex(math.nan, math.nan), math.inf
    K = _default_K(a, sc, target=1e-17)
    terms = [bk * hk for bk, hk in zip(_b_float(), _float_gammalow_down(sc, z, K))]
    tot = sum(reversed(terms))
    maxterm = max(map(abs, terms))
    lnu, W = _h2_float_nodes(a)
    h2 = complex(np.sum(np.exp(sc * lnu) * W))
    scale = cmath.exp(ln_scale)
    ez = EXP_NEG_GAMMA * math.exp(-z)
    val = scale * (ez * tot + h2)
    noise = 1e-14 * abs(scale) * (ez * maxterm + abs(h2))
    return val, noise


# ---------------------------------------------------------------------------
# integral route (float, vectorizable, robust for large |Im s|)
# ---------------------------------------------------------------------------

_GLX16, _GLW16 = np.polynomial.legendre.leggauss(16)


def _omega_tail_cut(a: float, sigma: float) -> float:
    U = 40.0
    while U < 400.0:
        lg = math.lgamma(U + 1.0)
        if (-sigma - 1.0) * math.log1p(a * U) - lg < -40.0:
            return U
        U += 20.0
    return U


def _integral_nodes(a: float, sigma_min: float, im_max: float):
    """Shared quadrature nodes (u_j, w_j*(omega(u_j)-e^-gamma), log1p(a u_j))
    for the integral route, resolved for |Im s| <= im_max, Re s >= sigma_min."""
    U_cut = _omega_tail_cut(a, sigma_min)
    panels = []
    for m in range(1, int(U_cut)):
        lo, hi = float(m), float(m + 1)
        dphase = im_max * (math.log1p(a * hi) - math.log1p(a * lo))
        nsub = max(1, int(math.ceil(dphase / 2.0)))
        for k in range(nsub):
            panels.append((lo + (hi - lo) * k / nsub, lo + (hi - lo) * (k + 1) / nsub))
    lo, hi = np.array(panels).T
    U, W = _gl_float_nodes(lo, hi, _GLX16, _GLW16)
    return U, W * (buchstab_omega(U) - EXP_NEG_GAMMA), np.log1p(a * U)


def g_eval_integral_many(a: Fraction | float, s_values) -> np.ndarray:
    """Vectorized integral-route evaluation over an array of s values."""
    af = float(a)
    if af <= 0:
        raise DomainError("a must be > 0")
    ss = np.asarray(s_values, dtype=complex)
    _, W, lnu = _integral_nodes(af, float(ss.real.min()), float(np.abs(ss.imag).max()))
    flat = ss.ravel()
    vals = np.empty(flat.shape, dtype=complex)
    chunk = max(1, int(4_000_000 / max(len(W), 1)))
    for i0 in range(0, len(flat), chunk):
        blk = flat[i0 : i0 + chunk]
        ker = np.exp(-(blk[:, None] + 1.0) * lnu[None, :])
        vals[i0 : i0 + chunk] = blk * (ker @ W)
    vals += flat + EXP_NEG_GAMMA / (af * (1.0 + af) ** flat)
    return vals.reshape(ss.shape)


def g_eval_integral(a: Fraction | float, s: complex | float) -> complex:
    """g_a(s) from the entire-function integral form (float arithmetic).

    Uses omega - e^{-gamma} on [1, U] with a superexponentially small tail;
    panels are refined in proportion to |Im s| so the oscillatory factor
    (1+a u)^{-s-1} is resolved.  Checked against the series route only at
    a = 1 with Re s in [-3.6, 0], the rectangles the CLI's zero counts read,
    where it agrees to ~1e-9 * (1 + |s|).  Elsewhere it may be wrong in every digit:
    at a = 1, s = -20.5 it reads 4.54e7 where g = -1.52e7, and at a = 1/10,
    s = -40.5 it reads 0.611 where g = 0.0078.
    """
    return complex(g_eval_integral_many(a, np.array([complex(s)]))[0])


# ---------------------------------------------------------------------------
# H_a(sigma) zero-location bound
# ---------------------------------------------------------------------------


def h_bound(a: Fraction | float, sigma: float) -> float:
    """H_a(sigma) with |g_a(s)=0  =>  |s| <= H_a(Re s).

    |omega'| uses the exact piecewise forms / DE table up to the table edge
    and the envelope 1/Gamma(t+1) beyond, which only enlarges the bound.
    """
    af = float(a)
    first = 1.0 / (af * (1.0 + af) ** sigma)
    # integrate |omega'(t)| (1+a t)^{-sigma} adaptively on [1, U]
    U = 12.0
    while U < 300.0:
        if (-sigma) * math.log1p(af * U) - math.lgamma(U + 1.0) < -40.0:
            break
        U += 4.0
    total = 0.0
    t = 1.0
    step = 0.25
    while t < U:
        hi = min(t + step, U)
        mid = 0.5 * (t + hi) + 0.5 * (hi - t) * _GLX16
        f = np.abs(buchstab_omega_prime(mid)) * np.exp(-sigma * np.log1p(af * mid))
        total += 0.5 * (hi - t) * float(f @ _GLW16)
        t = hi
    return first + total / af


# ---------------------------------------------------------------------------
# right-most real zero and residue constant
# ---------------------------------------------------------------------------


def find_lambda(a: Fraction | int) -> ZeroCertificate:
    """Locate lambda_a: sign scan of the exact polynomial values g_a(-n) a e^gamma,
    bisection inside the bracket, secant polish, residual check.

    Cached per Fraction(a), so find_lambda(1) and find_lambda(Fraction(1))
    share one entry.
    """
    return _find_lambda(Fraction(a))


# the residue contour's radius around -lambda_a
_CONTOUR_R = 0.4
# the relative agreement residue_C asks of its contour and derivative routes
_RESIDUE_RTOL = 1e-6
# the last bracket end -n the series route (K >= 1 - Re s, K <= _BMAX) can
# polish: every bisection, secant and contour sample has Re s >= -n - _CONTOUR_R
_SCAN_MAX = math.floor(_BMAX - 1 - _CONTOUR_R)


def _dps(a: Fraction) -> int:
    """The digits every high-precision sample of g_a at a starts at."""
    return max(40, int(20 + 1.4 / float(a)))


@lru_cache(maxsize=64)
def _find_lambda(a: Fraction) -> ZeroCertificate:
    if a <= 0:
        raise DomainError("a must be > 0")
    _check_h2_budget(a)
    n_cap = int(math.ceil((2.0 / float(a)) * (math.log(1.0 / float(a)) + 2.0))) + 10
    prev = g_eval_neg_int(a, 0)
    if prev <= 0:
        raise SearchFailureError(f"g_a(0) a e^gamma = {prev} is not positive for a={a}")
    n = 0
    cur = prev
    while True:
        n += 1
        if n > n_cap:
            raise SearchFailureError(f"no sign change of g_a(-n) up to n={n_cap} for a={a}")
        if n > _SCAN_MAX:
            raise DomainError(
                f"no sign change of g_a(-n) up to n={_SCAN_MAX} for a={a}: the series "
                f"route (K <= {_BMAX} terms) cannot certify a zero further left"
            )
        cur = g_eval_neg_int(a, n)
        if cur <= 0:
            break
        prev = cur

    if cur == 0:
        lam, bracket, residual = float(n), (n, n), 0.0
    else:
        # bisect on the float route; a sample below 50x its noise is re-evaluated
        # in high precision
        lo, hi = float(n - 1), float(n)
        flo = float(prev)
        for _ in range(34):
            mid = 0.5 * (lo + hi)
            fm = _g_exact_or_series(a, complex(-mid, 0.0), margin=50.0).real
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        # secant polish at full precision from the bracket ends; g_eval_series
        # keeps its values, so no point is evaluated twice in high precision

        def g_full(x: float) -> float:
            return _g_exact_or_series(a, complex(-x, 0.0)).real

        x0, x1 = lo, hi
        if x0 != x1:
            f0, f1 = g_full(x0), g_full(x1)
            for _ in range(4):
                if f1 == f0:
                    break
                x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
                if not (n - 1 <= x2 <= n):
                    break
                x0, f0 = x1, f1
                x1, f1 = x2, g_full(x2)
                if f1 == 0.0:
                    break
        lam, bracket = x1, (n - 1, n)
        g_lam = g_full(lam)
        residual = abs(g_lam) * float(a) * math.exp(EULER_GAMMA)
    return ZeroCertificate(
        a=a, lam=lam, C=residue_C(a, lam), bracket=bracket,
        bracket_signs=(prev, cur), residual=residual,
    )


find_lambda.cache_clear = _find_lambda.cache_clear
find_lambda.cache_info = _find_lambda.cache_info


def _complex_step_derivative(a: Fraction, x: float) -> tuple[float, float]:
    """(g_a'(x), noise) for real x: Im g_a(x + ih)/h on the float series
    route, Richardson-extrapolated over h in {1e-2, 5e-3}."""
    d, e = [], []
    for h in (1e-2, 5e-3):
        v, noise = _g_series_float(a, complex(x, h))
        d.append(v.imag / h)
        e.append(noise / h)
    return (4 * d[1] - d[0]) / 3, (4 * e[1] + e[0]) / 3


def residue_C(a: Fraction, lam: float) -> float:
    """C_a = 1/g_a'(-lambda_a), from a circular contour quadrature of 1/g_a,
    checked against the derivative; the two must agree to _RESIDUE_RTOL.

    The derivative is a complex step on the float series route: g_a is real
    on the real axis, so Im g_a(x + ih)/h = g_a'(x) - h^2 g_a'''(x)/6 + ...
    with no cancellation, and Richardson over h in {1e-2, 5e-3} removes the
    h^2 term.  Where it is not finite or its noise is above _RESIDUE_RTOL/100
    of it, the check falls back to Richardson central differences in high
    precision.  The high-precision samples of both routes run at _dps(a)
    digits, as find_lambda's do.
    """
    a = Fraction(a)
    deriv, err = _complex_step_derivative(a, -lam)
    if not (math.isfinite(deriv) and err <= _RESIDUE_RTOL / 100 * abs(deriv)):

        def gr(x: float) -> float:
            return _g_exact_or_series(a, complex(x, 0.0)).real

        h = 1e-5
        d1 = (gr(-lam + h) - gr(-lam - h)) / (2 * h)
        d2 = (gr(-lam + h / 2) - gr(-lam - h / 2)) / h
        deriv = (4 * d2 - d1) / 3
    c_diff = 1.0 / deriv

    r = _CONTOUR_R
    M = 16
    tot = 0j
    for j in range(M):
        th = 2 * math.pi * j / M
        sj = complex(-lam + r * math.cos(th), r * math.sin(th))
        gv = _g_exact_or_series(a, sj, margin=1e4)
        tot += complex(r * math.cos(th), r * math.sin(th)) / gv
    c_cont = (tot / M).real

    # written so that a NaN or an infinity on either route fails the check
    if not (math.isfinite(c_cont) and abs(c_diff - c_cont) <= _RESIDUE_RTOL * abs(c_cont)):
        raise NumericalConsistencyError(
            f"residue routes disagree for a={a}: diff={c_diff!r} contour={c_cont!r}"
        )
    return c_cont


# ---------------------------------------------------------------------------
# argument-principle rectangle counts
# ---------------------------------------------------------------------------


# a boundary sample of g_a below this modulus is taken as a zero on the contour
_MIN_MOD = 1e-9
# shrink-and-enlarge retries before a boundary zero is reported
_MAX_RETRIES = 3


def count_zeros_rect(
    a: Fraction | float,
    rect: tuple[float, float, float, float],
    n0: int = 48,
) -> int:
    """Number of zeros of g_a inside rect = (x0, x1, y0, y1), by the winding
    number of g_a around the boundary with adaptive phase tracking.

    If some boundary sample has |g| < _MIN_MOD, the rectangle is shrunk and
    enlarged by the same small margin and both are counted: the count stands
    only if they agree, since a zero on the boundary lies between them.
    Disagreement, or persistent failure, raises BoundaryZeroError.
    """
    x0, x1, y0, y1 = map(float, rect)
    if not (x0 < x1 and y0 < y1):
        raise DomainError("rect must satisfy x0 < x1, y0 < y1")
    for attempt in range(_MAX_RETRIES + 1):
        eps = 1e-3 * attempt * min(x1 - x0, y1 - y0)
        try:
            if attempt == 0:
                return _winding_count(a, x0, x1, y0, y1, n0)
            inner = _winding_count(a, x0 + eps, x1 - eps, y0 + eps, y1 - eps, n0)
            outer = _winding_count(a, x0 - eps, x1 + eps, y0 - eps, y1 + eps, n0)
        except BoundaryZeroError:
            if attempt == _MAX_RETRIES:
                raise
            continue
        if inner != outer:
            raise BoundaryZeroError(
                f"rect {rect} has a zero on its boundary: {inner} zeros inside "
                f"and {outer} when enlarged by {eps:g}"
            )
        return inner
    raise BoundaryZeroError("unreachable")


def _winding_count(a, x0, x1, y0, y1, n0) -> int:
    corners = [
        complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1), complex(x0, y0),
    ]
    pts: list[complex] = []
    for c0, c1 in zip(corners[:-1], corners[1:]):
        seg = int(max(n0 // 4, math.ceil(abs(c1 - c0) * 4)))
        for t in np.linspace(0.0, 1.0, seg, endpoint=False):
            pts.append(c0 + (c1 - c0) * t)
    pts.append(corners[0])
    vals = list(g_eval_integral_many(a, np.array(pts)))
    for v in vals:
        if abs(v) < _MIN_MOD:
            raise BoundaryZeroError("boundary sample too close to a zero")

    def refine(p0, p1, v0, v1, depth) -> float:
        d = cmath.phase(v1 / v0)
        if abs(d) < 0.5 * math.pi:
            return d
        if depth > 48:
            raise NumericalConsistencyError(
                f"phase step {d} between {p0} and {p1} unresolved after {depth} bisections"
            )
        pm = 0.5 * (p0 + p1)
        vm = g_eval_integral(a, pm)
        if abs(vm) < _MIN_MOD:
            raise BoundaryZeroError("refined boundary sample too close to a zero")
        return refine(p0, pm, v0, vm, depth + 1) + refine(pm, p1, vm, v1, depth + 1)

    total = 0.0
    for i in range(len(pts) - 1):
        total += refine(pts[i], pts[i + 1], vals[i], vals[i + 1], 0)
    turns = total / (2 * math.pi)
    k = int(round(turns))
    if abs(turns - k) > 0.2:
        raise NumericalConsistencyError(f"non-integral winding {turns} on {a}, rect")
    return k


def locate_zero_in_rect(
    a: Fraction | float,
    rect: tuple[float, float, float, float],
    resolution: float,
) -> complex:
    """Bisect a rectangle certified (by winding) to hold exactly one zero
    until both sides are below ``resolution``; returns the center.

    A split through the zero (the real axis for a real zero, say) makes
    count_zeros_rect raise BoundaryZeroError; the split then moves to 0.4,
    then 0.6, of the side."""
    x0, x1, y0, y1 = map(float, rect)
    if count_zeros_rect(a, (x0, x1, y0, y1)) != 1:
        raise DomainError("rectangle must contain exactly one zero")
    for _ in range(80):
        if (x1 - x0) <= resolution and (y1 - y0) <= resolution:
            break
        wide = (x1 - x0) >= (y1 - y0)
        lo, hi = (x0, x1) if wide else (y0, y1)
        for t in (0.5, 0.4, 0.6):
            m = lo + t * (hi - lo)
            try:
                below = count_zeros_rect(a, (x0, m, y0, y1) if wide else (x0, x1, y0, m), n0=24)
                break
            except BoundaryZeroError:
                if t == 0.6:
                    raise
        if wide:
            x0, x1 = (x0, m) if below == 1 else (m, x1)
        else:
            y0, y1 = (y0, m) if below == 1 else (m, y1)
    return complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))


# ---------------------------------------------------------------------------
# partial-a derivative identity and lambda asymptotics
# ---------------------------------------------------------------------------


def dgda_identity_check(a: Fraction | float, s: complex | float) -> float:
    """Residual of d/da g_a(s) - [ (s/a) g_a(s+1) - ((s+1)/a) g_a(s) ],
    with the a-derivative by central difference of step 1e-5 a."""
    af = float(a)
    delta = 1e-5 * af
    s = complex(s)

    def g_at(av: float, sv: complex) -> complex:
        return _g_exact_or_series(Fraction(av).limit_denominator(10**12), sv)

    dg = (g_at(af + delta, s) - g_at(af - delta, s)) / (2 * delta)
    rhs = (s / af) * g_at(af, s + 1) - ((s + 1) / af) * g_at(af, s)
    return abs(dg - rhs)


def lambda_asymptote_report(a_list) -> list[dict]:
    """Compare lambda_a against the two asymptotic regimes.

    For a >= 1 extracts r_a = a^2 lambda_a e^gamma - a - e^{-gamma} log(a+1)
    and whether it is within the bound 2/3 (r_a_ok); for a < 1 reports
    a*lambda_a - (log(1/a) - 1), which tends to 0 only slowly.  The caller
    judges both (`verify --suite paper`).
    """
    out = []
    for a in a_list:
        a = Fraction(a)
        cert = find_lambda(a)
        af = float(a)
        row = {"a": a, "lambda": cert.lam, "C": cert.C}
        if a >= 1:
            r_a = af**2 * cert.lam * math.exp(EULER_GAMMA) - af - EXP_NEG_GAMMA * math.log(af + 1)
            row["r_a"] = r_a
            row["r_a_ok"] = abs(r_a) <= 2.0 / 3.0
        else:
            row["small_a_gap"] = af * cert.lam - (math.log(1.0 / af) - 1.0)
        out.append(row)
    return out
