"""The generalized Dickman function rho_a on a uniform grid.

rho_a(u) = 1 for 0 <= u <= 1, and for u > 1 satisfies

    rho_a(u) = 1 - int_0^{(u-1)/(1+a)} rho_a(v) * omega((u-v)/(1+a v)) dv/(1+a v),

where omega is Buchstab's function.  The recurrence only consumes values
rho_a(v) with v <= u-1, so a left-to-right sweep over the grid is exact.
a = 0 reduces to Dickman's rho.

The sweep (build_rho_table) integrates by composite Simpson on fixed
panels.  It reads rho_a between grid points through one piecewise cubic,
kept as per-interval coefficients that are computed once from finished rows
(_cubic_coefficients) and evaluated by Horner's rule; the table's __call__
reads the same cubic.  For a = 0 and a step 1/2^k the unit panels of a row
sit on the grid, so they reduce to one dot of the grid values with
Simpson-weighted omega on the grid, and only the panels below v = 1 and
one fractional panel are evaluated node by node.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, ResourceLimitError
from .specfun import buchstab_omega

DEFAULT_STEP = Fraction(1, 128)
# Simpson nodes per numpy pass of build_rho_table: bounds the pass's
# temporaries to a few hundred kB whatever the block size
_PASS_NODES = 4096


@dataclass(frozen=True)
class RhoTable:
    """Values of rho_a on the uniform grid u_j = j*step, 0 <= u_j <= u_max."""

    a: Fraction
    step: Fraction
    us: np.ndarray
    values: np.ndarray
    accuracy: float  # estimated absolute error per grid point

    @property
    def u_max(self) -> float:
        return float(self.us[-1])

    def __call__(self, u) -> float | np.ndarray:
        """rho_a(u) by cubic interpolation of the grid (1 for u <= 1, 0 for u < 0)."""
        arr = np.asarray(u, dtype=float)
        if np.any(arr > self.u_max + 1e-12):
            raise DomainError(f"u beyond table range {self.u_max}")
        out = np.ones_like(arr)
        out[arr < 0.0] = 0.0
        m = arr > 1.0
        if np.any(m):
            out[m] = _interp_cubic(self.us, self.values, float(self.step), arr[m])
        if np.isscalar(u) or arr.ndim == 0:
            return float(out)
        return out

    def export_csv(self, dest, cert) -> None:
        """Write (u, rho, model, ratio) rows to a path or an open text stream;
        model/ratio need the certificate cert, and are empty where it is None."""
        if isinstance(dest, (str, os.PathLike)):
            with open(dest, "w", newline="") as fh:
                self.export_csv(fh, cert)
            return
        w = csv.writer(dest, lineterminator="\n")
        w.writerow(["u", "rho", "model", "ratio"])
        for u, r in zip(self.us, self.values):
            if cert is not None:
                model = rho_asymptotic(self.a, float(u), cert)
                w.writerow([f"{u:.8g}", f"{r:.12g}", f"{model:.12g}", f"{r / model:.8g}"])
            else:
                w.writerow([f"{u:.8g}", f"{r:.12g}", "", ""])


def _interp_cubic(us: np.ndarray, vals: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """The table's cubic at the points x of the grid us (u_j = j*h), as
    build_rho_table reads it: the coefficients of x's grid index, then Horner."""
    q = x / h
    j = q.astype(np.int64)
    c1, c2, c3 = _cubic_coefficients(vals, j, int(round(1.0 / h)))
    return _horner(q - j, vals[j], c1, c2, c3)


def _cubic_coefficients(vals: np.ndarray, j: np.ndarray, k1: int):
    """(c1, c2, c3) of the cubic that serves [u_j, u_{j+1}), in powers of
    s = x/h - j; its constant term is vals[j] itself.

    The cubic interpolates vals at the 4 points from j0 = j - 1, moved so that
    it never straddles the kink at u_k1 = 1 (all 4 points on one side) nor
    runs past the table's end.  Below the kink the points are all 1.0, so
    the coefficients are exactly 0.  They are the derivatives at u_j of the
    Newton form on the forward differences d1, d2, d3 from j0.
    """
    n = len(vals) - 1
    j0 = np.where(j < k1, np.minimum(j - 1, k1 - 3), np.maximum(j - 1, k1))
    j0 = np.clip(j0, 0, n - 3)
    f0, f1, f2, f3 = vals[j0], vals[j0 + 1], vals[j0 + 2], vals[j0 + 3]
    d1, e1, e2 = f1 - f0, f2 - f1, f3 - f2
    d2 = e1 - d1
    d3 = (e2 - e1) - d2
    o = j - j0  # u_j is point o of the stencil, 0 <= o <= 3
    c1 = d1 + (o - 0.5) * d2 + ((3 * o - 6) * o + 2) / 6 * d3
    c2 = (d2 + (o - 1) * d3) / 2
    return c1, c2, d3 / 6


def _horner(s, c0, c1, c2, c3):
    return c0 + s * (c1 + s * (c2 + s * c3))


def _grid(a, u_max: float, step) -> tuple[Fraction, Fraction, int]:
    """Checked (a, step, n) for the grid u_j = j*step, j = 0..n, covering u_max."""
    a = Fraction(a).limit_denominator(10**12) if isinstance(a, float) else Fraction(a)
    if a < 0:
        raise DomainError("a must be >= 0")
    step = Fraction(step)
    if not 0 < step <= Fraction(1, 128):
        raise DomainError("step must be in (0, 1/128]")
    if not u_max > 0:
        raise DomainError("u_max must be > 0")
    if u_max > 500:
        raise ResourceLimitError("u_max beyond configured budget (500)")
    return a, step, int(math.ceil(u_max / float(step) - 1e-9))


def build_rho_table(
    a: Fraction | int | float,
    u_max: float,
    step: Fraction | float = DEFAULT_STEP,
) -> RhoTable:
    """Tabulate rho_a on [0, u_max] with the given grid step.

    Composite Simpson in v, with the integration range split at every point
    where the integrand loses smoothness: v = 1 (kink of rho_a) and the
    points where omega's argument crosses an integer.  Estimated absolute
    error is ~1e-8 per point for u <= 50 at the default step.

    Row u reads rho_a only at v <= (u-1)/(1+a), through a 4-point stencil
    reaching at most three steps past v, so floor(1/h) - 3 consecutive rows
    depend on earlier rows alone: each such block is evaluated in a few
    numpy passes of whole rows, about _PASS_NODES Simpson nodes per pass.
    Before a block, the cubic coefficients of every grid interval whose
    stencil is final are computed once (_cubic_coefficients), so reading
    rho_a at a node is a Horner step on its interval's coefficients.

    For a = 0 and a step 1/2^k, every unit panel [u-m-1, u-m] >= 1 has
    its nodes on the grid and omega's argument at grid multiples d*h, all
    exact in binary: a row's chain of M unit panels is one dot of
    rho_0(u - d*h) with c(d) * omega(d*h), c = 4 at odd d and 2 at even d
    (1 at the chain's two ends), d = 1/h .. (M+1)/h.  omega is evaluated
    once on the grid; only the panels below v = 1 and the one fractional
    panel above it go through the node passes.  The panels, nodes and
    weights are those of the node passes; only the order of the additions
    differs.
    """
    a, step, n = _grid(a, u_max, step)
    af = float(a)
    h = float(step)
    us = h * np.arange(n + 1)
    vals = np.ones(n + 1)
    k1 = int(round(1.0 / h))
    coef = np.zeros((3, n + 1))
    ready = 0  # coef holds the final coefficients of the intervals below it

    unit_dot = a == 0 and step.numerator == 1 and step.denominator & (step.denominator - 1) == 0
    if unit_dot:
        om = buchstab_omega(us[k1:])  # omega(d h), d = k1..n

    block = math.floor(1 / step) - 3
    first = int(np.searchsorted(us, 1.0 + 1e-15, side="right"))
    for r0 in range(first, n + 1, block):
        # intervals j <= r0 - 3 have stencils in rows < r0, all final; the
        # block reads none beyond
        coef[:, ready : r0 - 2] = _cubic_coefficients(vals, np.arange(ready, r0 - 2), k1)
        ready = r0 - 2
        u = us[r0 : r0 + block]
        row, lo, hi, nsub = _panels(u, af, h)
        if unit_dot:
            unit = (lo >= 1.0) & (hi - lo == 1.0)
            integral = _chain_integrals(r0, np.bincount(row[unit], minlength=len(u)), vals, om, k1, h)
            row, lo, hi, nsub = row[~unit], lo[~unit], hi[~unit], nsub[~unit]
        else:
            integral = np.zeros(len(u))
        # cut the block into passes of whole rows at every _PASS_NODES nodes
        row_nodes = np.bincount(row, weights=nsub + 1, minlength=len(u))
        before = np.cumsum(row_nodes) - row_nodes
        cuts = np.flatnonzero(np.diff(before // _PASS_NODES)) + 1
        bounds = [0, *cuts.tolist(), len(u)]
        for ra, rb in zip(bounds[:-1], bounds[1:]):
            pa, pb = np.searchsorted(row, [ra, rb])
            integral[ra:rb] += _row_integrals(
                u[ra:rb], row[pa:pb] - ra, lo[pa:pb], hi[pa:pb], nsub[pa:pb], vals, coef, h, af
            )
        vals[r0 : r0 + block] = 1.0 - integral

    us.setflags(write=False)
    vals.setflags(write=False)
    return RhoTable(a=a, step=step, us=us, values=vals, accuracy=1e-8)


def _chain_integrals(r0: int, chain: np.ndarray, vals, om, k1: int, h: float) -> np.ndarray:
    """Simpson integral of rho_0 row r0 + i over its chain of chain[i] unit
    panels, whose nodes are the grid points r0 + i - d, k1 <= d <= (chain[i]+1)*k1:
    one dot of vals with c(d) * omega(d h) per row (om[d - k1] = omega(d h))."""
    out = np.zeros(len(chain))
    for m in sorted(set(chain.tolist()) - {0}):  # np.unique would import numpy.ma
        top = k1 * (m + 1)
        g = om[top - k1 :: -1] * np.where(np.arange(top, k1 - 1, -1) & 1, 4.0, 2.0)
        g[[0, -1]] /= 2.0  # the chain's two end nodes weigh 1
        for i in np.flatnonzero(chain == m).tolist():
            r = r0 + i
            out[i] = h / 3.0 * (vals[r - top : r - k1 + 1] @ g)
    return out


def _panels(u: np.ndarray, af: float, h: float):
    """Simpson panels of the rows u (all > 1), as (row, lo, hi, nsub) per panel,
    rows in order and each row's panels in increasing v.

    Row u integrates over [0, V], V = (u-1)/(1+a), split at v = 1 and at the
    v where omega's argument (u-v)/(1+a v) crosses an integer m < u; each
    panel gets an even nsub >= 4 with a step of at most h.
    """
    V = (u - 1.0) / (1.0 + af)
    ms = np.arange(2.0, math.ceil(u[-1]))
    vm = (u[:, None] - ms) / (1.0 + af * ms)
    inside = (ms < u[:, None]) & (vm > 0.0) & (vm < V[:, None])
    pts = np.column_stack([
        np.zeros_like(u), V, np.where(V > 1.0, 1.0, np.nan), np.where(inside, vm, np.nan)
    ])
    pts.sort(axis=1)  # nan (no breakpoint) sorts last; equal points give empty panels
    lo, hi = pts[:, :-1], pts[:, 1:]
    keep = hi - lo >= 1e-14
    row = np.nonzero(keep)[0]
    lo, hi = lo[keep], hi[keep]
    nsub = np.maximum(4, np.ceil((hi - lo) / h).astype(np.int64))
    nsub += nsub % 2
    return row, lo, hi, nsub


def _row_integrals(u, row, lo, hi, nsub, vals, coef, h, af) -> np.ndarray:
    """Composite-Simpson integral of each row u over its panels, in one pass.

    Node k of a panel is lo + k*(hi-lo)/nsub with the last set to hi (as
    np.linspace places them); the weights are 1, 4, 2, ..., 4, 1.  rho_a at
    a node v is the cubic of its grid interval j = floor(v/h), read from
    vals[j] and coef[:, j]; below the kink that is exactly 1.
    """
    counts = nsub + 1
    end = np.cumsum(counts)
    start = end - counts
    k = np.arange(end[-1]) - np.repeat(start, counts)
    v = k * np.repeat((hi - lo) / nsub, counts) + np.repeat(lo, counts)
    v[end - 1] = hi
    denom = 1.0 + af * v
    arg = np.maximum((np.repeat(u[row], counts) - v) / denom, 1.0)
    q = v / h
    j = q.astype(np.int64)
    c1, c2, c3 = coef
    rv = _horner(q - j, vals[j], c1[j], c2[j], c3[j])
    f = rv * buchstab_omega(arg) / denom
    w = np.where(k & 1, 4.0, 2.0)
    w[start] = 1.0
    w[end - 1] = 1.0
    panel = (hi - lo) / nsub / 3.0 * np.add.reduceat(w * f, start)
    return np.bincount(row, weights=panel, minlength=len(u))


# (a, step, n) keys cached_rho_table keeps; the least recently used goes first
_CACHE_KEYS = 8


@lru_cache(maxsize=_CACHE_KEYS)
def _cached_build(a: Fraction, step: Fraction, n: int) -> RhoTable:
    return build_rho_table(a, n * step, step)


def cached_rho_table(a, u_max: float) -> RhoTable:
    """build_rho_table(a, u_max), process-wide cached by the grid (a, DEFAULT_STEP, n)
    it covers, at most _CACHE_KEYS grids.  Arguments are checked before the lookup."""
    return _cached_build(*_grid(a, u_max, DEFAULT_STEP))


cached_rho_table.cache_info = _cached_build.cache_info


def rho_closed_form_12(a: Fraction | float, u: float) -> float:
    """Closed form on 1 <= u <= 2: rho_a(u) = 1 + log((1+a u)/(u (1+a)))."""
    if not 1.0 <= u <= 2.0:
        raise DomainError("closed form valid on [1, 2] only")
    af = float(a)
    return 1.0 + math.log((1.0 + af * u) / (u * (1.0 + af)))


def rho_asymptotic(a: Fraction | float, u: float, cert) -> float:
    """Model value C_a / (1 + a u)^{lambda_a} from a zero certificate."""
    if Fraction(cert.a) != Fraction(a):
        raise DomainError(f"certificate is for a={cert.a}, not a={a}")
    return cert.C / (1.0 + float(a) * u) ** cert.lam
