"""The generalized Dickman function rho_a on a uniform grid.

rho_a(u) = 1 for 0 <= u <= 1, and for u > 1 satisfies

    rho_a(u) = 1 - int_0^{(u-1)/(1+a)} rho_a(v) * omega((u-v)/(1+a v)) dv/(1+a v),

where omega is Buchstab's function.  The recurrence only consumes values
rho_a(v) with v <= u-1, so a left-to-right sweep over the grid is exact.
a = 0 reduces to Dickman's rho.
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
DEFAULT_U_MAX = 60
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

    def export_csv(self, dest, cert=None) -> None:
        """Write (u, rho, model, ratio) rows to a path or an open text stream;
        model/ratio need a certificate."""
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
    # 4-point Lagrange; stencils never straddle the kink at u=1
    j = (x / h).astype(np.int64)
    k1 = int(round(1.0 / h))
    j0 = np.maximum(j - 1, np.where(j >= k1, k1, 0))
    j0 = np.minimum(j0, len(us) - 4)
    t = (x - us[j0]) / h
    f0, f1, f2, f3 = vals[j0], vals[j0 + 1], vals[j0 + 2], vals[j0 + 3]
    L0 = -(t - 1) * (t - 2) * (t - 3) / 6
    L1 = t * (t - 2) * (t - 3) / 2
    L2 = -t * (t - 1) * (t - 3) / 2
    L3 = t * (t - 1) * (t - 2) / 6
    return L0 * f0 + L1 * f1 + L2 * f2 + L3 * f3


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
    u_max: float = DEFAULT_U_MAX,
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
    """
    a, step, n = _grid(a, u_max, step)
    af = float(a)
    h = float(step)
    us = h * np.arange(n + 1)
    vals = np.ones(n + 1)

    block = math.floor(1 / step) - 3
    first = int(np.searchsorted(us, 1.0 + 1e-15, side="right"))
    for r0 in range(first, n + 1, block):
        u = us[r0 : r0 + block]
        row, lo, hi, nsub = _panels(u, af, h)
        # cut the block into passes of whole rows at every _PASS_NODES nodes
        row_nodes = np.bincount(row, weights=nsub + 1, minlength=len(u))
        before = np.cumsum(row_nodes) - row_nodes
        cuts = np.flatnonzero(np.diff(before // _PASS_NODES)) + 1
        bounds = [0, *cuts.tolist(), len(u)]
        for ra, rb in zip(bounds[:-1], bounds[1:]):
            pa, pb = np.searchsorted(row, [ra, rb])
            vals[r0 + ra : r0 + rb] = 1.0 - _row_integrals(
                u[ra:rb], row[pa:pb] - ra, lo[pa:pb], hi[pa:pb], nsub[pa:pb], us, vals, h, af
            )

    us.setflags(write=False)
    vals.setflags(write=False)
    return RhoTable(a=a, step=step, us=us, values=vals, accuracy=1e-8)


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


def _row_integrals(u, row, lo, hi, nsub, us, vals, h, af) -> np.ndarray:
    """Composite-Simpson integral of each row u over its panels, in one pass.

    Node k of a panel is lo + k*(hi-lo)/nsub with the last set to hi (as
    np.linspace places them); the weights are 1, 4, 2, ..., 4, 1.
    """
    counts = nsub + 1
    end = np.cumsum(counts)
    start = end - counts
    k = np.arange(end[-1]) - np.repeat(start, counts)
    v = k * np.repeat((hi - lo) / nsub, counts) + np.repeat(lo, counts)
    v[end - 1] = hi
    denom = 1.0 + af * v
    arg = np.maximum((np.repeat(u[row], counts) - v) / denom, 1.0)
    rv = np.ones_like(v)
    inner = v > 1.0
    rv[inner] = _interp_cubic(us, vals, h, v[inner])
    f = rv * buchstab_omega(arg) / denom
    w = np.where(k % 2 == 1, 4.0, 2.0)
    w[start] = 1.0
    w[end - 1] = 1.0
    panel = (hi - lo) / nsub / 3.0 * np.add.reduceat(w * f, start)
    return np.bincount(row, weights=panel, minlength=len(u))


# (a, step, n) keys cached_rho_table keeps; the least recently used goes first
_CACHE_KEYS = 8


@lru_cache(maxsize=_CACHE_KEYS)
def _cached_build(a: Fraction, step: Fraction, n: int) -> RhoTable:
    return build_rho_table(a, n * step, step)


def cached_rho_table(a, u_max: float = 30.0, step=DEFAULT_STEP) -> RhoTable:
    """build_rho_table(a, u_max, step), process-wide cached by the grid (a, step, n)
    it covers, at most _CACHE_KEYS grids.  Arguments are checked before the lookup."""
    return _cached_build(*_grid(a, u_max, step))


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
