"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 resource limit, 4 verification failure.
All output is deterministic: identical configuration gives identical bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction

import click
import numpy as np

from . import families, gzero, reference, rho
from ._constants import EULER_GAMMA
from .errors import DenseDivError, DomainError, ResourceLimitError
from .families import FamilySpec
from .integers import primes_upto

EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


class RationalParam(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise click.BadParameter(f"not a rational: {value}") from exc


RATIONAL = RationalParam()

_FAMILY_CHOICES = ["smooth", "dense", "strongdense", "thetalower", "thetaupper", "bpower", "bstar"]


def _make_spec(family: str, y: Fraction, i: int | None, a: Fraction | None, squarefree: bool) -> FamilySpec:
    kwargs = {"squarefree": squarefree}
    if family in ("dense", "strongdense", "thetalower", "thetaupper"):
        if i is None:
            raise click.UsageError(f"--i is required for family {family}")
        kwargs["i"] = i
    if family in ("bpower", "bstar"):
        if a is None:
            raise click.UsageError(f"--a is required for family {family}")
        kwargs["a"] = a
    return _guard(FamilySpec, family, y, **kwargs)


def _emit(fmt: str, header: list[str], rows: list[list]):
    if fmt == "csv":
        click.echo(",".join(header))
        for r in rows:
            click.echo(",".join(str(c) for c in r))
    elif fmt == "json":
        click.echo(json.dumps({"schema": 1, "columns": header, "rows": rows}, default=str))
    else:
        for r in rows:
            click.echo(" ".join(str(c) for c in r))


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except ResourceLimitError as exc:
        click.echo(f"resource limit: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)
    except DenseDivError as exc:  # routes that disagree, a search or a contour that fails
        click.echo(f"verification failure: {exc}", err=True)
        sys.exit(EXIT_VERIFY)


@click.group()
def main():
    """Densely divisible integer families and their counting asymptotics."""


_family_opts = [
    click.option("--family", type=click.Choice(_FAMILY_CHOICES), required=True),
    click.option("--y", "y_", type=RATIONAL, required=True, help="rational, e.g. 2 or 5/2 or 2.5"),
    click.option("--i", "i_", type=int, default=None),
    click.option("--a", "a_", type=RATIONAL, default=None),
    click.option("--squarefree", is_flag=True, default=False),
]


def _with_family_opts(fn):
    for opt in reversed(_family_opts):
        fn = opt(fn)
    return fn


@main.command()
@_with_family_opts
@click.option("--n", type=int, required=True)
def member(family, y_, i_, a_, squarefree, n):
    """Is n a member of the family?"""
    spec = _make_spec(family, y_, i_, a_, squarefree)
    ok = _guard(families.is_member, n, spec)
    click.echo("true" if ok else "false")


# the members enumerate formats per write
_SLICE = 1 << 12


@main.command("enumerate")
@_with_family_opts
@click.option("--x", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["plain", "csv", "json"]), default="plain")
def enumerate_cmd(family, y_, i_, a_, squarefree, x, fmt):
    """List all members up to x."""
    spec = _make_spec(family, y_, i_, a_, squarefree)
    members = _guard(families.enumerate_members, spec, x)  # never empty: 1 is a member
    # _emit's bytes, written a slice of members at a time, so that no string
    # or row list the size of the output is held beside the member list
    head, sep, tail = {"plain": ("", " ", "\n"), "csv": ("n\n", "\n", "\n"),
                       "json": ('{"schema": 1, "columns": ["n"], "rows": [[', "], [", "]]}\n")}[fmt]
    click.echo(head, nl=False)
    for k in range(0, len(members), _SLICE):
        click.echo(sep * (k > 0) + sep.join(map(str, members[k : k + _SLICE])), nl=False)
    click.echo(tail, nl=False)


@main.command()
@_with_family_opts
@click.option("--x", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["plain", "csv", "json"]), default="plain")
def count(family, y_, i_, a_, squarefree, x, fmt):
    """Count members up to x, with the x*rho_a(u) model when available."""
    spec = _make_spec(family, y_, i_, a_, squarefree)
    rep = _guard(families.count_family, spec, x)
    if fmt == "plain":
        click.echo(rep.count)
    else:
        model = f"{rep.model:.6f}" if rep.model else ""
        ratio = f"{rep.ratio:.6f}" if rep.ratio else ""
        _emit(fmt, ["x", "count", "u", "model", "ratio"],
              [[rep.x, rep.count, f"{rep.u:.6f}", model, ratio]])


@main.command()
@click.option("--which", type=click.Choice(["lambda", "constants"]), required=True)
@click.option("--i-max", type=int, default=10)
@click.option("--format", "fmt", type=click.Choice(["plain", "csv", "json"]), default="plain")
def table(which, i_max, fmt):
    """Reproduce the exponent (lambda) or constant (C) table for a = 1/i."""
    if not 1 <= i_max <= 25:
        raise click.UsageError("--i-max must be in 1..25")
    rows = []
    for i in range(1, i_max + 1):
        cert = _guard(gzero.find_lambda, Fraction(1, i))
        if which == "lambda":
            ref = reference.LAMBDA_TABLE.get(i, "")
            val = cert.lam
        else:
            ref = reference.C_TABLE.get(i, "")
            val = cert.C
        delta = f"{val - float(ref):+.2e}" if ref else ""
        rows.append([i, f"{val:.7f}", ref, delta])
    _emit(fmt, ["i", "computed", "reference", "delta"], rows)


@main.command()
@click.option("--a", "a_", type=RATIONAL, required=True)
def certificate(a_):
    """JSON zero certificate (lambda_a, C_a, bracket, residual)."""
    cert = _guard(gzero.find_lambda, a_)
    click.echo(cert.to_json())


@main.command("rho-table")
@click.option("--a", "a_", type=RATIONAL, required=True)
@click.option("--u-max", type=float, default=30.0)
@click.option("--step", type=RATIONAL, default=rho.DEFAULT_STEP)
@click.option("--out", type=click.Path(), default="-")
def rho_table(a_, u_max, step, out):
    """Tabulate rho_a and export CSV (u, rho, model, ratio)."""
    table_ = _guard(rho.build_rho_table, a_, u_max=u_max, step=step)
    cert = _guard(gzero.find_lambda, a_) if a_ > 0 else None
    table_.export_csv(sys.stdout if out == "-" else out, cert)


@main.command("question-scan")
@click.option("--i", "i_", type=int, required=True)
@click.option("--y", "y_", type=RATIONAL, required=True)
@click.option("--m-max", type=int, default=2000)
@click.option("--p-max", type=int, default=200)
def question_scan(i_, y_, m_max, p_max):
    """Exploratory search for evidence against a chain description of the
    strongly densely divisible family: looks for m and primes p2 < p1 (both
    >= the largest prime of m) with m*p1 a member but m*p2 not.  Reads one
    StrongDense(i) mask over n <= m_max*p_max, so exits 3 past its budget."""
    spec = _guard(FamilySpec, "strongdense", y_, i=i_)
    level = _guard(families.member_mask, spec, max(1, max(m_max, 0) * p_max))
    primes = primes_upto(p_max) if m_max > 0 else []  # no m, no prime to list
    block = 1 << 16  # the m read at once, so the arrays beside the level stay small
    findings = []
    for lo in range(1, m_max + 1, block):
        m = np.arange(lo, min(lo + block, m_max + 1))
        # m with its primes up to p divided out: 1 where p >= P^+(m)
        rest, p_out, p_in = m.copy(), np.zeros_like(m), np.zeros_like(m)
        for p in primes:  # each m: its first p out of the level, then the first p back in
            while (hit := rest % p == 0).any():
                rest[hit] //= p
            live, flag = rest == 1, level[m * p]
            p_in[live & flag & (p_out > 0) & (p_in == 0)] = p
            p_out[live & ~flag & (p_out == 0)] = p
        found = p_in > 0
        findings += [{"m": a, "p_out": b, "p_in": c}
                     for a, b, c in zip(m[found].tolist(), p_out[found].tolist(), p_in[found].tolist())]
    click.echo(json.dumps({"schema": 1, "i": i_, "y": str(y_), "m_max": m_max,
                           "p_max": p_max, "counterexamples": findings}))


@main.command("ratio-scan")
@_with_family_opts
@click.option("--x-list", required=True, help="comma-separated x values")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "plain"]), default="csv")
def ratio_scan(family, y_, i_, a_, squarefree, x_list, fmt):
    """CSV of (x, count, x*rho_a(u) model, ratio); squarefree divides by zeta(2)."""
    spec = _make_spec(family, y_, i_, a_, squarefree)
    xs = [int(float(t)) for t in x_list.split(",")]
    if xs != sorted(xs):
        raise click.UsageError("--x-list must be increasing")
    rows = []
    for x in xs:
        rep = _guard(families.count_family, spec, x)
        rows.append([x, rep.count, f"{rep.model:.4f}" if rep.model else "",
                     f"{rep.ratio:.6f}" if rep.ratio else ""])
    _emit(fmt, ["x", "count", "model", "ratio"], rows)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _sandwich_links(t: dict, imax: int) -> tuple[int, bool, bool]:
    """The (i, n), n >= 1, where a sandwich link fails; whether each Dense and
    StrongDense level nests in the one below; whether Dense == StrongDense for
    i <= 2.  Reads views of the tables, and drops them on return."""
    sm = t["smooth"][1:]
    tl, tu, de, st = ([b[1:] for b in t[kind]]
                      for kind in ("thetalower", "thetaupper", "dense", "strongdense"))
    bad, nest, eq12 = 0, True, True
    for i in range(1, imax + 1):
        # an (i, n) counts once however many links fail at it
        fails = (sm > tl[i]) | (tl[i] > st[i]) | (st[i] > de[i]) | (de[i] > tu[i])
        bad += int(np.count_nonzero(fails))
        nest &= not ((de[i] > de[i - 1]).any() or (st[i] > st[i - 1]).any())
        eq12 &= i > 2 or np.array_equal(de[i], st[i])
    return bad, nest, eq12


def _suite_sandwich(nmax: int) -> list[dict]:
    results = []
    imax = 4
    for y in (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(10)):
        # one y's tables at a time: they are freed before the next are built
        bad, nest, eq12 = _sandwich_links(families.membership_tables(nmax, y, imax), imax)
        results.append({"name": f"sandwich chain y={y}", "passed": bad == 0,
                        "detail": f"violations={bad} over n<={nmax}, i<={imax}"})
        results.append({"name": f"nesting y={y}", "passed": nest, "detail": ""})
        results.append({"name": f"dense==strong for i<=2, y={y}", "passed": eq12, "detail": ""})
    return results


def _suite_identities(xmax: int) -> list[dict]:
    results = []
    for y, a in ((2, 1), (3, 1), (3, Fraction(1, 2))):
        for sf in (False, True):
            s = FamilySpec("bpower", Fraction(y), a=Fraction(a), squarefree=sf)
            ok = families.check_phi_identity_range(xmax, s)
            results.append({
                "name": f"phi identity theta=y*n^{s.a} y={s.y} sf={sf}",
                "passed": ok, "detail": f"all x<={xmax}",
            })
    for beta in (Fraction(1), Fraction(2)):
        for y in (Fraction(2), Fraction(3)):
            ok = families.check_ssf_identity_range(xmax, y, beta)
            results.append({"name": f"ssf identity beta={beta} y={y}", "passed": ok,
                            "detail": f"x={xmax}"})
    # Dense(2) by its definition (the bulk tables) against the theta_2 chain tree
    for y in (Fraction(2), Fraction(3)):
        table = families.membership_tables(xmax, y, 2)["dense"][2]  # n = 0 is out of both
        bad = int(np.count_nonzero(table != families.member_mask(FamilySpec("dense", y, i=2), xmax)))
        results.append({"name": f"theta2 characterization y={y}", "passed": bad == 0,
                        "detail": f"violations={bad}"})
    return results


def _suite_rho() -> list[dict]:
    results = []
    for a in (Fraction(0), Fraction(1, 2), Fraction(1)):
        t = rho.cached_rho_table(a, u_max=4.0)
        errs = [
            abs(float(t(u)) - rho.rho_closed_form_12(a, u))
            for u in [1.0 + k / 64 for k in range(65)]
        ]
        results.append({"name": f"rho closed form [1,2] a={a}", "passed": max(errs) < 1e-7,
                        "detail": f"max err={max(errs):.2e}"})
    t1 = rho.cached_rho_table(Fraction(1), u_max=30.0)
    c1 = 1.0 / (1.0 - math.exp(-EULER_GAMMA))
    v = float(t1(20.0)) * 21.0
    results.append({"name": "rho_1(20)*(21) near C_1", "passed": abs(v / c1 - 1) < 0.005,
                    "detail": f"{v:.5f} vs {c1:.5f}"})
    t0 = rho.cached_rho_table(Fraction(0), u_max=30.0)
    mono = bool((t1.values[1:] <= t1.values[:-1] + 1e-12).all())
    sandw = bool(((t0.values <= t1.values + 1e-9) & (t1.values <= 1.0 + 1e-12)).all())
    results.append({"name": "rho_1 monotone and sandwiched", "passed": mono and sandw, "detail": ""})
    return results


def _suite_zeros() -> list[dict]:
    results = []
    for i in (1, 2, 3):
        cert = gzero.find_lambda(Fraction(1, i))
        ok = reference.truncate_matches(cert.lam, reference.LAMBDA_TABLE[i]) and cert.residual < 1e-9
        results.append({"name": f"lambda_1/{i}", "passed": ok,
                        "detail": f"{cert.lam:.7f} residual={cert.residual:.1e}"})
    z = gzero.locate_zero_in_rect(1, (-3.6, -2.5, 10.8, 11.9), resolution=0.01)
    d = abs(z - complex(*reference.COMPLEX_POLE[1]))
    results.append({"name": "complex zero a=1", "passed": d < 0.05,
                    "detail": f"at {z:.4f}, dist {d:.4f}"})
    n0 = gzero.count_zeros_rect(1, (-3.02, -0.99, 0.1, 11.3))
    results.append({"name": "zero-free strip a=1", "passed": n0 == 0, "detail": f"count={n0}"})
    return results


def _suite_saddle() -> list[dict]:
    from .specfun import k_oscillatory, k_zeros

    results = []
    zs = k_zeros(4)
    for k, (val, ref) in enumerate(zip(zs, reference.K_ZEROS)):
        ok = reference.truncate_matches(val, ref)
        if k == 0:
            ok = ok and abs(val - float(ref)) < 1e-5
        results.append({"name": f"K zero nu_{k}", "passed": ok, "detail": f"{val:.7f}"})
    v0 = zs[0]
    quad_ok = abs(k_oscillatory(v0)) < 1e-3
    results.append({"name": "nu_0 confirmed by quadrature", "passed": quad_ok,
                    "detail": f"|K(nu_0)|={abs(k_oscillatory(v0)):.1e}"})
    return results


def _suite_paper() -> list[dict]:
    """The statements behind the order of magnitude of Dense(i), each at a size
    fixed here, with its residual against its bound."""
    results = []
    # n = d_v d_w with R/y <= d_w <= R, d_w in level w and d_v in level v of ThetaLower
    y, bad, tried = Fraction(2), 0, 0
    for i in (1, 2, 3):
        for n in families.enumerate_members(FamilySpec("thetalower", y, i=i), 1000):
            for v, k in itertools.product(range(i), range(1, 7)):
                tried += 1
                R = max(Fraction(k * n, 3), 1)  # 1 <= R <= y n
                bad += not families.check_factorization_lemma(n, i, y, R, v, i - 1 - v)
    results.append({"name": "factorization lemma y=2 i<=3", "passed": bad == 0,
                    "detail": f"failures={bad} (bound 0) over {tried} (n, v, R), n<=1000"})
    # the density sum over the members of a chain family rises to 1
    spec = FamilySpec("bpower", y, a=Fraction(1))
    gaps = [1 - families.check_partial_density_sum(spec, 10**e) for e in (3, 4, 5)]
    results.append({"name": "partial density sum theta=y*n y=2", "passed": 0 < gaps[2] < gaps[1] < gaps[0],
                    "detail": f"1-S(N)={', '.join(f'{g:.4f}' for g in gaps)} at N=1e3,1e4,1e5 "
                              "(bound: positive and falling)"})
    for a, s in ((Fraction(1), 1.0), (Fraction(1, 2), complex(-2, 3))):
        res = gzero.dgda_identity_check(a, s)
        results.append({"name": f"dg/da identity a={a} s={s}", "passed": res < 1e-6,
                        "detail": f"residual={res:.1e} (bound 1e-06)"})
    for row in gzero.lambda_asymptote_report([1, 2]):
        results.append({"name": f"lambda_a regime a={row['a']}", "passed": row["r_a_ok"],
                        "detail": f"r_a={row['r_a']:.4f} (bound |r_a|<=2/3)"})
    rows = gzero.lambda_asymptote_report([Fraction(1, i) for i in (5, 10, 20)])
    gaps = [row["small_a_gap"] for row in rows]
    results.append({"name": "lambda_a regime a=1/5,1/10,1/20", "passed": 0 < gaps[2] < gaps[1] < gaps[0],
                    "detail": f"a*lambda_a-log(1/a)+1={', '.join(f'{g:.4f}' for g in gaps)} "
                              "(bound: positive and falling)"})
    # every zero s of g_1 has |s| <= H_1(Re s), and H_1 falls with Re s: a count of 1
    # in [-lambda_1 - 0.01, 0] x [-H, H] leaves no zero right of -lambda_1 but it
    sigma = -gzero.find_lambda(1).lam - 0.01
    H = gzero.h_bound(1, sigma)
    n0 = gzero.count_zeros_rect(1, (sigma, 0.0, -H, H))
    results.append({"name": "zero bound H_1: right-most zero", "passed": n0 == 1,
                    "detail": f"zeros={n0} (bound 1) in [{sigma:.2f}, 0] x [-H, H], H={H:.4f}"})
    z = gzero.locate_zero_in_rect(1, (-3.6, -2.5, 10.8, 11.9), resolution=0.01)
    Hz = gzero.h_bound(1, z.real)
    results.append({"name": "zero bound H_1: complex zero", "passed": abs(z) <= Hz,
                    "detail": f"|s|={abs(z):.4f} at {z:.4f} (bound H_1(Re s)={Hz:.4f})"})
    return results


@main.command()
@click.option("--suite", required=True,
              type=click.Choice(["sandwich", "identities", "rho", "zeros", "saddle", "paper", "all"]))
@click.option("--nmax", type=int, default=100_000)
@click.option("--xmax", type=int, default=10_000)
def verify(suite, nmax, xmax):
    """Run a verification suite; exit code 4 on any failure."""
    runners = {
        "sandwich": lambda: _suite_sandwich(nmax),
        "identities": lambda: _suite_identities(xmax),
        "rho": _suite_rho,
        "zeros": _suite_zeros,
        "saddle": _suite_saddle,
        "paper": _suite_paper,
    }
    names = list(runners) if suite == "all" else [suite]
    results = []
    for nm in names:
        results.extend(_guard(runners[nm]))
    report = {
        "schema": 1,
        "suite": suite,
        "results": results,
        "passed": all(r["passed"] for r in results),
        "counts": {"total": len(results), "failed": sum(not r["passed"] for r in results)},
    }
    click.echo(json.dumps(report, indent=2, default=str))
    if not report["passed"]:
        sys.exit(EXIT_VERIFY)


if __name__ == "__main__":
    main()
