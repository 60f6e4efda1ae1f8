"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import time
from fractions import Fraction

import numpy as np

from densediv._constants import EULER_GAMMA, EXP_NEG_GAMMA
from densediv.families import (
    FamilySpec,
    check_phi_identity_range,
    check_ssf_identity_range,
    count_members,
    enumerate_members,
    is_member,
)
from densediv.gzero import (
    count_zeros_rect,
    dgda_identity_check,
    find_lambda,
    g_eval_integral,
    g_eval_neg_int,
    g_eval_series,
    locate_zero_in_rect,
)
from densediv.reference import C_TABLE, LAMBDA_TABLE, truncate_matches
from densediv.rho import cached_rho_table, rho_closed_form_12
from densediv.specfun import k_oscillatory, k_zeros

from _shared import check_theta2, tables_at, within_one_ulp


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {state}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_lambda_table():
    find_lambda.cache_clear()
    t0 = time.time()
    mismatches = []
    for i in range(1, 21):
        lam = find_lambda(Fraction(1, i)).lam
        if not truncate_matches(lam, LAMBDA_TABLE[i]):
            mismatches.append((i, lam))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 120.0
    _report(1, "exponent table i=1..20 (truncated digits)", ok,
            f"elapsed {elapsed:.1f}s, mismatches={mismatches}")


def test_criterion_2_constants_table():
    c1_exact = 1.0 / (1.0 - EXP_NEG_GAMMA)
    bad = []
    for i in range(1, 11):
        C = find_lambda(Fraction(1, i)).C
        if not within_one_ulp(C, C_TABLE[i]):
            bad.append((i, C))
    c1 = find_lambda(Fraction(1)).C
    ok_c1 = abs(c1 - c1_exact) < 1e-4
    # lambda_1 = 1 exactly at the rational level: g_1(-1) * 1 * e^gamma == 0
    exact_zero = g_eval_neg_int(Fraction(1), 1) == 0
    lam1 = find_lambda(Fraction(1)).lam
    ok = not bad and ok_c1 and exact_zero and lam1 == 1.0
    _report(2, "constants table a=1..1/10 and exact lambda_1", ok,
            f"C_1={c1:.6f}, bad={bad}")


def test_criterion_3_complex_pole():
    t0 = time.time()
    z = locate_zero_in_rect(1, (-3.6, -2.5, 10.8, 11.9), resolution=0.01)
    dist = abs(z - complex(-3.03, 11.36))
    strip = count_zeros_rect(1, (-3.02, -0.99, 0.1, 11.3))
    elapsed = time.time() - t0
    ok = dist < 0.05 and strip == 0 and elapsed < 60.0
    _report(3, "complex pole location and zero-free strip (a=1)", ok,
            f"zero at {z:.4f}, dist {dist:.4f}, strip count {strip}, {elapsed:.1f}s")


def test_criterion_4_membership_lists():
    y2 = Fraction(2)
    lists_ok = (
        enumerate_members(FamilySpec("dense", y2, i=1), 32)
        == [1, 2, 4, 6, 8, 12, 16, 18, 20, 24, 28, 30, 32]
        and enumerate_members(FamilySpec("dense", y2, i=2), 32) == [1, 2, 4, 8, 12, 16, 24, 32]
        and enumerate_members(FamilySpec("dense", y2, i=3), 32) == [1, 2, 4, 8, 16, 24, 32]
        and all(
            enumerate_members(FamilySpec("dense", y2, i=i), 32) == [1, 2, 4, 8, 16, 32]
            for i in (4, 5, 6)
        )
    )
    cex_ok = (
        is_member(8424, FamilySpec("dense", y2, i=3))
        and not is_member(8424, FamilySpec("strongdense", y2, i=3))
        and is_member(65520, FamilySpec("dense", y2, i=4))
        and not is_member(65520, FamilySpec("strongdense", y2, i=4))
    )
    _report(4, "membership lists up to 32 and the 8424/65520 counterexamples",
            lists_ok and cex_ok)


def test_criterion_5_sandwich():
    t0 = time.time()
    N = 100_000
    violations = 0
    for y in (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(10)):
        t = tables_at(N, y)
        sm = np.frombuffer(bytes(t["smooth"]), dtype=np.uint8)
        for i in range(1, 5):
            tl = np.frombuffer(bytes(t["thetalower"][i]), dtype=np.uint8)
            tu = np.frombuffer(bytes(t["thetaupper"][i]), dtype=np.uint8)
            de = np.frombuffer(bytes(t["dense"][i]), dtype=np.uint8)
            st_ = np.frombuffer(bytes(t["strongdense"][i]), dtype=np.uint8)
            violations += int(np.sum(sm[1:] & ~tl[1:]))
            violations += int(np.sum(tl[1:] & ~st_[1:]))
            violations += int(np.sum(st_[1:] & ~de[1:]))
            violations += int(np.sum(de[1:] & ~tu[1:]))
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 300.0
    _report(5, "five-set sandwich, n<=1e5, i<=4, four y values", ok,
            f"violations={violations}, {elapsed:.1f}s")


def test_criterion_6_exact_identities():
    X = 10_000
    phi_ok = True
    for spec in (
        FamilySpec("bpower", Fraction(2), a=Fraction(1)),
        FamilySpec("bpower", Fraction(3), a=Fraction(1)),
        FamilySpec("bpower", Fraction(3), a=Fraction(1, 2)),
    ):
        for sf in (False, True):
            s = FamilySpec(spec.kind, spec.y, a=spec.a, squarefree=sf)
            phi_ok = phi_ok and check_phi_identity_range(X, s)
    ssf_ok = all(
        check_ssf_identity_range(X, y, beta)
        for beta in (Fraction(1), Fraction(2))
        for y in (Fraction(2), Fraction(3))
    )
    theta2_ok = all(
        check_theta2(n, y) for y in (Fraction(2), Fraction(3)) for n in range(1, X + 1)
    )
    ok = phi_ok and ssf_ok and theta2_ok
    _report(6, "exact Phi / Schinzel-Szekeres / theta_2 identities to 1e4", ok,
            f"phi={phi_ok} ssf={ssf_ok} theta2={theta2_ok}")


def test_criterion_7_rho_consistency():
    closed_ok = True
    worst = 0.0
    for a in (Fraction(0), Fraction(1, 2), Fraction(1)):
        t = cached_rho_table(a, u_max=30.0)
        for u in np.linspace(1.0, 2.0, 129):
            err = abs(t(float(u)) - rho_closed_form_12(a, float(u)))
            worst = max(worst, err)
            closed_ok = closed_ok and err < 1e-7
    t1 = cached_rho_table(Fraction(1), u_max=30.0)
    asym = t1(20.0) * 21.0
    asym_ok = abs(asym / 2.28029 - 1.0) < 0.005
    inv_ok = True
    t0 = cached_rho_table(Fraction(0), u_max=30.0)
    for a in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
        t = cached_rho_table(a, u_max=30.0)
        inv_ok = inv_ok and bool(np.all(np.diff(t.values) <= 1e-12))
        inv_ok = inv_ok and bool(np.all(t.values <= 1.0 + 1e-12))
        inv_ok = inv_ok and bool(np.all(t0.values <= t.values + 1e-8))
    ok = closed_ok and asym_ok and inv_ok
    _report(7, "rho closed form, asymptote, and table invariants", ok,
            f"closed-form worst {worst:.1e}, rho_1(20)*21={asym:.5f}")


def test_criterion_8_saddle_zeros():
    zs = k_zeros(4)
    refs = ["2.383446", "5.510195", "8.647357", "11.786842"]
    digits_ok = all(truncate_matches(z, r) for z, r in zip(zs, refs))
    nu0_ok = abs(zs[0] - 2.383446) < 1e-5
    # independent confirmation: bisect the oscillatory-quadrature path
    lo, hi = 2.3, 2.5
    flo = k_oscillatory(lo)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fm = k_oscillatory(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    nu0_quad = 0.5 * (lo + hi)
    quad_ok = abs(nu0_quad - 2.383446) < 1e-3
    ok = digits_ok and nu0_ok and quad_ok
    _report(8, "oscillatory-integral zeros nu_0..nu_3", ok,
            f"nu_0={zs[0]:.7f}, quadrature {nu0_quad:.6f}")


def test_criterion_9_asymptotic_counting():
    # B_1(x, 100) against x*rho_1(u)
    t1 = cached_rho_table(Fraction(1), u_max=6.0)
    spec = FamilySpec("bpower", Fraction(100), a=Fraction(1))
    ratios = []
    for x in (10**5, 10**6, 10**7):
        c = count_members(spec, x)
        u = math.log(x) / math.log(100.0)
        ratios.append(c / (x * float(t1(u))))
    b_ok = all(0.85 <= r <= 1.15 for r in ratios)
    # D_2(x, 50) against x (log y/log x)^lambda: the implied constant is
    # unknown, so the check is that the ratio stays within a factor-3 band
    lam = find_lambda(Fraction(1, 2)).lam
    d2 = FamilySpec("dense", Fraction(50), i=2)
    d_ratios = []
    for x in (10**5, 10**6, 10**7):
        c = count_members(d2, x)
        d_ratios.append(c / (x * (math.log(50.0) / math.log(x)) ** lam))
    band_ok = max(d_ratios) / min(d_ratios) <= 3.0
    ok = b_ok and band_ok
    _report(9, "order-of-magnitude counting at x=1e5..1e7", ok,
            f"B ratios {['%.3f' % r for r in ratios]}, "
            f"D2 band {max(d_ratios)/min(d_ratios):.2f}x")


SAMPLE_20 = [
    1.0, 2.5, 0.25, 3.0,
    complex(-0.5, 1.0), complex(-1.5, 2.0), complex(-2.5, 3.0), complex(-4.5, 0.5),
    complex(0.5, -1.5), complex(1.5, 4.0), complex(2.0, -3.0), complex(-3.5, 1.5),
    complex(-5.5, 5.0), complex(0.1, 0.1), complex(-0.9, 6.0), complex(1.0, 8.0),
    complex(-1.7, -4.0), complex(-6.5, 2.5), complex(4.0, 1.0), complex(-1.2, -2.2),
]


def test_criterion_10_cross_method_and_derivative_identity():
    worst = 0.0
    for a in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)):
        for s in SAMPLE_20:
            vs, _ = g_eval_series(a, s)
            vi = g_eval_integral(a, s)
            worst = max(worst, abs(vs - vi))
    cross_ok = worst < 1e-6
    res1 = dgda_identity_check(1, 1.0)
    res2 = dgda_identity_check(Fraction(1, 2), complex(-2, 3))
    dgda_ok = res1 < 1e-6 and res2 < 1e-6
    ok = cross_ok and dgda_ok
    _report(10, "cross-method agreement and d/da identity", ok,
            f"worst cross {worst:.1e}, dgda residuals {res1:.1e}/{res2:.1e}")
