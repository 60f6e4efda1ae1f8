import math
from fractions import Fraction

import numpy as np
import pytest

from densediv import rho
from densediv._constants import EULER_GAMMA
from densediv.errors import DomainError
from densediv.specfun import buchstab_omega
from densediv.gzero import find_lambda
from densediv.rho import (
    _interp_cubic,
    build_rho_table,
    cached_rho_table,
    rho_asymptotic,
    rho_closed_form_12,
)

C1 = 1.0 / (1.0 - math.exp(-EULER_GAMMA))


def simpson_rows(a: Fraction, u_max: float, step: Fraction) -> np.ndarray:
    """rho_a on the grid, one row and one panel at a time: the same panels,
    nodes and weights as build_rho_table, summed in a different order."""
    af, h = float(a), float(step)
    n = int(math.ceil(u_max / h - 1e-9))
    us = h * np.arange(n + 1)
    vals = np.ones(n + 1)
    for jj in range(n + 1):
        u = us[jj]
        if u <= 1.0 + 1e-15:
            continue
        V = (u - 1.0) / (1.0 + af)
        bps = {0.0, V}
        if 1.0 < V:
            bps.add(1.0)
        m = 2
        while m < u:
            vm = (u - m) / (1.0 + af * m)
            if 0.0 < vm < V:
                bps.add(vm)
            m += 1
        pts = sorted(bps)
        total = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            if hi - lo < 1e-14:
                continue
            nsub = max(4, int(math.ceil((hi - lo) / h)))
            nsub += nsub % 2
            vnodes = np.linspace(lo, hi, nsub + 1)
            arg = np.maximum((u - vnodes) / (1.0 + af * vnodes), 1.0)
            rv = np.ones(nsub + 1)
            inner = vnodes > 1.0
            if np.any(inner):
                rv[inner] = _interp_cubic(us, vals, h, vnodes[inner])
            f = rv * buchstab_omega(arg) / (1.0 + af * vnodes)
            wts = np.ones(nsub + 1)
            wts[1:-1:2] = 4.0
            wts[2:-1:2] = 2.0
            total += (hi - lo) / nsub / 3.0 * float(wts @ f)
        vals[jj] = 1.0 - total
    return vals


class TestBasics:
    def test_flat_below_one(self):
        t = cached_rho_table(Fraction(1), u_max=6.0)
        for u in (0.0, 0.25, 0.5, 1.0):
            assert t(u) == 1.0
        assert t(-0.5) == 0.0

    def test_closed_form_on_12(self):
        # rho_a = 1 + log((1+a u)/(u(1+a))) there; derived by substituting
        # omega = 1/t into the recurrence
        for a in (Fraction(0), Fraction(1, 2), Fraction(1)):
            t = cached_rho_table(a, u_max=6.0)
            for u in np.linspace(1.0, 2.0, 33):
                assert abs(t(float(u)) - rho_closed_form_12(a, float(u))) < 1e-9

    def test_known_dickman_values(self):
        t = cached_rho_table(Fraction(0), u_max=6.0)
        assert t(2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-9)
        assert t(3.0) == pytest.approx(0.0486083882911316, abs=1e-8)

    def test_rho1_at_2(self):
        t = cached_rho_table(Fraction(1), u_max=6.0)
        assert t(2.0) == pytest.approx(1.0 - math.log(4.0 / 3.0), abs=1e-9)


class TestInvariants:
    @pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
    def test_monotone_and_sandwiched(self, a):
        t = cached_rho_table(a, u_max=30.0)
        t0 = cached_rho_table(Fraction(0), u_max=30.0)
        assert np.all(t.values[t.us <= 1.0] == 1.0)
        assert np.all(np.diff(t.values) <= 1e-12)
        assert np.all(t.values <= 1.0 + 1e-12)
        assert np.all(t0.values <= t.values + 1e-8)

    def test_dickman_delay_equation(self):
        # independent route: u rho(u) = int_{u-1}^{u} rho(t) dt for Dickman
        t = cached_rho_table(Fraction(0), u_max=30.0)
        h = float(t.step)
        per = int(round(1.0 / h))
        vals = t.values
        w = np.ones(per + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        for j in range(per, len(vals), 64):
            integral = h / 3.0 * float(w @ vals[j - per : j + 1])
            # the identity scales the table's 1e-8 absolute budget by u
            assert abs(t.us[j] * vals[j] - integral) < 2e-8 * (1.0 + t.us[j])

    def test_grid_refinement(self):
        coarse = build_rho_table(Fraction(1), u_max=6.0, step=Fraction(1, 128))
        fine = build_rho_table(Fraction(1), u_max=6.0, step=Fraction(1, 256))
        assert np.max(np.abs(coarse.values - fine.values[::2])) < 10 * coarse.accuracy

    def test_asymptote_a1(self):
        t = cached_rho_table(Fraction(1), u_max=30.0)
        for u in np.arange(15.0, 30.0 + 1e-9, 0.5):
            ratio = t(float(u)) * (1.0 + u) / C1
            assert 0.995 <= ratio <= 1.005

    def test_ratio_sandwich_table_set(self):
        # rho_a(u) (1+a u)^lambda_a within [C_a/2, 2 C_a].  The product starts
        # at 1 < C_a/2 (rho_a(0) = 1) and the table cannot resolve rho below
        # its 1e-8 budget, so the band is asserted from the early crossing of
        # C_a/2 through the resolvable range rho_a >= 1e-5.
        for i in range(1, 11):
            a = Fraction(1, i)
            cert = find_lambda(a)
            t = cached_rho_table(a, u_max=30.0)
            prod = t.values * (1.0 + float(a) * t.us) ** cert.lam
            cross = int(np.argmax(prod >= cert.C / 2.0))
            assert prod[cross] >= cert.C / 2.0, f"a=1/{i}: band never entered"
            assert t.us[cross] <= 4.0, f"a=1/{i}: band entered late (u={t.us[cross]})"
            sel = (t.values >= 1e-5) & (t.us >= t.us[cross])
            assert np.all(prod[sel] >= cert.C / 2.0), f"a=1/{i}"
            assert np.all(prod[sel] <= 2.0 * cert.C), f"a=1/{i}"


class TestCubic:
    def test_exact_on_cubics_either_side_of_the_kink(self):
        # the table's cubic reproduces 1 up to u = 1 and any cubic above it,
        # in the intervals at the kink and at the table's end too
        h = 1.0 / 128
        us = h * np.arange(6 * 128 + 1)

        def p(x):
            return 1.0 + (x - 1.0) * (-0.7 + (x - 1.0) * (0.1 - 0.01 * (x - 1.0)))

        vals = np.where(us <= 1.0, 1.0, p(us))
        x = np.concatenate([np.linspace(0.0, 1.0, 97), np.linspace(1.0 + 1e-9, 6.0, 1001)])
        want = np.where(x <= 1.0, 1.0, p(x))
        assert np.max(np.abs(_interp_cubic(us, vals, h, x) - want)) < 1e-12


class TestBatchedSweep:
    @pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 3), Fraction(1)])
    def test_prefix_of_longer_table(self, a):
        # a row's value must not depend on how far the table runs: blocks
        # start at u = 1 and passes cut at whole rows for every u_max
        short = build_rho_table(a, u_max=6.0)
        long = cached_rho_table(a, u_max=30.0)
        assert np.array_equal(short.values, long.values[: len(short.values)])

    @pytest.mark.parametrize(
        "a, step, u_max",
        [(Fraction(0), Fraction(1, 128), 8.0), (Fraction(1, 2), Fraction(1, 128), 8.0),
         (Fraction(1, 2), Fraction(1, 256), 8.0), (Fraction(0), Fraction(1, 200), 8.0),
         # rows with up to 14 unit panels: rho_0's chain dot, and the
         # coefficient read of a > 0 over as many omega pieces
         (Fraction(0), Fraction(1, 128), 16.0), (Fraction(1, 2), Fraction(1, 128), 16.0)],
        ids=[f"a{i}-step{i}" for i in range(6)],
    )
    def test_matches_row_by_row_simpson(self, a, step, u_max):
        # a block whose rows read a row of the same block sees its initial 1.0
        t = build_rho_table(a, u_max=u_max, step=step)
        assert np.max(np.abs(t.values - simpson_rows(a, u_max, step))) < 1e-13

    def test_rho0_omega_work(self, monkeypatch):
        # rho_0 reads omega on the grid once per table for its unit panels;
        # only the panels below v = 1 and the fractional panel above it take
        # omega node by node, against every Simpson node of the table
        h = 1.0 / 128
        us = h * np.arange(30 * 128 + 1)
        _, _, _, nsub = rho._panels(us[us > 1.0 + 1e-15], 0.0, h)
        nodes = int(np.sum(nsub + 1))
        assert nodes == 6_956_344
        seen = []

        def counting(x):
            seen.append(np.size(x))
            return buchstab_omega(x)

        monkeypatch.setattr(rho, "buchstab_omega", counting)
        build_rho_table(Fraction(0), u_max=30.0)
        assert 0 < sum(seen) <= nodes // 4


class TestCache:
    def test_calls_equal_fresh_builds(self, monkeypatch):
        # one build per grid (a, step, n); every call returns exactly what a
        # fresh build returns
        builds = []

        def counting(*args, **kwargs):
            builds.append(args[1])
            return build_rho_table(*args, **kwargs)

        monkeypatch.setattr(rho, "build_rho_table", counting)
        rho._cached_build.cache_clear()
        a = Fraction(1)
        for u_max in (4.0, 30.0, 6.0, 60.0):
            got = cached_rho_table(a, u_max=u_max)
            fresh = build_rho_table(a, u_max=u_max)
            assert np.array_equal(got.us, fresh.us)
            assert np.array_equal(got.values, fresh.values)
            assert (got.a, got.step, got.accuracy) == (fresh.a, fresh.step, fresh.accuracy)
        assert builds == [4.0, 30.0, 6.0, 60.0]
        info = cached_rho_table.cache_info()
        assert info.misses == 4 and info.hits == 0

    def test_store_is_bounded(self):
        rho._cached_build.cache_clear()
        a_list = [Fraction(1, i) for i in range(1, rho._CACHE_KEYS + 2)]
        for a in a_list:
            cached_rho_table(a, u_max=2.0)
        assert cached_rho_table.cache_info().currsize == rho._CACHE_KEYS
        # a = 1, the least recently used, went first: it is built again, a = 1/2 is not
        misses = cached_rho_table.cache_info().misses
        cached_rho_table(a_list[1], u_max=2.0)
        assert cached_rho_table.cache_info().misses == misses
        cached_rho_table(a_list[0], u_max=2.0)
        assert cached_rho_table.cache_info().misses == misses + 1

    def test_invalid_arguments_raise_before_lookup(self):
        cached_rho_table(Fraction(1), u_max=6.0)
        with pytest.raises(DomainError):
            cached_rho_table(Fraction(1), u_max=0.0)
        with pytest.raises(DomainError):
            cached_rho_table(Fraction(-1), u_max=2.0)


class TestAsymptoticModel:
    def test_model_at_zero(self):
        cert = find_lambda(Fraction(1))
        assert rho_asymptotic(Fraction(1), 0.0, cert) == pytest.approx(cert.C)

    def test_model_a1(self):
        cert = find_lambda(Fraction(1))
        assert rho_asymptotic(Fraction(1), 9.0, cert) == pytest.approx(C1 / 10.0, rel=1e-5)

    def test_model_half_at_10(self):
        # printed-table arithmetic: 3.7815 / 6^2.46206
        cert = find_lambda(Fraction(1, 2))
        got = rho_asymptotic(Fraction(1, 2), 10.0, cert)
        assert got == pytest.approx(3.7815 / 6.0**2.46206, rel=1e-3)

    def test_certificate_mismatch(self):
        cert = find_lambda(Fraction(1))
        with pytest.raises(DomainError):
            rho_asymptotic(Fraction(1, 2), 1.0, cert)


class TestExport:
    def test_csv(self, tmp_path):
        t = build_rho_table(Fraction(1), u_max=2.0, step=Fraction(1, 128))
        cert = find_lambda(Fraction(1))
        path = tmp_path / "rho.csv"
        t.export_csv(path, cert)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "u,rho,model,ratio"
        assert len(lines) == len(t.us) + 1


class TestValidation:
    def test_step_too_big(self):
        with pytest.raises(DomainError):
            build_rho_table(Fraction(1), u_max=2.0, step=Fraction(1, 64))

    def test_umax_budget(self):
        from densediv.errors import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            build_rho_table(Fraction(1), u_max=600.0)

    def test_negative_a(self):
        with pytest.raises(DomainError):
            build_rho_table(Fraction(-1, 2), u_max=2.0)
