"""The chain-tree kernel and its exact theta, each against a reference written
here that shares no code with the package: trial division, and chain steps
compared as Fractions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densediv.families import (
    FamilySpec,
    _exact,
    _kth_root,
    count_members,
    enumerate_members,
    is_member,
    member_mask,
)
from densediv.integers import FactoredInteger


def _prime_list(n):
    """The primes of n with multiplicity, nondecreasing, by trial division."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + [n] if n > 1 else out


def _dense1(n, y):
    """n is y-densely divisible: no two consecutive divisors have a ratio above y."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return all(b <= y * a for a, b in zip(divs, divs[1:]))


def _step_ok(spec, m, p):
    """p <= theta(m), compared exactly as Fractions."""
    y, p, m = spec.y, Fraction(p), Fraction(m)
    if spec.kind == "smooth":
        return p <= y
    if spec.kind == "dense":  # theta_2(m) = y max over y-dense d | m of min(d, m/d)
        return p <= y * max(min(d, m / d) for d in range(1, int(m) + 1) if m % d == 0 and _dense1(d, y))
    a = spec.exponent
    if spec.kind in ("bpower", "thetaupper"):  # p <= y m^a
        return (p / y) ** a.denominator <= m**a.numerator
    # bstar, thetalower: p <= max(y, (y m)^a)
    return p <= y or p**a.denominator <= (y * m) ** a.numerator


def _chain_reference(spec, n):
    ps = _prime_list(n)
    if spec.squarefree and len(set(ps)) < len(ps):
        return False
    return all(_step_ok(spec, math.prod(ps[:j]), p) for j, p in enumerate(ps))


_Y = st.fractions(min_value=1, max_value=20, max_denominator=12).filter(lambda y: y > 1)
_A = st.fractions(min_value=0, max_value=3, max_denominator=6).filter(lambda a: a > 0)


@st.composite
def _chain_specs(draw):
    kind = draw(st.sampled_from(["smooth", "thetalower", "thetaupper", "bpower", "bstar", "dense"]))
    y, sf = draw(_Y), draw(st.booleans())
    if kind == "smooth":
        return FamilySpec(kind, y, squarefree=sf)
    if kind in ("bpower", "bstar"):
        return FamilySpec(kind, y, a=draw(_A), squarefree=sf)
    i = 2 if kind == "dense" else draw(st.integers(min_value=1, max_value=4))
    return FamilySpec(kind, y, i=i, squarefree=sf)


# the chain families the family_counts benchmark counts, at x = 3000
_BENCH_CHAINS = [
    FamilySpec("bpower", Fraction(100), a=Fraction(1)),
    FamilySpec("bstar", Fraction(100), a=Fraction(2, 3), squarefree=True),
    FamilySpec("thetalower", Fraction(100), i=2),
    FamilySpec("dense", Fraction(10), i=2),
    FamilySpec("smooth", Fraction(2)),
    FamilySpec("thetalower", Fraction(2), i=3),
    FamilySpec("thetaupper", Fraction(2), i=3),
]


def _with_bench_chains(test):
    for spec in _BENCH_CHAINS:
        test = example(spec, 3000)(test)
    return test


@given(_chain_specs(), st.integers(min_value=1, max_value=3000))
@_with_bench_chains
@settings(max_examples=60, deadline=None)
def test_tree_matches_per_n_chain_check(spec, x):
    expect = [n for n in range(1, x + 1) if _chain_reference(spec, n)]
    assert enumerate_members(spec, x) == expect
    assert count_members(spec, x) == len(expect)
    mask = np.zeros(x + 1, dtype=bool)
    mask[expect] = True
    assert np.array_equal(member_mask(spec, x), mask)


def _root_reference(n, k):
    lo, hi = 0, 1
    while hi**k <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
    return lo


@pytest.mark.parametrize("k", range(1, 7))
def test_kth_root_at_the_int64_edge(k):
    # r^k - 1, r^k and r^k + 1 for r around 2^(62/k) and 2^(63/k), and around
    # 2^(63/k - 2), where the root's own products leave int64
    rs = {int(2 ** (e / k)) + d for e in (62, 63, 63 - 2 * k) for d in range(-2, 3)}
    nums = sorted({r**k + s for r in rs for s in (-1, 0, 1)} | {0, 1, 2, 2**63 - 1})
    expect = [_root_reference(n, k) for n in nums]
    fits = [n for n in nums if n < 2**63]
    got = _kth_root(np.array(fits, dtype=np.int64), k)
    assert got.tolist() == expect[: len(fits)]
    for arr in (np.array(nums, dtype=object), _exact(np.array(nums, dtype=object), max(nums))):
        assert [int(r) for r in _kth_root(arr, k)] == expect


@pytest.mark.parametrize("k", range(1, 7))
def test_kth_root_past_the_float_range(k):
    # past 2^1100 the float guess is taken of a shifted value; small and huge
    # entries share one array, as the prefixes of one n do
    rs = [3, 2**20 + 7, (1 << 1100 // k) + 12345, 3 ** (2000 // k)]
    nums = [r**k + s for r in rs for s in (-1, 0, 1)]
    got = _kth_root(np.array(nums, dtype=object), k)
    assert [int(r) for r in got] == [_root_reference(n, k) for n in nums]


def test_smooth_count_past_int64():
    # 3-smooth n <= 2^70, most of them past 2^63
    x = 2**70
    expect = sorted(2**a * 3**b for b in range(45) for a in range(71) if 2**a * 3**b <= x)
    assert len(expect) == 1604
    assert count_members(FamilySpec("smooth", Fraction(3)), x) == 1604
    assert enumerate_members(FamilySpec("smooth", Fraction(3)), x) == expect


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("thetaupper", Fraction(2), i=2), FamilySpec("bpower", Fraction(2), a=Fraction(5, 3)),
     FamilySpec("bstar", Fraction(7, 2), a=Fraction(5, 3)), FamilySpec("thetalower", Fraction(7, 2), i=3)],
)
def test_membership_of_huge_n(spec):
    def reference(ps):
        return all(_step_ok(spec, math.prod(ps[:j]), p) for j, p in enumerate(ps))

    assert is_member(2**1500 * 3, spec) == reference([2] * 1500 + [3])
    # a last factor q on either side of theta(2^1500): exact at 2^1500, far past any float
    a, m = spec.exponent, 2**1500
    # theta^qa is y^qa m^pa (y m^a) or (y m)^pa (max(y, (y m)^a), m large)
    upper = spec.kind in ("bpower", "thetaupper")
    power = spec.y**a.denominator * m**a.numerator if upper else (spec.y * m) ** a.numerator
    t = _root_reference(math.floor(power), a.denominator)
    got = [is_member(FactoredInteger(m * q, ((2, 1500), (q, 1))), spec) for q in (t - 1, t, t + 1, t + 2)]
    assert got == [reference([2] * 1500 + [q]) for q in (t - 1, t, t + 1, t + 2)] == [True, True, False, False]


@pytest.mark.parametrize("batch", [1, 3, 64])
def test_batch_split_keeps_every_child(monkeypatch, batch):
    # a step expands at most _BATCH children, splitting a node's range when
    # it alone has more: the walk finds the same members at any batch size
    from densediv import families

    specs = [FamilySpec("bpower", Fraction(100), a=Fraction(1)), FamilySpec("thetaupper", Fraction(7, 2), i=2),
             FamilySpec("bstar", Fraction(10), a=Fraction(2, 3), squarefree=True)]
    expect = [enumerate_members(spec, 20_000) for spec in specs]
    monkeypatch.setattr(families, "_BATCH", batch)
    assert [enumerate_members(spec, 20_000) for spec in specs] == expect
    assert [count_members(spec, 20_000) for spec in specs] == [len(e) for e in expect]
