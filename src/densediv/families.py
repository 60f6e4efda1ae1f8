"""Integer families: membership, enumeration, counting, and exact identities.

Families are either "chain" families B_theta -- defined by a condition
p_{j+1} <= theta(p_1...p_j) on the nondecreasing prime factorization -- or
the recursively defined densely-divisible families Dense(i)/StrongDense(i),
whose membership is a y-dense-chain condition on filtered divisor lists.

All boundary comparisons (p <= y m^a and divisor ratios d' <= y d) are done
in exact integer arithmetic for rational y and a; no float ever decides a
membership.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResourceLimitError
from .integers import (
    DEFAULT_DIVISOR_CAP,
    FactoredInteger,
    divisors,
    factorize,
    prime_array,
    primes_upto,
    sieve_spf,
)

_B_KINDS = frozenset({"smooth", "thetalower", "thetaupper", "bpower", "bstar"})
_D_KINDS = frozenset({"dense", "strongdense"})
KINDS = _B_KINDS | _D_KINDS


@dataclass(frozen=True)
class FamilySpec:
    """One integer family: kind, rational y, and its i or a parameter."""

    kind: str
    y: Fraction
    i: int | None = None
    a: Fraction | None = None
    squarefree: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "y", Fraction(self.y))
        if self.y <= 1:
            raise DomainError("y must be > 1")
        if self.kind in ("dense", "strongdense", "thetalower", "thetaupper"):
            if self.i is None or self.i < 1:
                raise DomainError(f"{self.kind} requires i >= 1")
            if self.a is not None and self.a != Fraction(1, self.i):
                raise DomainError("a is implicitly 1/i for this kind")
        elif self.kind in ("bpower", "bstar"):
            if self.a is None:
                raise DomainError(f"{self.kind} requires parameter a")
            object.__setattr__(self, "a", Fraction(self.a))
            if self.a <= 0:
                raise DomainError("a must be > 0")

    @property
    def exponent(self) -> Fraction | None:
        """The a-parameter governing the density model (1/i for i-kinds)."""
        if self.kind == "smooth":
            return Fraction(0)
        if self.a is not None:
            return self.a
        return Fraction(1, self.i)


@dataclass(frozen=True)
class CountReport:
    spec: FamilySpec
    x: int
    count: int
    u: float
    model: float | None

    @property
    def ratio(self) -> float | None:
        return self.count / self.model if self.model is not None and self.model > 0 else None


# ---------------------------------------------------------------------------
# exact theta comparisons
# ---------------------------------------------------------------------------


def _kth_root(num: np.ndarray, k: int) -> np.ndarray:
    """floor(num ** (1/k)) of every entry of num >= 0, exact: r^k <= num < (r + 1)^k.

    Below 2**63 the float root r lies within 1 of it, and one integer step
    down, then one up, corrects r; the steps run in int32, int64 or Python
    ints, sized by the largest power they form (_exact).  Python ints may be
    past any float: an entry past 2**1000 is guessed from num >> s, s a
    multiple of k, shifted back by s / k.  The guess g becomes g + g / 2**40 + 2,
    above the root, and integer Newton steps r <- ((k - 1) r + num // r^(k-1)) // k
    fall from there to the root and stop.
    """
    if k == 1:
        return num
    if num.dtype != object:
        r = (num ** (1.0 / k)).astype(np.int64)
        num = _exact(num, (int(r.max()) + 2) ** k)  # above num, since r + 1 > the root
        r = r.astype(num.dtype, copy=False)
        r -= r**k > num
        return r + ((r + 1) ** k <= num)
    vals = num.tolist()
    shift = [max(v.bit_length() - 1000, 0) // k for v in vals]
    guess = [int(float(v >> (s * k)) ** (1.0 / k)) for v, s in zip(vals, shift)]
    r = np.array([(g + (g >> 40) + 2) << s for g, s in zip(guess, shift)], dtype=object)
    while True:
        step = ((k - 1) * r + num // np.maximum(r, 1) ** (k - 1)) // k
        fall = step < r
        if not fall.any():
            return r
        r = np.where(fall, step, r)


def _theta(spec: FamilySpec, m: np.ndarray) -> np.ndarray:
    """Exact floor(theta(m)) of every node m (int64 or Python ints) of a chain
    family; p <= theta(m) iff p <= floor(theta(m)) since primes are integers.

    With a = pa/qa (1/i for the i-kinds), theta = y m^a for bpower and
    ThetaUpper, so theta^qa = y^qa m^pa, and theta = max(y, (y m)^a) for
    bstar and ThetaLower, so the root is of (y m)^pa.  The products are int32,
    int64 or Python ints, sized by the largest (_exact).  Dense(2) is the
    chain family of theta_2 (see theta2_of), an identity the tests verify
    against the definition; its theta is read node by node.
    """
    py, qy = spec.y.numerator, spec.y.denominator
    if spec.kind == "smooth":
        return np.full(len(m), py // qy)
    if spec.kind == "dense":
        return np.array([math.floor(theta2_of(v, spec.y)) for v in m.tolist()], dtype=m.dtype)
    pa, qa = (spec.a.numerator, spec.a.denominator) if spec.a is not None else (1, spec.i)
    upper = spec.kind in ("bpower", "thetaupper")
    c, d = (py**qa, qy**qa) if upper else (py**pa, qy**pa)
    m = _exact(m, c * int(m.max()) ** pa)
    t = _kth_root(c * m**pa // d, qa)
    return t if upper else np.maximum(t, py // qy)


def _theta_upto(spec: FamilySpec, m: np.ndarray, lim: np.ndarray) -> np.ndarray:
    """min(floor(theta(m)), lim) in int64 at the nodes m of a chain-tree walk, all
    of them members.  A Dense(2) member m has theta_2(m) >= max(y, sqrt(y m))
    (README), so floor(theta_2(m)) >= max(floor(y), isqrt(floor(y m))), and
    theta_2 is computed only at the nodes where that bound is below lim."""
    if spec.kind != "dense":
        return np.minimum(_theta(spec, m), lim).astype(np.int64, copy=False)
    py, qy = spec.y.numerator, spec.y.denominator
    low = np.maximum(_kth_root(_exact(m, py * int(m.max())) * py // qy, 2), py // qy)
    t, open_ = lim.copy(), low < lim
    if open_.any():
        t[open_] = np.minimum(_theta(spec, m[open_]), lim[open_])
    return t


def _chain_member(spec: FamilySpec, f: FactoredInteger) -> bool:
    """Membership in a chain family from the sorted primes, each against the
    theta of the product before it; squarefree is the caller's check."""
    if f.n == 1:
        return True
    ps = np.array(f.prime_list(), dtype=np.int64 if f.n < 2**63 else object)
    return bool(np.all(ps <= _theta(spec, np.cumprod(ps) // ps)))


# ---------------------------------------------------------------------------
# Dense / StrongDense membership (single n, memoized per oracle)
# ---------------------------------------------------------------------------


def _keep_pairs(kind: str, i: int) -> list[tuple[int, int]]:
    """The keep pairs (j, k), j + k = i - 1, of Dense(i) or StrongDense(i).

    n is in the level iff, for each pair, the divisors d with d in level j
    and n/d in level k run from 1 to n with no ratio above y.  Dense(i) keeps
    (i - 1, 0); StrongDense(i) keeps every pair, but (j, k) and (k, j) keep
    the mirror images d <-> n/d, y-dense together, so j >= k is enough.  Then
    j >= 1 for i >= 2: every kept d is in level 1.  Every level i >= 2 keeps
    (i - 1, 0), so it lies within level i - 1: n in level i - 1 is n in levels
    j and k of every pair.
    """
    if kind == "dense":
        return [(i - 1, 0)]
    return [(i - 1 - k, k) for k in range((i + 1) // 2)]


def _level1_divisors(f: FactoredInteger, y: Fraction) -> list[int]:
    """The divisors of f.n in level 1, the y-densely divisible numbers, increasing.

    Level 1 is the chain family p_j <= y p_1...p_{j-1} (Tenenbaum), so its
    divisors of n grow prime by prime from the factorization: a level-1 t
    takes the next prime p, ..., p^e while p <= y t.  Refuses n with more than
    DEFAULT_DIVISOR_CAP divisors before any list is built.
    """
    tau = f.divisor_count()
    if tau > DEFAULT_DIVISOR_CAP:
        raise ResourceLimitError(f"{f.n} has {tau} divisors, cap is {DEFAULT_DIVISOR_CAP}")
    divs, py, qy = [1], y.numerator, y.denominator
    for p, e in f.factors:  # primes rising
        grow = [t for t in divs if p * qy <= py * t]
        for _ in range(e):
            grow = [t * p for t in grow]
            divs += grow
    divs.sort()
    return divs


# the entries each memo of one oracle keeps; past it the oldest entry goes
_MEMO_CAP = 1 << 18


def _remember(memo: dict, key, value):
    if len(memo) >= _MEMO_CAP:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


class FamilyOracle:
    """Memoized Dense/StrongDense membership for one y, read from level-1 divisors.

    Level 1 holds the y-densely divisible n, and n is in level 1 iff it is the
    last of its level-1 divisors (_level1_divisors, memoized).  Every level
    i >= 2 lies within level i - 1 (_keep_pairs), so one read of n in level
    i - 1 puts n in levels j and k of every keep pair (j, k); every kept
    divisor d lies in level j >= 1, so the y-dense check of each pair scans
    only the level-1 divisors of n.  Level-1 reads come from that list itself:
    d is in it, and n/d is in level 1 iff it is in it too.  Level-1 membership
    depends on the number alone, so the level-1 divisors of a divisor d of n
    are those of n that divide d: a query builds one list from n's
    factorization, and every divisor read at a level >= 2 filters its list
    from the one it came from.  No divisor is ever factorized.

    Caches are value-keyed, so repeated divisor lookups across queries
    share work; safe to reuse across calls with the same y.  Each memo holds
    at most _MEMO_CAP entries.
    """

    def __init__(self, y: Fraction):
        self.y = Fraction(y)
        self.py, self.qy = self.y.numerator, self.y.denominator
        self._dense: dict[tuple[int, int], bool] = {}
        self._strong: dict[tuple[int, int], bool] = {}
        self._divs: dict[int, list[int]] = {}

    def member(self, kind: str, n: int, i: int, f: FactoredInteger) -> bool:
        """n in Dense(i) (kind "dense") or StrongDense(i), by the keep pairs of
        level i; f factors n."""
        if i <= 0 or n == 1:
            return True
        ok = (self._dense if kind == "dense" else self._strong).get((i, n))
        if ok is not None:
            return ok
        return self._member(kind, n, i, self._divs.get(n) or _remember(self._divs, n, _level1_divisors(f, self.y)))

    def _member(self, kind: str, n: int, i: int, divs: list[int]) -> bool:
        """member past a memo miss, from divs, the level-1 divisors of n."""
        if n == 1:
            return True
        memo = self._dense if kind == "dense" else self._strong
        py, qy, get, sub = self.py, self.qy, memo.get, self._sub
        # the kept divisors start at 1 (n in level k) and end at n (n in level j);
        # level i - 1 holds n in both, and level 1 holds n iff n ends divs
        ok = divs[-1] == n if i == 1 else get((i - 1, n))
        if ok is None:
            ok = self._member(kind, n, i - 1, divs)
        level1 = set(divs) if ok and i >= 2 else ()
        for j, k in _keep_pairs(kind, i) if level1 else ():
            last = 1
            for d in divs:
                # d is kept if d is in level j and n // d in level k; level 1
                # is read from divs, most other answers from the memo
                kept = j == 1 or get((j, d))
                if kept is None:
                    kept = self._member(kind, d, j, sub(d, divs))
                if kept and k:
                    e = n // d
                    kept = e in level1 if k == 1 else get((k, e))
                    if kept is None:
                        kept = self._member(kind, e, k, sub(e, divs))
                if kept:
                    if d * qy > last * py:
                        ok = False
                        break
                    last = d
            if not ok:
                break
        return _remember(memo, (i, n), ok)

    def _sub(self, d: int, divs: list[int]) -> list[int]:
        """The level-1 divisors of d, memoized: those in divs, a multiple's, that divide d."""
        return self._divs.get(d) or _remember(self._divs, d, [t for t in divs[: bisect_right(divs, d)] if d % t == 0])


# The oracles of the most recently used y values, least recent first.
_ORACLES: OrderedDict[Fraction, FamilyOracle] = OrderedDict()
_ORACLE_CAP = 4


def _oracle(y: Fraction) -> FamilyOracle:
    orc = _ORACLES.pop(y, None) or FamilyOracle(y)
    _ORACLES[y] = orc
    if len(_ORACLES) > _ORACLE_CAP:
        _ORACLES.popitem(last=False)
    return orc


def is_member(n: int | FactoredInteger, spec: FamilySpec) -> bool:
    """Exact membership of n in the family."""
    f = n if isinstance(n, FactoredInteger) else factorize(n)
    if f.n == 1:
        return True
    if spec.squarefree and not f.is_squarefree:
        return False
    if spec.kind in _B_KINDS:
        return _chain_member(spec, f)
    return _oracle(spec.y).member(spec.kind, f.n, spec.i, f)


# ---------------------------------------------------------------------------
# tree enumeration / counting for chain families
# ---------------------------------------------------------------------------


def _is_chain(spec: FamilySpec) -> bool:
    """The families the chain tree walks: the chain kinds, and levels 1 and 2 of
    Dense and StrongDense (_tree_spec)."""
    return spec.kind in _B_KINDS or spec.i <= 2


def _tree_spec(spec: FamilySpec) -> FamilySpec:
    """The chain family the tree walks for spec.  Level 1 of Dense and StrongDense
    is the chain family theta(m) = y m (Tenenbaum), ThetaUpper(1); level 2 is
    Dense(2), the chain family of theta_2, and StrongDense(2) keeps Dense(2)'s one
    pair (1, 0)."""
    if spec.kind in _B_KINDS:
        return spec
    return FamilySpec("thetaupper" if spec.i == 1 else "dense", spec.y, i=spec.i, squarefree=spec.squarefree)


def _prime_ceiling(spec: FamilySpec, x: int) -> int:
    """Safe upper bound for primes appearing in members <= x."""
    yf = float(spec.y)
    a = spec.exponent
    af = float(a) if a is not None else 1.0
    if spec.kind == "smooth":
        return min(x, int(yf) + 1)
    base = (yf * x**af) ** (1.0 / (1.0 + af))
    alt = (yf * x) ** (af / (1.0 + af))
    return min(x, int(max(base, alt, yf)) + 10)


# the nodes one chain-tree walk may push
_NODE_BUDGET = 200_000_000
# the children one step of the walk expands
_BATCH = 1 << 12


def _iter_tree(spec: FamilySpec, x: int, collect: bool | np.ndarray):
    """DFS over nondecreasing prime chains p <= theta(m), a batch of nodes at a
    time; every node is a member.  Returns the count and, if collect is True,
    the members as an array, unsorted; collect may instead be a bool array over
    0..x, where the walk marks the members batch by batch, and which it returns.

    The children of node m are the primes from P^+(m) (strictly above it when
    squarefree) up to min(theta(m), x // m), from _theta_upto, which computes
    Dense(2)'s theta_2 only where a lower bound leaves the node open; one
    searchsorted per batch counts them all.  Only children with p^2 <= x // m
    are pushed: a larger p has m p^2 > x, so m p has no child.  A stack entry
    holds the nodes of one batch that have children to push, with the range of
    prime indices left to each.  A step takes _BATCH children from the top entry (a lone node with
    more gives its first _BATCH) and leaves the rest there, so the stack holds
    at most one entry per depth.  Nodes are int64 below 2**63 and Python ints
    past it.  _NODE_BUDGET bounds the nodes pushed; a walk that lists its
    members charges them as it goes (_charge's "list" row).
    """
    if x < 1:
        raise DomainError("x must be >= 1")
    dtype = np.int64 if x < 2**63 else object
    primes = prime_array(_prime_ceiling(spec, x)).astype(dtype, copy=False)
    squares = primes**2
    cap = min(x, int(squares[-1]) if len(primes) else 1)  # x // m past it decides the same
    step = 1 if spec.squarefree else 0
    m = np.ones(1, dtype=dtype)
    i0 = np.zeros(1, dtype=np.int64)
    count, pushed, stack = 1, 0, []
    members = [m] if collect is True else None
    mask = collect if isinstance(collect, np.ndarray) else None
    if mask is not None:
        mask[1] = True
    while True:
        lim = np.minimum(x // m, cap).astype(np.int64, copy=False)
        hi = np.searchsorted(primes, _theta_upto(spec, m, lim), "right")
        c = np.maximum(hi - i0, 0)
        count += int(c.sum())
        if collect is not False:
            if mask is None:
                _charge("list", x, 0, count)
            batch = np.repeat(m, c) * primes[_ranges(i0, c)]
            if mask is None:
                members.append(batch)
            else:
                mask[batch] = True
        inner = np.minimum(hi, np.searchsorted(squares, lim, "right"))
        keep = inner > i0
        if keep.any():
            stack.append((m[keep], i0[keep], inner[keep]))
        if not stack:
            return count, np.concatenate(members) if collect is True else mask
        m, lo, hi = stack.pop()
        c = hi - lo
        take = int(np.searchsorted(np.cumsum(c), _BATCH, "right"))
        if take == 0:  # the first node alone has more than _BATCH children
            take, c = 1, np.minimum(c[:1], _BATCH)
            stack.append((m, np.concatenate((lo[:1] + _BATCH, lo[1:])), hi))
        elif take < len(m):
            stack.append((m[take:], lo[take:], hi[take:]))
        m, lo, c = m[:take], lo[:take], c[:take]
        idx = _ranges(lo, c)
        pushed += len(idx)
        if pushed > _NODE_BUDGET:
            raise ResourceLimitError("enumeration node budget exceeded")
        m, i0 = np.repeat(m, c) * primes[idx], idx + step


def enumerate_members(spec: FamilySpec, x: int) -> list[int]:
    """All members of the family up to x, sorted increasing.  The list is
    charged as it grows (a chain walk), or before it is built from the mask."""
    if _is_chain(spec):
        return np.sort(_iter_tree(_tree_spec(spec), x, collect=True)[1]).tolist()
    mask = member_mask(spec, x)
    _charge("list", x, 1, int(np.count_nonzero(mask)))
    return np.flatnonzero(mask).tolist()


def count_members(spec: FamilySpec, x: int) -> int:
    """The counting function of the family at x (exact)."""
    if _is_chain(spec):
        return _iter_tree(_tree_spec(spec), x, collect=False)[0]
    return int(np.count_nonzero(member_mask(spec, x)))


def count_family(spec: FamilySpec, x: int) -> CountReport:
    """CountReport with u = log x / log y and model x*rho_a(u) when available.

    The model is withheld (None) where rho_a(u) is below 100 times the
    table's absolute accuracy: there the table cannot resolve it.
    """
    from ._constants import ZETA2
    from .rho import cached_rho_table

    c = count_members(spec, x)
    u = math.log(x) / math.log(float(spec.y)) if x > 1 else 0.0
    model = None
    if u <= 58.0:
        a = spec.exponent
        table = cached_rho_table(a, u_max=max(4.0, math.ceil(u) + 2.0))
        rho_u = float(table(u))
        if rho_u >= 100.0 * table.accuracy:
            model = x * rho_u
            if spec.squarefree:
                model /= ZETA2
    return CountReport(spec=spec, x=x, count=c, u=u, model=model)


# ---------------------------------------------------------------------------
# bulk membership tables (for the sandwich and equality scans)
# ---------------------------------------------------------------------------


# The arrays a bulk entry point builds may hold this many bytes in all; each
# refuses, by _charge, before it builds what the charge covers.
_BULK_BUDGET = 1 << 30
# Bytes each bulk route charges: per n <= N, per member of the level it lists
# as int32 (_level1_pairs' divisors), and per divisor pair or prime step of one
# owner window, charged as _window_width(N) (ln(N + 1) + 2) of them, above the
# mean ln N + 0.15 divisors of an n <= N.  The callers add 1 byte per level
# (tree, chain) or 2 per level and kind (tables).  ssf, phi, tree and chain (a
# walk's int64 batches of members) cover their peak at N = 2e5 and their worst
# y or beta (tracemalloc, in tests/test_families.py): 26.3, 38.1, 88.6 and 9.8
# bytes per n against 30.4, 40, 102.9 and 11.  The tables' charge covers only
# their arrays over every n, not their window or their Python-int products.
# list is a member list: a walk's int64 batches, their sorted copy, and the
# Python ints with their list pointers beside it, 48 bytes per member at 2e5
# and 1e7 (tracemalloc, with the CLI writing it slice by slice) against 56.
_BYTES = {"tables": (24, 0, 0), "ssf": (5, 0, 16), "phi": (40, 0, 0), "tree": (0, 12, 56), "chain": (10, 0, 0),
          "list": (0, 56, 0)}


def _charge(route: str, N: int, levels: int, held: int) -> float:
    """The bytes route charges (_BYTES) with levels more bytes per n and held
    members listed; refuses N where they pass _BULK_BUDGET."""
    per_n, per_held, per_pair = _BYTES[route]
    need = (N + 1) * (per_n + levels) + held * per_held
    need += per_pair * _window_width(N) * (math.log(N + 1) + 2)
    if need > _BULK_BUDGET:
        raise ResourceLimitError(f"N = {N} needs {need:.4g} bytes, past the budget of {_BULK_BUDGET}")
    return need


def _exact(a: np.ndarray, bound: int) -> np.ndarray:
    """a as int32, int64 or Python ints: the first that holds products up to bound."""
    return a.astype(np.int32 if bound < 2**31 else np.int64 if bound < 2**63 else object)


def _blocks(N: int):
    """Slices [lo, 2 lo) of 2..N: an entry n that reads entries <= n/2 finds them final."""
    lo = 2
    while lo <= N:
        yield slice(lo, 2 * lo)
        lo *= 2


def _window_width(N: int) -> int:
    """Owners per window of _level1_pairs and _ssf_within: O(sqrt N) numpy calls build
    the pairs of each window."""
    return 50 * math.isqrt(N)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[g], starts[g] + 1, ..., counts[g] values for each group g in turn, int32."""
    ends = np.cumsum(counts)
    offsets = np.repeat((starts - ends + counts).astype(np.int32), counts)
    return np.arange(len(offsets), dtype=np.int32) + offsets


def _owner_keys(n: np.ndarray, d: np.ndarray, owners: np.ndarray, lo: int, b: int) -> np.ndarray:
    """(n - lo) << b | d in int64, for the pairs (n, d) with n an owner."""
    keep = owners[n]
    key = n[keep].astype(np.int64)
    key -= lo
    key <<= b
    key |= d[keep]
    return key


def _level1_pairs(owners: np.ndarray, divisors: np.ndarray, N: int):
    """Owners 1..N a window at a time: their slice, and the int32 pairs (n, d),
    d | n, with n in the window and in the mask owners, and d in the mask
    divisors, sorted by n, then d.  With r = isqrt(hi - 1), a d <= r lists its
    multiples in the window, and a d > r is n/m for a cofactor m <= r, found as
    a run of the divisor mask between lo/m and (hi - 1)/m.  Every divisor of an
    owner lies in its window or an earlier one."""
    F = np.flatnonzero(divisors).astype(np.int32)  # increasing
    w = _window_width(N)
    for lo in range(1, N + 1, w):
        hi = min(lo + w, N + 1)
        r, b = math.isqrt(hi - 1), (hi - 1).bit_length()
        small = F[: np.searchsorted(F, r, "right")]
        k0 = (lo - 1) // small + 1  # the least multiplier putting d k in the window
        c = (hi - 1) // small - k0 + 1
        d = np.repeat(small, c)
        key = _owner_keys(d * _ranges(k0, c), d, owners, lo, b)
        m = np.arange(1, (hi - 1) // (r + 1) + 1, dtype=np.int32)
        a = np.searchsorted(F, np.maximum(r + 1, -(-lo // m)))
        c = np.maximum(np.searchsorted(F, (hi - 1) // m, "right") - a, 0)
        d = F[_ranges(a, c)]
        key = np.concatenate((key, _owner_keys(d * np.repeat(m, c), d, owners, lo, b)))
        key.sort()  # owner-major, then divisor
        n, d = np.empty_like(key, np.int32), np.empty_like(key, np.int32)
        np.right_shift(key, b, out=n, casting="unsafe")
        np.bitwise_and(key, (1 << b) - 1, out=d, casting="unsafe")
        n += lo
        yield slice(lo, hi), n, d


def _not_y_dense(own, d, kept, py: int, qy: int, bound: int) -> np.ndarray:
    """Owners with two consecutive kept divisors d < d', d' qy > d py, in one window's
    rows (divisors d, sorted per owner, of the owners own); bound holds d py, d qy."""
    own, d = own[kept], _exact(d[kept], bound)
    return own[1:][(own[1:] == own[:-1]) & (d[1:] * qy > d[:-1] * py)]


def _pair_levels(kind: str, L: list, start: int, w: slice, n, d, py: int, qy: int, bound: int) -> None:
    """Levels start..len(L) - 1 of kind over the owners of window w, in place, from
    the window's pairs (n, d) whose owner is in level start - 1 and whose divisor
    covers every kept d.  n is in level i when it is in level i - 1 and, for each
    keep pair (j, k) of level i, the d in level j with n/d in level k are y-dense;
    level i reads the pairs of the owners in level i - 1.  The levels an owner
    reads, at its divisors and cofactors, lie in its window or an earlier one."""
    for i in range(start, len(L)):
        alive = L[i - 1][n]  # the pairs of the owners n in level i - 1
        n, d = n[alive], d[alive]
        L[i][w] &= L[i - 1][w]
        for j, k in _keep_pairs(kind, i):
            kept = L[j][d] if k == 0 else L[j][d] & L[k][n // d]
            L[i][_not_y_dense(n, d, kept, py, qy, bound)] = False


def membership_tables(N: int, y: Fraction, imax: int) -> dict:
    """Read-only bool arrays over n <= N: smooth, and thetalower/thetaupper/
    dense/strongdense per level i = 0..imax (level 0 holds every n).  Index 0
    is False in smooth and in dense/strongdense for i >= 1, and True elsewhere.

    Array recurrences over every n <= N, compared exactly in int32, int64 or
    Python ints.  A chain family holds n when P^+(n) passes against the
    parent m = n / P^+(n) and m is a member.  Dense(1) = StrongDense(1) is
    the chain family theta(m) = y m (Tenenbaum), ThetaUpper(1) without n = 0,
    so the link Dense within ThetaUpper holds by construction at i = 1 only.
    Dense(i) and StrongDense(i), i >= 2, hold n when n is in level i - 1 and,
    for each keep pair (j, k) of level i, the d in level j with n/d in level k
    are y-dense.  Level i lies within level i - 1, so within levels j and k,
    and every kept d lies in level 1 (_keep_pairs), so the check reads only
    the divisor pairs with owner and divisor in level 1.  Each window's pairs
    are built once and serve both kinds, levels 2..imax in order (_pair_levels).
    Neither the oracle nor the chain tree is used, so the tables stay an
    independent route.
    """
    if N < 1 or imax < 0:
        raise DomainError(f"need N >= 1 and imax >= 0, got N = {N}, imax = {imax}")
    # 24 bytes per n in int32 lpf, parent, n, a temporary and masks, 2 per level and
    # kind; lpf is a writable copy of the int32 sieve, which is freed at once
    _charge("tables", N, 2 * 4 * imax, 0)
    lpf = sieve_spf(max(N, 2))[: N + 1].copy()
    y = Fraction(y)
    py, qy = y.numerator, y.denominator
    n = np.arange(N + 1, dtype=np.int32)
    for s in _blocks(N):  # P^-(n) becomes P^+(n) = max(P^-(n), P^+(n / P^-(n))), in place
        np.maximum(lpf[s], lpf[n[s] // lpf[s]], out=lpf[s])
    parent = n // np.maximum(lpf, 1)
    smooth = lpf <= py // qy  # only the last step binds
    smooth[0] = False
    ones = np.ones(N + 1, dtype=bool)

    def chain(step, i):  # step(p, m, i) runs only where the parent m is a member
        b = max((N * qy) ** i, py**i * N)  # bounds every product below
        t = ones.copy()
        for s in _blocks(N):
            t[s] = t[parent[s]]
            k = s.start + np.flatnonzero(t[s])
            t[k] = step(_exact(lpf[k], b), _exact(parent[k], b), i)
        return t

    steps = {"thetalower": lambda p, m, i: (p * qy <= py) | (p**i * qy <= py * m),
             "thetaupper": lambda p, m, i: (p * qy) ** i <= py**i * m}
    levels = {kind: [ones] + [chain(step, i) for i in range(1, imax + 1)] for kind, step in steps.items()}
    first = levels["thetaupper"][1] & (n > 0) if imax else None
    del n, lpf, parent  # the window loop reads, of the arrays over every n, only the levels
    for kind in ("dense", "strongdense"):
        levels[kind] = [ones, first, *(first.copy() for _ in range(2, imax + 1))][: imax + 1]
    bound = N * max(py, qy)
    for w, n, d in _level1_pairs(first, first, N) if imax > 1 else ():
        for kind in ("dense", "strongdense"):
            _pair_levels(kind, levels[kind], 2, w, n, d, py, qy, bound)
    for t in (smooth, *(t for ts in levels.values() for t in ts)):
        t.setflags(write=False)
    return {"smooth": smooth} | levels


def member_mask(spec: FamilySpec, x: int) -> np.ndarray:
    """The members n <= x of the family, as a bool array over 0..x.

    A chain family, and level 1 or 2 of Dense and StrongDense, is marked by the
    chain tree (_tree_spec).  Dense(i) or StrongDense(i), i >= 3, takes levels 1
    and 2 from the tree, then the level loop of the bulk tables over the divisor
    pairs whose owner is in level 2, since level i lies within it, and is masked
    to the squarefree n for a squarefree spec.  Dense(i) keeps the pair (i - 1, 0),
    so its kept divisors lie in level 2 too; StrongDense's (1, 1) at i = 3 needs
    the divisors in level 1.  The charge counts the members of the divisor level
    by a walk that lists none, before the walks that mark the masks.  No sieve
    and no array over every n but the levels."""
    if x < 1:
        raise DomainError("x must be >= 1")
    if _is_chain(spec):
        _charge("chain", x, 1, 0)
        return _iter_tree(_tree_spec(spec), x, np.zeros(x + 1, dtype=bool))[1]
    strong = spec.kind == "strongdense"
    # the masks of levels 2..i, of level 1 for StrongDense and of the squarefree n
    levels = spec.i - 1 + strong + spec.squarefree
    _charge("tree", x, levels, 0)
    py, qy = spec.y.numerator, spec.y.denominator

    def walked(i, collect):
        return _iter_tree(_tree_spec(FamilySpec(spec.kind, spec.y, i=i)), x, collect)

    # the divisor level's members, counted before any mask is allocated
    _charge("tree", x, levels, walked(1 if strong else 2, False)[0])
    L2 = walked(2, np.zeros(x + 1, dtype=bool))[1]
    L1 = walked(1, np.zeros(x + 1, dtype=bool))[1] if strong else L2
    L = [None, L1, L2] + [L2.copy() for _ in range(3, spec.i + 1)]
    bound = x * max(py, qy)
    for w, n, d in _level1_pairs(L2, L1, x):
        _pair_levels(spec.kind, L, 3, w, n, d, py, qy, bound)
    level = L[spec.i]
    if spec.squarefree:
        level &= _squarefree_mask(x)
    return level


# ---------------------------------------------------------------------------
# Schinzel-Szekeres masks
# ---------------------------------------------------------------------------


def _ssf_within(N: int, beta: Fraction | int, num: int, den: int, e: int) -> np.ndarray:
    """Mask over n = 0..N of key(F_beta(n)) * den <= num * n**e, exact.

    The key of a divisor d is d**qb * P^-(d)**pb (beta = pb/qb).  For each
    prime p | n, the largest divisor of n with least prime p is n_{>=p}, the
    part of n on primes >= p.  So one pass steps m = n, n/P^-(n), ..., 1 with
    P^-(m) = spf[m] and keeps the max of m**qb * spf[m]**pb: the steps reach
    every n_{>=p}, and every other m they reach divides one of them with the
    same least prime, so its key is smaller.  Each step shrinks m, so there
    are at most Omega(n) steps.  The max starts at key 1, F_beta(1)'s.  The
    pass runs window by window over _window_width(N) owners.  Products are
    int32, int64 or Python ints, sized by the largest one compared.  Entry 0
    is False.
    """
    if N < 1:
        raise DomainError("x must be >= 1")
    beta = Fraction(beta)
    if beta <= 0:
        raise DomainError("beta must be > 0")
    pb, qb = beta.numerator, beta.denominator
    # the int32 sieve and the mask hold 5 bytes per n, a window's steps the rest
    _charge("ssf", N, 0, 0)
    spf = sieve_spf(max(N, 2))
    bound = max(N ** (qb + pb) * den, num * N**e)
    ok = np.zeros(N + 1, dtype=bool)
    width = _window_width(N)
    for lo in range(1, N + 1, width):
        n = np.arange(lo, min(lo + width, N + 1))
        top = _exact(np.ones_like(n), bound)
        at, m = np.arange(len(n)), n
        while len(m):  # the owners n[at] are at m
            p = spf[m]
            top[at] = np.maximum(top[at], _exact(m, bound) ** qb * _exact(p, bound) ** pb)
            m = m // p
            live = m > 1
            at, m = at[live], m[live]
        ok[lo : lo + len(n)] = top * den <= num * _exact(n, bound) ** e
    return ok


# ---------------------------------------------------------------------------
# Phi pairs and the exact identities
# ---------------------------------------------------------------------------


def _squarefree_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in primes_upto(math.isqrt(limit)):
        mask[p * p :: p * p] = False
    return mask


def _phi_pairs(x: int, spec: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """(c, ok) over m = 0..x: c[m] counts the pairs n k = m with n a member and
    k = 1 or P^-(k) > theta(n) (k squarefree too in the squarefree variant);
    ok[m] is what the identity asks c[m] to be: 1, or mu^2(m).  Summed to x,
    c gives sum_n Phi(x/n, theta(n)) and ok gives [x] or its squarefree count.
    """
    if x < 1:
        raise DomainError("x must be >= 1")
    if spec.kind not in _B_KINDS:
        raise DomainError("identity applies to chain families")
    if Fraction(spec.y) < 2:
        raise DomainError("theta(n) >= 2 requires y >= 2")
    _charge("phi", x, 0, 0)
    spf = sieve_spf(max(x, 2))
    ok = _squarefree_mask(x) if spec.squarefree else np.ones(x + 1, dtype=bool)
    ok[0] = False
    members = _iter_tree(spec, x, collect=True)[1]
    thetas = _theta(spec, members)
    pos = [members]  # k = 1
    live = thetas < x // members  # a k > 1 has k > theta(n) and k <= x / n
    for n, t in zip(members[live].tolist(), thetas[live].tolist()):
        cap = x // n
        k = np.arange(t + 1, cap + 1)  # P^-(k) > t forces k > t
        pos.append(n * k[(spf[t + 1 : cap + 1] > t) & ok[t + 1 : cap + 1]])
    return np.bincount(np.concatenate(pos), minlength=x + 1), ok


def check_phi_identity_range(x_max: int, spec: FamilySpec) -> bool:
    """Exact check of  [x] = sum over members n of Phi(x/n, theta(n)), or its
    squarefree analogue with Phi_0 on both sides, at every x <= x_max at once:
    each m <= x_max is n k for exactly one pair (for squarefree m only)."""
    c, ok = _phi_pairs(x_max, spec)
    return bool(np.array_equal(c, ok))


def check_partial_density_sum(spec: FamilySpec, N: int) -> float:
    """Partial sum of (1/n) * prod_{p <= theta(n)} (1 - 1/p) over members n <= N
    (squarefree variant uses prod (1 + 1/p)^{-1}); increases to 1 with N."""
    if N < 1:
        raise DomainError("N must be >= 1")
    if spec.kind not in _B_KINDS:
        raise DomainError("density sum applies to chain families")
    members = np.sort(_iter_tree(spec, N, collect=True)[1])
    ts = _theta(spec, members)
    parr = prime_array(int(ts.max())).astype(float)
    factors = 1.0 / (1.0 + 1.0 / parr) if spec.squarefree else 1.0 - 1.0 / parr
    prefix = np.concatenate(([1.0], np.cumprod(factors)))
    return sum((prefix[np.searchsorted(parr, ts, "right")] / members).tolist())


def check_ssf_identity_range(x_max: int, y: Fraction | int, beta: Fraction | int) -> bool:
    """Per-n form of |{n <= x : F_beta(n)/n <= y^beta}| = B_{1/beta}(x, y):
    F_beta(n) <= n y^beta iff n is a member of the a = 1/beta chain family,
    for every n <= x_max.  Implies the counting identity at every x <= x_max."""
    y, beta = Fraction(y), Fraction(beta)
    if y < 2:
        raise DomainError("y must be >= 2")
    pb, qb = beta.numerator, beta.denominator
    # F_beta(n) <= n y^beta  <=>  key * y_den^pb <= n^qb * y_num^pb
    ok = _ssf_within(x_max, beta, y.numerator**pb, y.denominator**pb, qb)
    return bool(np.array_equal(ok, member_mask(FamilySpec("bpower", y, a=1 / beta), x_max)))


def theta2_of(m: int, y: Fraction) -> Fraction:
    """theta(m) = y * max over Dense(1)-divisors d of min(m/d, d), the divisors
    from _level1_divisors, the oracle's routine.  min(m/d, d) rises with d up
    to sqrt(m) and falls after it, so the max is at one of the two divisors
    around sqrt(m)."""
    divs = _level1_divisors(factorize(m), y)
    k = bisect_right(divs, math.isqrt(m))  # divs[0] = 1 <= isqrt(m) < divs[k]
    return y * max(divs[k - 1], m // divs[k] if k < len(divs) else 1)


def check_factorization_lemma(
    n: int | FactoredInteger,
    i: int,
    y: Fraction | int,
    R: Fraction | int,
    v: int,
    w: int,
) -> bool:
    """For n in the ThetaLower(i) family, 1 <= R <= y n and v + w = i - 1:
    some factorization n = d_v d_w has R/y <= d_w <= R with d_w in level w,
    d_v in level v (level 0 is every integer)."""
    y = Fraction(y)
    R = Fraction(R)
    f = n if isinstance(n, FactoredInteger) else factorize(n)
    if v < 0 or w < 0 or v + w != i - 1:
        raise DomainError("need v, w >= 0 with v + w = i - 1")
    if not (1 <= R <= y * f.n):
        raise DomainError("need 1 <= R <= y n")
    spec_i = FamilySpec("thetalower", y, i=i)
    if not is_member(f, spec_i):
        raise DomainError(f"{f.n} is not in the ThetaLower({i}) family for y={y}")

    def level_member(k: int, j: int) -> bool:
        if j == 0:
            return True
        return is_member(k, FamilySpec("thetalower", y, i=j))

    lo = R / y
    for dw in divisors(f):
        if lo <= dw <= R and level_member(dw, w) and level_member(f.n // dw, v):
            return True
    return False
