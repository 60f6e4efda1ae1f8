"""The three workloads: seeded inputs, the timed program calls, and the checks.

Each workload is a fixed list of operations.  ``make_inputs(seed)`` builds
them as plain JSON data; ``run`` makes the program calls (one timed call per
operation) in the worker process; ``post`` makes the untimed calls that a
check needs from a second route through the program; ``references`` builds
the independent values in the runner, and ``check`` compares.

``check`` returns one ``(op, check_name, ok)`` triple per check.  A check
listed in ``KNOWN_FAULTS`` fails today because of a fault in the program; the
operation is counted as failed and the result stays correct.  Any other
failing check makes the result incorrect.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction

import refs

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _frac(text) -> Fraction:
    return Fraction(str(text))


def _spec(families, d: dict):
    kw = {"squarefree": d.get("sf", False)}
    if "i" in d:
        kw["i"] = d["i"]
    if "a" in d:
        kw["a"] = _frac(d["a"])
    return families.FamilySpec(d["kind"], _frac(d["y"]), **kw)


def _param(d: dict):
    return d["i"] if "i" in d else (_frac(d["a"]) if "a" in d else None)


# ---------------------------------------------------------------------------
# paper_constants
# ---------------------------------------------------------------------------

STRIP_A1 = (-3.02, -0.99, 0.1, 11.3)
ZERO_RECT_A1 = (-3.6, -2.5, 10.8, 11.9)
RHO_U_MAX = 30


def pc_inputs(seed: int) -> dict:
    """The paper's parameters: the same operations, in the same order, for
    every seed, so that a cache shared between operations cannot make the
    cost depend on the seed."""
    ops = [["lambda", i] for i in range(1, 11)]
    ops += [["rho_table", a] for a in (0, 1)]
    ops += [["strip_zeros"], ["complex_zero"]]
    return {"ops": ops}


def pc_run(dd, inputs, timed) -> dict:
    out = {}
    for op in inputs["ops"]:
        key = ":".join(map(str, op))
        if op[0] == "lambda":
            cert = timed(dd.gzero.find_lambda, Fraction(1, op[1]))
            out[key] = {"lam": cert.lam, "C": cert.C, "residual": cert.residual}
        elif op[0] == "rho_table":
            t = timed(dd.rho.build_rho_table, Fraction(op[1]), RHO_U_MAX)
            out[key] = {"us": t.us.tolist(), "values": t.values.tolist(), "accuracy": t.accuracy}
        elif op[0] == "strip_zeros":
            out[key] = timed(dd.gzero.count_zeros_rect, 1, STRIP_A1)
        else:
            z = timed(dd.gzero.locate_zero_in_rect, 1, ZERO_RECT_A1, 0.01)
            out[key] = [z.real, z.imag]
    return out


def pc_post(dd, inputs, out) -> dict:
    """g_a(-lambda_a) by the integral route, which the series route located."""
    res = {}
    for i in range(1, 11):
        lam = out[f"lambda:{i}"]["lam"]
        res[f"g_integral:{i}"] = abs(dd.gzero.g_eval_integral(Fraction(1, i), -lam))
    return res


def pc_references(inputs) -> dict:
    return {"self_test": refs.dickman_self_test()}


def pc_check(inputs, out, post, ref) -> list:
    import numpy as np

    res = []
    for i in range(1, 11):
        op = f"lambda:{i}"
        lam, C = out[op]["lam"], out[op]["C"]
        res.append((op, "lambda matches the paper", refs.matches_digits(lam, refs.LAMBDA_DIGITS[i])))
        res.append((op, "C matches the paper", refs.matches_digits(C, refs.C_DIGITS[i])))
        # the integral route is accurate to ~1e-9 (1 + |s|)
        res.append((op, "g_integral(-lambda) ~ 0", post[f"g_integral:{i}"] < 1e-7 * (1.0 + lam)))
        if i == 1:
            res.append((op, "lambda_1 = 1", lam == 1.0))
            res.append((op, "C_1 = 1/(1 - e^-gamma)", abs(C / refs.C1_EXACT - 1.0) < 1e-6))
    for a in (0, 1):
        op = f"rho_table:{a}"
        us = np.array(out[op]["us"])
        vals = np.array(out[op]["values"])
        acc = out[op]["accuracy"]
        if a == 0:
            ok = ref["self_test"] == [] and bool(np.all(np.abs(vals - refs.dickman_rho(us)) <= acc))
            res.append((op, "rho_0 agrees with the delay-equation reference", ok))
            res.append((op, "rho_0 >= 0", bool(np.all(vals >= 0.0))))
        else:
            head = us <= 2.0
            closed = 1.0 + np.log((1.0 + us[head]) / (2.0 * np.maximum(us[head], 1.0)))
            closed[us[head] <= 1.0] = 1.0
            res.append((op, "rho_1 = 1 + log((1+u)/(2u)) on [1, 2]",
                        bool(np.all(np.abs(vals[head] - closed) <= acc))))
            res.append((op, "rho_1 >= 0", bool(np.all(vals >= 0.0))))
            r20 = float(vals[np.argmin(np.abs(us - 20.0))])
            # rho_1(u) (1+u) -> C_1; the next zero of g_1 (Re = -3.03) bounds
            # the remainder at u = 20 by a relative ~21^-2
            res.append((op, "rho_1(20) * 21 ~ C_1", abs(r20 * 21.0 / refs.C1_EXACT - 1.0) < 1e-2))
    res.append(("strip_zeros", "no zero in the strip", out["strip_zeros"] == 0))
    z = complex(*out["complex_zero"])
    res.append(("complex_zero", "zero at the paper's location", abs(z - refs.COMPLEX_ZERO_A1) < 0.05))
    return res


# ---------------------------------------------------------------------------
# family_counts
# ---------------------------------------------------------------------------

# (op name, family, x): fixed, and run in this order for every seed
FC_CASES = [
    ("bpower", {"kind": "bpower", "y": "100", "a": "1"}, 10**7),
    ("bstar_sf", {"kind": "bstar", "y": "100", "a": "2/3", "sf": True}, 10**7),
    ("thetalower2", {"kind": "thetalower", "y": "100", "i": 2}, 10**7),
    ("dense2", {"kind": "dense", "y": "10", "i": 2}, 10**6),
    ("dense3", {"kind": "dense", "y": "2", "i": 3}, 10**6),
    ("strong3", {"kind": "strongdense", "y": "2", "i": 3}, 10**6),
    ("smooth_y2", {"kind": "smooth", "y": "2"}, 10**6),
    ("thetalower3", {"kind": "thetalower", "y": "2", "i": 3}, 10**6),
    ("thetaupper3", {"kind": "thetaupper", "y": "2", "i": 3}, 10**6),
]
SMOOTH_MODEL = {"kind": "smooth", "y": "3"}
RATIO_FAMILY = {"kind": "bpower", "y": "100", "a": "1"}
RATIO_XS = [10**4, 10**5, 10**6]
DENSE2_SUPERSET = {"kind": "thetaupper", "y": "10", "i": 2}
SANDWICH_I3 = ["smooth_y2", "thetalower3", "strong3", "dense3", "thetaupper3"]


def fc_inputs(seed: int) -> dict:
    """The seed sets only x_small, where every family is also counted by
    brute force from its definition."""
    ops = [["count", name] for name, _, _ in FC_CASES]
    ops += [["small", name] for name, _, _ in FC_CASES]
    ops += [["smooth_model"]] + [["ratio", x] for x in RATIO_XS]
    return {"ops": ops, "x_small": random.Random(seed).randrange(2000, 4001)}


def fc_run(dd, inputs, timed) -> dict:
    cases = {name: (fam, x) for name, fam, x in FC_CASES}
    out = {}
    for op in inputs["ops"]:
        key = ":".join(map(str, op))
        if op[0] in ("count", "small"):
            fam, x = cases[op[1]]
            x = x if op[0] == "count" else inputs["x_small"]
            out[key] = timed(dd.families.count_members, _spec(dd.families, fam), x)
        else:
            fam, x = (SMOOTH_MODEL, 10**6) if op[0] == "smooth_model" else (RATIO_FAMILY, op[1])
            rep = timed(dd.families.count_family, _spec(dd.families, fam), x)
            out[key] = {"count": rep.count, "u": rep.u, "model": rep.model, "ratio": rep.ratio}
    return out


def fc_post(dd, inputs, out) -> dict:
    """Dense(2) by the oracle filter over the ThetaUpper(2) superset."""
    fam = dd.families
    (d2, x), = [(f, x) for name, f, x in FC_CASES if name == "dense2"]
    spec = _spec(fam, d2)
    superset = fam.enumerate_members(_spec(fam, DENSE2_SUPERSET), x)
    return {"dense2_filtered": sum(1 for n in superset if fam.is_member(n, spec))}


def fc_references(inputs) -> dict:
    def fam(d):
        return (d["kind"], _frac(d["y"]), _param(d), d.get("sf", False))

    chain = {name: (f, x) for name, f, x in FC_CASES if f["kind"] not in ("dense", "strongdense")}
    ref = {}
    # x = 1e7 families; RATIO_FAMILY is the bpower case, read at RATIO_XS
    names7 = [n for n, (_, x) in chain.items() if x == 10**7]
    counts = refs.chain_counts([fam(chain[n][0]) for n in names7], RATIO_XS + [10**7])
    ref.update({f"count:{n}": c[-1] for n, c in zip(names7, counts)})
    ref.update({f"ratio:{x}": c for x, c in zip(RATIO_XS, counts[names7.index("bpower")])})
    names6 = [n for n, (_, x) in chain.items() if x == 10**6]
    counts = refs.chain_counts([fam(chain[n][0]) for n in names6] + [fam(SMOOTH_MODEL), fam(DENSE2_SUPERSET)],
                               [10**6])
    ref.update({f"count:{n}": c[0] for n, c in zip(names6, counts)})
    ref["smooth_model"], ref["dense2_superset"] = counts[-2][0], counts[-1][0]
    # brute force from the definitions at the small x
    xs = inputs["x_small"]
    dense_refs = {}
    for name, fam, _ in FC_CASES:
        y = _frac(fam["y"])
        if fam["kind"] in ("dense", "strongdense"):
            dr = dense_refs.setdefault(y, refs.DenseReference(y))
            ref[f"small:{name}"] = sum(dr.member(fam["kind"], n, fam["i"]) for n in range(1, xs + 1))
        else:
            ref[f"small:{name}"] = sum(
                refs.chain_member(fam["kind"], y, _param(fam), n, fam.get("sf", False))
                for n in range(1, xs + 1)
            )
    return ref


def fc_check(inputs, out, post, ref) -> list:
    res = []
    for name, _, _ in FC_CASES:
        res.append((f"small:{name}", "count = brute force from the definition",
                    out[f"small:{name}"] == ref[f"small:{name}"]))
        op = f"count:{name}"
        if op in ref:
            res.append((op, "count = sieve reference", out[op] == ref[op]))
    res.append(("count:dense2", "tree count = oracle-filtered ThetaUpper(2) count",
                out["count:dense2"] == post["dense2_filtered"]))
    res.append(("count:dense2", "Dense(2) <= ThetaUpper(2)", out["count:dense2"] <= ref["dense2_superset"]))
    chain = [out[f"count:{name}"] for name in SANDWICH_I3]
    sandwich_ok = all(lo <= hi for lo, hi in zip(chain, chain[1:]))
    for name in ("dense3", "strong3"):
        res.append((f"count:{name}", "smooth <= ThetaLower(3) <= StrongDense(3) <= Dense(3) <= ThetaUpper(3)",
                    sandwich_ok))
    sm = out["smooth_model"]
    res.append(("smooth_model", "count = sieve reference", sm["count"] == ref["smooth_model"]))
    # x rho_0(u) from the delay-equation reference; 1e-8 is the table's stated accuracy
    want = 10**6 * float(refs.dickman_rho(sm["u"])[0])
    res.append(("smooth_model", "model withheld, or positive and within x * 1e-8 of x rho_0(u)",
                sm["model"] is None or (sm["model"] > 0 and abs(sm["model"] - want) <= 10**6 * 1e-8)))
    for x in RATIO_XS:
        r = out[f"ratio:{x}"]
        res.append((f"ratio:{x}", "count = sieve reference", r["count"] == ref[f"ratio:{x}"]))
        ok = r["model"] is not None and 0 < r["model"] <= x and r["ratio"] == r["count"] / r["model"]
        if ok and r["u"] <= 2.0:
            # closed form of rho_1 on [1, 2]
            closed = 1.0 + math.log((1.0 + r["u"]) / (2.0 * r["u"]))
            ok = abs(r["model"] - x * closed) <= x * 1e-8
        res.append((f"ratio:{x}", "model positive, below x, and exact on [1, 2]", ok))
    return res


# ---------------------------------------------------------------------------
# member_queries
# ---------------------------------------------------------------------------

MQ_YS = ["2", "5/2", "10"]
MQ_LEVELS = (1, 2, 3, 4)
MQ_KINDS = ("dense", "strongdense")
MQ_BIG = (10**7, 10**9)      # single queries: trial-division factorisation
MQ_SMALL = (10**3, 10**5)    # also answered by the bulk tables
MQ_TABLE_N = 10**5
MQ_TABLE_REF_N = 1500        # table prefix compared with the definitions
MQ_PER_STRATUM = {"big": 40, "small": 20}
_TEMPLATES = 4
_PRIMES: list[int] = []


def _primes() -> list[int]:
    if not _PRIMES:
        n = 2_000_000
        sieve = bytearray([1]) * (n + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
        _PRIMES.extend(i for i in range(n + 1) if sieve[i])
    return _PRIMES


def _pick(rng, lo: float, hi: float):
    pr = _primes()
    a, b = bisect.bisect_left(pr, lo), bisect.bisect_right(pr, hi)
    return pr[rng.randrange(a, b)] if a < b else None


def _tu_allows(y: Fraction, i: int, p: int, m: int) -> bool:
    """p <= y m^(1/i), exactly: the ThetaUpper(i) chain condition."""
    return p**i * y.denominator**i <= y.numerator**i * m


def _template(y: Fraction, i: int, lo: int, hi: int, rng) -> list[int]:
    """A ThetaUpper(i) chain prefix q_1 <= ... <= q_k whose product m has
    2 lo <= m y m^(1/i) <= hi/4, so that both bands for the last prime,
    [t/2, t] and (t, 2t] with t = y m^(1/i), lie inside [lo, hi]."""
    while True:
        m, prev, out = 1, 2, []
        while True:
            t = float(y) * m ** (1.0 / i)
            if m * t >= 2 * lo:
                break
            p = _pick(rng, prev, t)
            out.append(p)
            m, prev = m * p, p
        if m * t <= hi / 4:
            return out


def _query(y: Fraction, i: int, lo: int, hi: int, template: list[int], member: bool, rng) -> int:
    """Primes drawn from fixed bands around the template primes (each band is
    [q, 1.25 q], a single prime below 11), then one last prime just inside
    (member) or just outside (non-member) the ThetaUpper(i) boundary."""
    for _ in range(1000):
        ps = sorted(q if q < 11 else _pick(rng, q, 1.25 * q) for q in template)
        m = 1
        for p in ps:
            if not _tu_allows(y, i, p, m):
                break
            m *= p
        else:
            t = float(y) * m ** (1.0 / i)
            prev = ps[-1] if ps else 2
            if member:
                p = _pick(rng, max(prev, t / 2, lo / m), min(t, hi / m))
            else:
                p = _pick(rng, max(prev, t, lo / m), min(2 * t, hi / m))
            if p is not None and _tu_allows(y, i, p, m) == member:
                return m * p
    raise RuntimeError(f"no query for y={y} i={i} from template {template}")


def mq_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    queries = []
    for ys in MQ_YS:
        y = _frac(ys)
        for i in MQ_LEVELS:
            for size, (lo, hi) in (("big", MQ_BIG), ("small", MQ_SMALL)):
                # templates depend on the stratum only: the bands are fixed
                trng = random.Random(f"{ys}/{i}/{size}")
                temps = [_template(y, i, lo, hi, trng) for _ in range(_TEMPLATES)]
                for kind in MQ_KINDS:
                    for k in range(MQ_PER_STRATUM[size]):
                        n = _query(y, i, lo, hi, temps[k % _TEMPLATES], k % 2 == 0, rng)
                        queries.append([kind, ys, i, n])
    rng.shuffle(queries)
    return {"queries": queries}


def mq_run(dd, inputs, timed) -> dict:
    fam = dd.families
    answers = [
        timed(fam.is_member, n, fam.FamilySpec(kind, _frac(ys), i=i))
        for kind, ys, i, n in inputs["queries"]
    ]
    tables = {ys: timed(fam.membership_tables, MQ_TABLE_N, _frac(ys), max(MQ_LEVELS)) for ys in MQ_YS}
    return {"answers": answers, "tables": tables}


def mq_post(dd, inputs, out) -> dict:
    """Reduce the bulk tables to what the checks read: the answers at the
    small query n, a prefix and the sandwich violations.
    The tables leave ``out`` here, since they are too large to pass on."""
    import numpy as np

    tables = {
        ys: {kind: [np.frombuffer(bytes(b), dtype=np.uint8) for b in t[kind]]
             for kind in ("thetalower", "thetaupper", "dense", "strongdense")}
        | {"smooth": np.frombuffer(bytes(t["smooth"]), dtype=np.uint8)}
        for ys, t in out.pop("tables").items()
    }
    summary = {}
    for ys, t in tables.items():
        violations = 0
        for i in MQ_LEVELS:
            chain = [t["smooth"], t["thetalower"][i], t["strongdense"][i], t["dense"][i], t["thetaupper"][i]]
            violations += sum(int(np.count_nonzero(lo[1:] > hi[1:])) for lo, hi in zip(chain, chain[1:]))
        summary[ys] = {
            "sandwich_violations": violations,
            "prefix": {kind: [t[kind][i][1 : MQ_TABLE_REF_N + 1].tolist() for i in MQ_LEVELS]
                       for kind in MQ_KINDS},
        }
    answers = [
        int(tables[ys][kind][i][n]) if n <= MQ_TABLE_N else None
        for kind, ys, i, n in inputs["queries"]
    ]
    return {"tables": summary, "table_answers": answers}


def mq_references(inputs) -> dict:
    dense = {ys: refs.DenseReference(_frac(ys)) for ys in MQ_YS}
    answers = [dense[ys].member(kind, n, i) for kind, ys, i, n in inputs["queries"]]
    prefix = {
        ys: {kind: [[dense[ys].member(kind, n, i) for n in range(1, MQ_TABLE_REF_N + 1)] for i in MQ_LEVELS]
             for kind in MQ_KINDS}
        for ys in MQ_YS
    }
    return {"answers": answers, "prefix": prefix}


def mq_check(inputs, out, post, ref) -> list:
    res = []
    tables = post["tables"]
    for k, ((kind, ys, i, n), got) in enumerate(zip(inputs["queries"], out["answers"])):
        op = f"is_member:{k}"
        res.append((op, "is_member = definition", got == ref["answers"][k]))
        if n <= MQ_TABLE_N:
            res.append((op, "is_member = membership_tables", got == bool(post["table_answers"][k])))
    for ys in MQ_YS:
        op = f"membership_tables:{ys}"
        t = tables[ys]
        res.append((op, "smooth <= ThetaLower <= StrongDense <= Dense <= ThetaUpper", t["sandwich_violations"] == 0))
        same = all(
            [bool(v) for v in t["prefix"][kind][k]] == ref["prefix"][ys][kind][k]
            for kind in MQ_KINDS
            for k in range(len(MQ_LEVELS))
        )
        res.append((op, f"tables = definitions for n <= {MQ_TABLE_REF_N}", same))
    return res


WORKLOADS = {
    "paper_constants": dict(inputs=pc_inputs, run=pc_run, post=pc_post, references=pc_references, check=pc_check),
    "family_counts": dict(inputs=fc_inputs, run=fc_run, post=fc_post, references=fc_references, check=fc_check),
    "member_queries": dict(inputs=mq_inputs, run=mq_run, post=mq_post, references=mq_references, check=mq_check),
}

# (op prefix, check name): checks that fail today because of a program fault
KNOWN_FAULTS = {
    ("rho_table:0", "rho_0 >= 0"):
        "the 1 - integral form loses relative accuracy once rho_a < ~1e-8; "
        "the rho_0 table goes negative from u ~ 9.66",
    ("smooth_model", "model withheld, or positive and within x * 1e-8 of x rho_0(u)"):
        "count_family(smooth, y=3, x=1e6) emits x rho_0(12.58) from that tail: "
        "model -0.000054, ratio -2614732",
}
