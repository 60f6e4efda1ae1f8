"""Per-layer tracing from outside the program, for the traced run only.

``Tracer.install`` replaces module-level functions of densediv with
wrappers that time each call as a span.  Because the package's modules
import each other's functions by name, every module attribute that holds
the function is replaced, so calls from one layer into another go through
the wrapper.  A layer is a module: integers, families, specfun, rho, gzero
(cli runs only at import, which ``setup.*`` covers).

Spans are folded as they close: each keeps the time its child spans cover,
so a layer's self time is span time minus child time, with no span list
kept in memory.  A function's inclusive time counts only its outermost
calls, so a recursive call is not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer, function name): the functions that get spans.  Names that a later
# version of the package drops are skipped and their metrics read 0.
SPANNED = {
    "integers": ["factorize", "divisors", "sieve_spf", "primes_upto", "divisor_lists"],
    "families": ["is_member", "count_members", "count_family", "enumerate_members",
                 "membership_tables", "_iter_tree", "_count_dense2_tree"],
    "specfun": ["b_coefficients", "buchstab_omega", "build_omega_table", "_lower_series", "_upper_cf"],
    "rho": ["build_rho_table", "cached_rho_table"],
    "gzero": ["find_lambda", "residue_C", "g_eval_series", "_g_series_float", "g_eval_integral",
              "g_eval_integral_many", "count_zeros_rect", "locate_zero_in_rect", "g_eval_neg_int"],
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [start, child time, tag]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.depth: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.is_member_us: list[float] = []
        self.originals: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg_modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "densediv" or name.startswith("densediv."))]
        for layer, names in SPANNED.items():
            mod = sys.modules.get(f"densediv.{layer}")
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                key = f"{layer}.{name.lstrip('_')}"
                self.originals[key] = fn
                wrapped = self._wrap(layer, key, fn)
                for m in pkg_modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapped)
        oracle = getattr(sys.modules.get("densediv.families"), "FamilyOracle", None)
        if oracle is not None:
            for meth, memo in (("dense", "_dense"), ("strong", "_strong")):
                if hasattr(oracle, meth):
                    setattr(oracle, meth, self._count_oracle(getattr(oracle, meth), memo))

    def _count_oracle(self, fn, memo_attr):
        extra = self.extra

        def counted(orc, n, i):
            extra["oracle.calls"] += 1
            memo = getattr(orc, memo_attr, None)
            if i > 0 and n != 1 and memo is not None:
                extra["oracle.lookups"] += 1
                if (i, n) in memo:
                    extra["oracle.hits"] += 1
            return fn(orc, n, i)

        return counted

    def _wrap(self, layer, key, fn):
        stack, self_s, incl_s, calls, depth = self.stack, self.self_s, self.incl_s, self.calls, self.depth
        extra, is_member_us = self.extra, self.is_member_us
        clock = time.perf_counter
        tag_of = _TAGGERS.get(key)
        after = _AFTER.get(key)

        def wrapper(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            frame = [clock(), 0.0, tag]
            stack.append(frame)
            depth[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                depth[key] -= 1
                calls[key] += 1
                self_s[layer] += dur - frame[1]
                if depth[key] == 0:
                    incl_s[key] += dur
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if parent[2] == "filter" and key == "families.enumerate_members":
                        extra["superset_filter.s"] -= dur
                if tag == "filter":
                    extra["superset_filter.s"] += dur
                if key == "families.is_member":
                    is_member_us.append(dur * 1e6)
            if after:
                after(extra, args, kwargs, result)
            return result

        return wrapper

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict:
        s, c, e = self.incl_s, self.calls, self.extra
        fam = sys.modules.get("densediv.families")
        memo_entries = sum(
            len(getattr(o, "_dense", ())) + len(getattr(o, "_strong", ()))
            for o in getattr(fam, "_ORACLES", {}).values()
        )
        cached = self.originals.get("rho.cached_rho_table")
        misses = cached.cache_info().misses if hasattr(cached, "cache_info") else 0
        im = sorted(self.is_member_us)
        return {
            "integers.self_s": self.self_s["integers"],
            "integers.factorize.calls": c["integers.factorize"],
            "integers.factorize.s": s["integers.factorize"],
            "integers.divisors.calls": c["integers.divisors"],
            "integers.sieve_spf.s": s["integers.sieve_spf"],
            "integers.divisor_lists.s": s["integers.divisor_lists"],
            "integers.primes_upto.s": s["integers.primes_upto"],
            "families.self_s": self.self_s["families"],
            "families.chain_tree.s": s["families.iter_tree"],
            "families.dense2_tree.s": s["families.count_dense2_tree"],
            "families.superset_filter.s": e["superset_filter.s"],
            "families.chain_tree.members_per_s": _ratio(e["chain_tree.members"], s["families.iter_tree"]),
            "families.is_member.calls": c["families.is_member"],
            "families.is_member.p50_us": _quantile(im, 0.50),
            "families.is_member.p99_us": _quantile(im, 0.99),
            "families.oracle.calls": int(e["oracle.calls"]),
            "families.oracle.memo_entries": memo_entries,
            "families.oracle.hit_ratio": _ratio(e["oracle.hits"], e["oracle.lookups"]),
            "families.membership_tables.s": s["families.membership_tables"],
            "specfun.self_s": self.self_s["specfun"],
            "specfun.b_coefficients.s": s["specfun.b_coefficients"],
            "specfun.buchstab_omega.calls": c["specfun.buchstab_omega"],
            "specfun.build_omega_table.s": s["specfun.build_omega_table"],
            "rho.self_s": self.self_s["rho"],
            "rho.build_rho_table.s": s["rho.build_rho_table"],
            "rho.grid_points": int(e["rho.grid_points"]),
            "rho.grid_points_per_s": _ratio(e["rho.grid_points"], s["rho.build_rho_table"]),
            "rho.cached_rho_table.misses": misses,
            "gzero.self_s": self.self_s["gzero"],
            "gzero.find_lambda.s": s["gzero.find_lambda"],
            "gzero.g_eval_series.calls": c["gzero.g_eval_series"],
            "gzero.g_eval_series.s": s["gzero.g_eval_series"],
            "gzero.g_series_float.calls": c["gzero.g_series_float"],
            "gzero.g_series_float.s": s["gzero.g_series_float"],
            "gzero.residue_C.s": s["gzero.residue_C"],
            "gzero.count_zeros_rect.s": s["gzero.count_zeros_rect"],
            "gzero.g_eval_integral.points": int(e["g_eval_integral.points"]),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _filter_tag(args, kwargs):
    """enumerate_members on Dense(i >= 3) or StrongDense: superset plus filter."""
    spec = args[0] if args else kwargs.get("spec")
    kind = getattr(spec, "kind", None)
    if kind == "strongdense" or (kind == "dense" and getattr(spec, "i", None) != 2):
        return "filter"
    return None


def _after_tree(extra, args, kwargs, result):
    extra["chain_tree.members"] += result[0]


def _after_rho(extra, args, kwargs, result):
    extra["rho.grid_points"] += len(result.us)


def _after_integral(extra, args, kwargs, result):
    extra["g_eval_integral.points"] += len(args[1]) if len(args) > 1 else len(kwargs["s_values"])


_TAGGERS = {"families.enumerate_members": _filter_tag}
_AFTER = {
    "families.iter_tree": _after_tree,
    "rho.build_rho_table": _after_rho,
    "gzero.g_eval_integral_many": _after_integral,
}


def scipy_import_s(stderr_text: str) -> float:
    """Cumulative import time of scipy.special, from ``python -X importtime``
    output; 0 when the package did not import it."""
    for line in stderr_text.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "scipy.special":
            return int(parts[1]) * 1e-6
    return 0.0
