"""A ratchet on the package's options: defaulted parameters and defaulted
dataclass fields under src/densediv.  A new option has to raise the bound
here on purpose; removing one should lower it."""

import ast
from pathlib import Path

import densediv

KNOB_BOUND = 12


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def count_knobs(source: str) -> int:
    """Defaulted parameters of every function and lambda, and fields with a
    default in every @dataclass class body."""
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return n


def test_count_knobs_counts_each_kind():
    src = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class S:\n"
        "    u: int\n"
        "    v: int = 3\n"
        "class T:\n"
        "    w: int = 4\n"
    )
    assert count_knobs(src) == 4


def test_defaulted_parameters_and_fields_at_most_the_bound():
    pkg = Path(densediv.__file__).parent
    counts = {p.name: count_knobs(p.read_text()) for p in sorted(pkg.glob("*.py"))}
    assert sum(counts.values()) <= KNOB_BOUND, counts
