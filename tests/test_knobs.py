"""Two ratchets on the package.  Options: defaulted parameters and defaulted
dataclass fields under src/densediv; a new option has to raise the bound here
on purpose, and removing one should lower it.  Reach: every top-level function
and class under src/densediv is reached from a CLI command."""

import ast
from pathlib import Path

import densediv

KNOB_BOUND = 10


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


def _global_refs(node: ast.AST) -> set[str]:
    """The names node reads (Name loads and attribute names), less, in a
    function, its parameters and the names it assigns."""
    read, local = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            (local if isinstance(sub.ctx, ast.Store) else read).add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.arg):
            local.add(sub.arg)
    return read - local if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else read


def unreached(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes, as module.name, that no click
    command reaches through the names read by the definitions and module-level
    assignments it reaches.  Names are matched across modules, so a name
    defined twice is reached in both places."""
    defs, reads, roots = {}, {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node.name
                reads.setdefault(node.name, set()).update(_global_refs(node))
                for dec in node.decorator_list:  # @main.command(...), @click.group()
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
                        roots.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            reads.setdefault(name.id, set()).update(_global_refs(node.value))
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(reads.get(name, ()))
    return sorted(qual for qual, name in defs.items() if name not in seen)


def test_unreached_names_dead_definitions():
    src = (
        "import click\n"
        "@click.group()\n"
        "def main(): pass\n"
        "@main.command()\n"
        "def run(): helper(); OPTS\n"
        "OPTS = [Param()]\n"
        "class Param: pass\n"
        "def helper(divisors): return divisors\n"
        "def divisors(): pass\n"
        "def only_tests(): helper()\n"
    )
    assert unreached({"m": src}) == ["m.divisors", "m.only_tests"]


def test_every_definition_reached_from_a_command():
    # __init__ only re-exports: a name there is not reached by a command
    pkg = Path(densediv.__file__).parent
    sources = {p.stem: p.read_text() for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"}
    assert unreached(sources) == []
