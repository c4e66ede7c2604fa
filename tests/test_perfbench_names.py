"""Every euclid2 name the benchmark harness reads or rebinds still exists.

`perfbench/` reaches the package through the namespace `load_euclid2()`
returns, one attribute per module (`m.cr`, `m.geo`, ...), and its tracer
rebinds functions with `_patch(owner, "name", wrapper)`.  A deletion in
`src` that one of them still names would break the harness only when it
runs.  This test reads the harness as source, without importing or
running it, and resolves each such name against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = sorted(PERFBENCH.glob("*.py")) + sorted(PERFBENCH.glob("probes/*.py"))


def _aliases() -> dict[str, str]:
    """The `names` dict of `load_euclid2`: namespace attribute -> module."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["names"]:
            return ast.literal_eval(node.value)
    raise AssertionError("load_euclid2 no longer has a `names` dict")


ALIASES = _aliases()


def _chain(node) -> list[str] | None:
    """The names after the namespace in `m.a.b...` or `self.m.a.b...`."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
        if ast.unparse(node) in ("m", "self.m"):
            return names[::-1]
    return None


def _tuples(tree) -> dict[str, tuple]:
    """Module-level names bound to a literal tuple of strings."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = ast.literal_eval(node.value)
    return out


def _patched_names(call, loops, tuples):
    """The attribute names a `_patch` call rebinds: its constant, or each
    value of the enclosing `for` over a module-level tuple; None when the
    names come from iterating the owner itself (a dict's own keys)."""
    attr = call.args[1]
    if isinstance(attr, ast.Constant):
        return [attr.value]
    loop = next(lp for lp in reversed(loops) if ast.unparse(lp.target) == ast.unparse(attr))
    if ast.unparse(loop.iter) == ast.unparse(call.args[0]):
        return None
    return tuples[loop.iter.id]


def uses(path: Path) -> set[tuple[str, ...]]:
    """Each chain of names the file reads after the namespace, and each
    `_patch` target as the owner's chain plus the attribute it rebinds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tuples = _tuples(tree)
    found = set()

    def visit(node, loops):
        if isinstance(node, ast.Attribute):
            chain = _chain(node)
            if chain is not None:
                found.add(tuple(chain))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_patch"):
            chain = _chain(node.args[0])
            names = _patched_names(node, loops, tuples)
            if chain is not None and names is not None:
                found.update((*chain, name) for name in names)
        if isinstance(node, ast.For):
            loops = loops + [node]
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, [])
    return found


def _resolve(chain: tuple[str, ...]):
    alias, *rest = chain
    assert alias in ALIASES, f"no module behind m.{alias}"
    obj = importlib.import_module("euclid2." + ALIASES[alias])
    for name in rest:
        assert hasattr(obj, name), f"euclid2.{ALIASES[alias]} has no {'.'.join(rest)}"
        obj = getattr(obj, name)
    return obj


ALL_USES = sorted({chain for path in FILES for chain in uses(path)})


@pytest.mark.parametrize("chain", ALL_USES, ids=".".join)
def test_a_name_the_harness_reads_exists(chain):
    _resolve(chain)


def test_the_scan_sees_what_the_harness_uses():
    """The reads and rebinds the harness is known to make are all found,
    so an empty or partial scan cannot pass for a clean one."""
    expected = {
        ("cr", "Expr", "_table"),
        ("cr", "max_bits_budget"),
        ("cr", "Expr", "interval"),
        ("cr", "refine_sign"),
        ("cr", "add"),
        ("cr", "sqrt"),
        ("geo", "coverage_equal"),
        ("geo", "point_in_polygon"),
        ("dg", "realize"),
        ("rules", "_HANDLERS"),
        ("rules", "_resolve_premises"),
        ("orc", "check_numeric_detailed"),
        ("errors", "Undecidable"),
    }
    assert expected <= set(ALL_USES)
