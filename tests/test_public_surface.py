"""No helper only the tests call: every public top-level function or class
of `dtst` is used elsewhere in the package, or is a name the benchmark's
tracer wraps by module attribute."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402


def test_every_public_definition_is_used_in_the_package():
    trees = {path.stem: ast.parse(path.read_text())
             for path in (ROOT / "src" / "dtst").glob("*.py")}
    traced = {(module, fn) for module, fns in tracer.TRACED.items() for fn in fns}
    traced |= {("tensor", op) for op in tracer.TENSOR_OPS}
    # (node id, name) of every name read or attribute taken in the package
    uses = [(id(node), node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or (module, node.name) in traced):
                continue
            inside = set(map(id, ast.walk(node)))  # a use in its own body does not count
            if not any(name == node.name and at not in inside for at, name in uses):
                unused.append(f"{module}.{node.name}")
    assert not unused, f"defined but never used in src/dtst: {unused}"
