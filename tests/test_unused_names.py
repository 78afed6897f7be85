"""Every private module-level name a hareid module defines is loaded in that
module, and every parameter a function or lambda takes is read in its body.

Both catch a removal left half done: a helper nothing calls any more, or a
setting still accepted but never read.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "hareid").glob("*.py")
                 if p.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def loaded(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}


def module_level_names(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        names[n.id] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_name(path):
    tree = parse(path)
    used = loaded(tree)
    private = {name: line for name, line in module_level_names(tree).items()
               if name.startswith("_") and not name.startswith("__")}
    unused = {name: line for name, line in private.items() if name not in used}
    assert not unused, f"{path.name}: private names never loaded (name: line) {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameter(path):
    unread = []
    for node in ast.walk(parse(path)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        used = set().union(*(loaded(stmt) for stmt in body))
        unread += [f"{getattr(node, 'name', 'lambda')}({p.arg}) line {node.lineno}"
                   for p in params if p.arg not in ("self", "cls") and p.arg not in used]
    assert not unread, f"{path.name}: parameters never read: {unread}"
