"""The package's name lints, each an ``ast`` scan of every hareid module.

* Every name a module imports is used in that module.
* Every private module-level name a module defines is loaded in that module.
* Every parameter a function or lambda takes is read in its body.
* Every public name (module-level function, class or constant, method, or
  dataclass field) is read by the programs: in hareid outside its own definition, or in
  ``perfbench/*.py`` as a name, an attribute or a string (its tracer looks
  functions up by name), unless ``PUBLIC_ALLOWLIST`` says why it stays.

Each catches a removal left half done, or an API kept only for tests: a
helper nothing calls any more, or a setting still accepted but never read.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "hareid").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]

# (module, name) -> why a public name no program reads stays public.
PUBLIC_ALLOWLIST = {
    ("autodiff.py", "constant"): "the documented leaf constructor of the autodiff core",
    ("retrieval.py", "image_retrieval_metrics"): "the acceptance gate's metric oracle imports it",
    ("data.py", "load_signature_cells"): "reads the signature sidecar that write_synth writes",
    ("model.py", "o2"): "extraction's bit-parity tests compare features with the graph's "
                        "fine output",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def loaded(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}


FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_level_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each module-level function, class and assigned name, and the
    statement that defines it."""
    names: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (*FUNCTION, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        names[n.id] = node
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_name(path):
    tree = parse(path)
    used = loaded(tree)
    private = {name: node.lineno for name, node in module_level_names(tree).items()
               if name.startswith("_") and not name.startswith("__")}
    unused = {name: line for name, line in private.items() if name not in used}
    assert not unused, f"{path.name}: private names never loaded (name: line) {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameter(path):
    unread = []
    for node in ast.walk(parse(path)):
        if not isinstance(node, (*FUNCTION, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        used = set().union(*(loaded(stmt) for stmt in body))
        unread += [f"{getattr(node, 'name', 'lambda')}({p.arg}) line {node.lineno}"
                   for p in params if p.arg not in ("self", "cls") and p.arg not in used]
    assert not unread, f"{path.name}: parameters never read: {unread}"


def read_names(node: ast.AST, skip: ast.AST | None = None, names: bool = True) -> set[str]:
    """The names (unless ``names`` is false) and attribute names loaded in
    ``node``, outside ``skip``."""
    out, todo = set(), [node]
    while todo:
        n = todo.pop()
        if n is skip:
            continue
        if names and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        todo.extend(ast.iter_child_nodes(n))
    return out


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, defining statement) of each public module-level function, class
    and constant, and of each public method."""
    defs = list(module_level_names(tree).items())
    defs += [(m.name, m) for node in tree.body if isinstance(node, ast.ClassDef)
             for m in node.body if isinstance(m, FUNCTION)]
    return [(name, node) for name, node in defs if not name.startswith("_")]


def public_fields(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, defining statement) of each public field of a module-level dataclass."""
    return [(m.target.id, m) for node in tree.body
            if isinstance(node, ast.ClassDef) and is_dataclass(node) for m in node.body
            if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)
            and not m.target.id.startswith("_")]


@cache
def package_trees() -> dict[str, ast.Module]:
    return {p.name: parse(p) for p in PACKAGE}


@cache
def perfbench_reads(names: bool = True) -> set[str]:
    out = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = parse(path)
        out |= read_names(tree, names=names)
        out |= {n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return out


def unread_public_names(path: Path) -> dict[str, int]:
    """The public names of ``path`` that no program reads (name: line)."""
    trees = package_trees()
    elsewhere = perfbench_reads().union(*(read_names(t) for name, t in trees.items()
                                          if name != path.name))
    own = trees[path.name]
    unread = {name: node.lineno for name, node in public_definitions(own)
              if name not in elsewhere and name not in read_names(own, skip=node)}
    # A field is read as an attribute; a local variable of its name is no read.
    attributes = perfbench_reads(names=False).union(
        *(read_names(t, names=False) for name, t in trees.items() if name != path.name))
    unread.update({name: node.lineno for name, node in public_fields(own)
                   if name not in attributes
                   and name not in read_names(own, skip=node, names=False)})
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_name_is_read(path):
    unread = {name: line for name, line in unread_public_names(path).items()
              if (path.name, name) not in PUBLIC_ALLOWLIST}
    assert not unread, (f"{path.name}: public names no hareid or perfbench code reads "
                        f"(name: line) {unread}; delete them or allowlist them with a reason")


@pytest.mark.parametrize("module, name", sorted(PUBLIC_ALLOWLIST))
def test_allowlisted_name_is_unread(module, name):
    """An allowlist entry names a public name that the rule would flag, so the
    list cannot outlive its reason."""
    assert name in unread_public_names(ROOT / "src" / "hareid" / module), (
        f"{module}: {name} is gone or read by a program; drop its allowlist entry")
