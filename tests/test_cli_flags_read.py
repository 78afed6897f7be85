"""Every flag a ``hareid`` subcommand declares is read by the code that runs it.

For each subcommand, each ``dest`` of its parser (other than ``help``) must be
read as ``args.<dest>`` or ``getattr(args, "<dest>", ...)`` in ``cmd_<name>``,
in a helper that ``cmd_<name>`` passes ``args`` to (followed transitively), or
in ``main``. This catches a flag still declared after its reader is gone.
"""

import ast
from pathlib import Path

import pytest

from hareid import cli

_, COMMANDS = cli.build_parser()
FUNCTIONS = {node.name: node
             for node in ast.parse(Path(cli.__file__).read_text(), filename=cli.__file__).body
             if isinstance(node, ast.FunctionDef)}


def reads(func: ast.FunctionDef, var: str) -> set[str]:
    """The attribute names read off ``var`` in ``func``."""
    out = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == var):
            out.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name) and node.args[0].id == var
              and isinstance(node.args[1], ast.Constant)):
            out.add(node.args[1].value)
    return out


def handoffs(func: ast.FunctionDef, var: str):
    """(helper, parameter) for each call in ``func`` that passes ``var`` on to
    a function of the module."""
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in FUNCTIONS):
            continue
        params = [a.arg for a in FUNCTIONS[node.func.id].args.args]
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id == var and i < len(params):
                yield node.func.id, params[i]
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name) and kw.value.id == var:
                yield node.func.id, kw.arg


def flags_read(command: str) -> set[str]:
    entry = FUNCTIONS[f"cmd_{command}"]
    todo = [(entry.name, entry.args.args[0].arg), ("main", "args")]
    seen, out = set(), set()
    while todo:
        name, var = todo.pop()
        if (name, var) in seen:
            continue
        seen.add((name, var))
        out |= reads(FUNCTIONS[name], var)
        todo += handoffs(FUNCTIONS[name], var)
    return out


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_flag_is_read(command):
    declared = {a.dest for a in COMMANDS[command]._actions} - {"help"}  # noqa: SLF001
    unread = sorted(declared - flags_read(command))
    assert not unread, f"hareid {command}: flags declared but never read: {unread}"
