"""Source layout rules for ``src/moelab``, checked on the parsed modules.

scipy stays inside ``tensor.py``; modules share only public names; every
generator is built from a seed, so no library function draws unseeded; and
only ``cli.main`` prints to stdout, after it has written the report.
"""

import ast
from pathlib import Path

import pytest

import moelab

MODULES = sorted(Path(list(moelab.__path__)[0]).glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_tensor_imports_scipy(path):
    if path.name == "tensor.py":
        return
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        scipy = [n for n in names if n.split(".")[0] == "scipy"]
        assert not scipy, f"line {node.lineno} imports {scipy}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "moelab"
        private = [alias.name for alias in node.names if alias.name.startswith("_")]
        assert not (internal and private), f"line {node.lineno} imports {private}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_generator_is_seeded(path):
    for node in ast.walk(_tree(path)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "default_rng"
        ):
            assert node.args or node.keywords, f"line {node.lineno}: default_rng() without a seed"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_main_prints_to_stdout(path):
    tree = _tree(path)
    allowed = set()
    if path.name == "cli.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "main":
                allowed = {id(n) for n in ast.walk(node)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not any(kw.arg == "file" for kw in node.keywords)
        ):
            assert id(node) in allowed, f"line {node.lineno} prints to stdout"
