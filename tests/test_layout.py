"""Source layout rules for ``src/moelab``, checked on the parsed modules.

scipy stays inside ``tensor.py``; modules share only public names; every
generator is built from a seed, so no library function draws unseeded;
only ``cli.main`` prints to stdout, after it has written the report;
only ``Tensor.__init__`` and ``tensor._op`` write the autodiff tape's edges
and node backwards, and no other module names either,
and only ``Tensor.__init__``, ``zero_grad`` and ``_accumulate`` store to ``.grad``;
every imported name is used or re-exported; and no module calls ``np.add.at``,
whose unbuffered scatter is several times slower than ``np.bincount``.
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


def _writes(node, attr, calls, scope=""):
    """(enclosing function, line) of each store to ``.attr``, and with ``calls`` each method call on it."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    target = None
    if isinstance(node, (ast.Attribute, ast.Subscript)) and not isinstance(node.ctx, ast.Load):
        target = node if isinstance(node, ast.Attribute) else node.value
    elif calls and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        target = node.func.value
    if isinstance(target, ast.Attribute) and target.attr == attr:
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _writes(child, attr, calls, scope)


def test_only_the_node_constructor_writes_tape_edges():
    tensor = _tree(next(p for p in MODULES if p.name == "tensor.py"))
    for attr in ("_parents", "_back"):
        writes = list(_writes(tensor, attr, calls=True))
        assert {scope for scope, _ in writes} == {"Tensor.__init__", "_op"}, (attr, writes)


def test_only_leaves_store_gradients():
    # backward keeps interior gradients in a map of its own; .grad is set, reset or summed into here only
    writes = [(path.name, scope, line) for path in MODULES for scope, line in _writes(_tree(path), "grad", calls=False)]
    assert {(name, scope) for name, scope, _ in writes} == {
        ("tensor.py", "Tensor.__init__"),
        ("tensor.py", "Tensor.zero_grad"),
        ("tensor.py", "Tensor._accumulate"),
    }, writes


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tensor.py"], ids=lambda p: p.name)
def test_tape_edges_stay_inside_tensor(path):
    for node in ast.walk(_tree(path)):
        names = {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)}
        tape = names & {"_parents", "_back"}
        assert not tape, f"line {node.lineno} mentions {tape}"


def _exported(tree):
    """The string entries of a module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used | _exported(tree)}
    assert not unused, f"imported but unused: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbuffered_add_at(path):
    for node in ast.walk(_tree(path)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "at"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "add"
        ):
            assert False, f"line {node.lineno} calls add.at; scatter with np.bincount"
