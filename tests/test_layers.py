"""The package's import layers, read from the sources with ``ast``.

``grid`` sits under every other module and imports only ``errors``; the
probes do not reach into the interpolation layer, and ``classify`` does
not reach into the probes.  Every probe (a function named ``*_probe``,
other than the CLI's ``cmd_probe`` command) is defined in ``probes``.
``classify`` and ``cli`` read a field's curves through its table, never
as curve objects, and its structure through its structure record, never
by calling ``partition`` or ``weights``.  In ``interpolation`` only a
spec's mask tests which cells lie in gamma.  ``cli`` imports no private
(``_``-prefixed, not dunder) name from another package module.  Only
``cli.parse_space`` tells the kinds of space apart: a ``cmd_*`` command
calls the space object it returns and reads neither its field nor its spec.
"""

import ast
from pathlib import Path

import pytest

import mospaces

SRC = Path(mospaces.__file__).parent


def package_imports(module: str) -> set:
    """The package modules (or package attributes) ``module`` imports."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mospaces"):
            found.add(node.module.partition(".")[2] or node.module)
        elif isinstance(node, ast.Import):
            found.update(
                a.name.partition(".")[2] or a.name for a in node.names if a.name.startswith("mospaces")
            )
    return found


def test_every_module_is_read():
    assert {p.stem for p in SRC.glob("*.py")} >= {"grid", "probes", "classify", "interpolation"}
    assert package_imports("probes") >= {"grid", "errors"}


def test_grid_imports_only_errors():
    assert package_imports("grid") == {"errors"}


@pytest.mark.parametrize("module, banned", [("probes", "interpolation"), ("classify", "probes")])
def test_layer_does_not_import(module, banned):
    assert banned not in package_imports(module)


@pytest.mark.parametrize("module", ["classify", "cli"])
def test_layer_reads_no_curve_objects(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "curves"]
    assert reads == []


@pytest.mark.parametrize("module", ["classify", "cli"])
def test_layer_reads_the_structure_record_only(module):
    # the field's structure record is the one owner of its structure
    tree = ast.parse((SRC / f"{module}.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in ("partition", "weights")
    ]
    assert calls == []


def _outermost_defs(tree) -> dict:
    """Each node of ``tree`` inside a function, mapped to the name of the outermost def that holds it."""
    owners = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                owners.setdefault(node, fn.name)
    return owners


def test_a_spec_tests_membership_in_gamma_only_in_its_mask():
    # the spec's mask is the one owner of which cells lie in gamma
    tree = ast.parse((SRC / "interpolation.py").read_text())

    def reads_gamma(node):
        return isinstance(node, ast.Attribute) and node.attr == "gamma"

    owners = _outermost_defs(tree)
    tests = [
        (owners.get(node), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        and any(reads_gamma(side) for side in node.comparators)
        or isinstance(node, ast.BinOp)
        and (reads_gamma(node.left) or reads_gamma(node.right))
    ]
    assert [name for name, _ in tests] == ["on_gamma"], tests


def test_cli_imports_no_private_names():
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("mospaces"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")  # a dunder such as __version__ is public
    ]
    assert private == []


def test_every_probe_is_defined_in_probes():
    defined = {
        (path.stem, node.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name.endswith("_probe")
        and not node.name.startswith("cmd_")  # the CLI command that runs the probes
    }
    assert {"daugavet_condition_probe", "no_nonsquare_probe"} <= {name for _, name in defined}
    assert {module for module, _ in defined} == {"probes"}, sorted(defined)


_KINDS = {"musielak", "nakano", "orlicz", "weighted_sum", "weighted_intersection"}


def _tests_a_type(node) -> bool:
    """Whether ``node`` is an isinstance call other than a JSON object check, ``isinstance(v, dict)``."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and getattr(node.args[-1], "id", None) != "dict"
    )


def test_the_cli_commands_call_the_space_object():
    # parse_space is the one place that tells the kinds of space apart; a command
    # calls a method of the object it returns and never looks inside
    tree = ast.parse((SRC / "cli.py").read_text())
    looks = [
        (fn.name, node.lineno)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr in ("field", "spec")
        or isinstance(node, ast.Name) and node.id in ("SumSpaceSpec", "IntSpaceSpec", "MusielakField")
        or _tests_a_type(node)
    ]
    assert looks == []
    owners = _outermost_defs(tree)
    compares = {
        (owners.get(node), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Constant) and side.value in _KINDS for side in (node.left, *node.comparators))
    }
    assert {name for name, _ in compares} == {"parse_space"}, sorted(compares, key=str)
