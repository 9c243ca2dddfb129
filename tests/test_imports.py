"""Every name a package module imports is used in that module, every public
member has a caller in the package, and the package's lazy exports resolve.
"""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

from helpers import run_process

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "uvangle"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(_imported(tree) - _used(tree)) == []


def _attributes(tree: ast.AST, attr: str) -> list[ast.Attribute]:
    return [
        node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def test_field_stores_have_one_home():
    # Value types store their fields through the slot setters that
    # kernel._slot_setters binds: no module spells object.__setattr__, and
    # only that helper reads a slot descriptor's __set__.
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _attributes(tree, "__setattr__"):
            assert not (isinstance(node.value, ast.Name) and node.value.id == "object"), (
                f"{path.name}:{node.lineno} spells object.__setattr__"
            )
        found = _attributes(tree, "__set__")
        if path.name != "kernel.py":
            assert found == [], f"{path.name}:{found[0].lineno} reads __set__"
            continue
        helper = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_slot_setters"
        ]
        assert len(helper) == 1
        assert len(found) == 1 and found[0] in set(ast.walk(helper[0])), [
            node.lineno for node in found
        ]


def _overrides_stdlib(cls: ast.ClassDef, name: str) -> bool:
    """The class has a stdlib or builtin base that defines ``name``."""
    for base in cls.bases:
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            owner = getattr(importlib.import_module(base.value.id), base.attr)
        elif isinstance(base, ast.Name) and hasattr(builtins, base.id):
            owner = getattr(builtins, base.id)
        else:
            continue
        if hasattr(owner, name):
            return True
    return False


# A read of ``x.name`` cannot tell which class's ``name`` it calls, so a
# method name that several src classes define vouches for one of them only.
# Every other class's member of that name is listed here, with its reason.
SHARED_NAME_ALLOWED = {
    "power.AxisHyperbola.point_at": (
        "the branch parametrization: 200 sweep-golden and 12 edge-golden lines pin its values,"
        " and tests/test_power.py its 'abscissa on the asymptote' error"
    ),
}


def test_every_public_member_has_a_caller_in_src():
    # A value type's public members are the ones the library itself uses:
    # every public method, property or classmethod, and every public
    # module-level function the package does not export, is read somewhere
    # in src.  Members only tests need live in tests/helpers.py.  A member
    # is read as ``x.name``; a function also by its bare name, which for a
    # member would be any local variable of that name.
    import uvangle

    attributes: set[str] = set()
    names: set[str] = set()
    functions: list[str] = []
    class_members: list[str] = []
    owners: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_") and node.name not in uvangle._EXPORTS:
                    functions.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and not _overrides_stdlib(node, item.name)):
                        member = f"{path.stem}.{node.name}.{item.name}"
                        class_members.append(member)
                        owners.setdefault(item.name, []).append(member)
    assert functions and class_members
    assert [f for f in functions if f.rsplit(".", 1)[1] not in attributes | names] == []
    assert [m for m in class_members if m.rsplit(".", 1)[1] not in attributes] == []
    shared = {member for members in owners.values() if len(members) > 1 for member in members}
    assert set(SHARED_NAME_ALLOWED) <= shared
    for name, members in owners.items():
        assert sum(m not in SHARED_NAME_ALLOWED for m in members) <= 1, (name, members)


def test_cli_imports_no_private_name_of_another_module():
    # Every module, the CLI included, reaches another module through public
    # names only, so what it computes stays in the module that owns it.  The
    # one exception is ``kernel``, whose private helpers are the package's
    # shared primitives.
    private = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module != "kernel"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_only_power_reads_the_hyperbola_frame_slots():
    # Other modules convert between plane points and a hyperbola's frame
    # through AxisHyperbola.relative_coords and AxisHyperbola.plane_point.
    for path in sorted(SRC.glob("*.py")):
        if path.name == "power.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [
            node.lineno for attr in ("_inverse", "_frame_center") for node in _attributes(tree, attr)
        ]
        assert found == [], f"{path.name} reads a frame slot on lines {found}"


# AffineMap and ConicCoefficients keep their entries as one tuple in one slot.
ONE_SLOT_ENTRIES = {
    "xx", "xy", "yx", "yy", "tx", "ty", "c_xx", "c_xy", "c_yy", "c_x", "c_y", "c_0",
}


def test_map_and_conic_entries_are_read_from_their_slot():
    # Every reader in the package unpacks the slot once; the entries' read-only
    # properties, which _Frozen generates, serve callers outside it.
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [
            f".{node.attr} on line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ONE_SLOT_ENTRIES
        ]
        assert found == [], f"{path.name} reads an entry by name: {found}"


def _scoped_nodes():
    """(scope, node) for every node of src/uvangle; a scope names the module and the
    enclosing classes and functions, as in ``kernel.Line.contains``."""

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
            else:
                yield scope, child
                yield from visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(ast.parse(path.read_text(), filename=str(path)), path.stem)


def test_par_eps_has_one_reader():
    # "Parallel" is decided in one place: every direction test goes through
    # kernel._cross_if_independent, the only code that reads PAR_EPS, as a
    # bare name or as an attribute.
    readers = [
        (scope, node.lineno) for scope, node in _scoped_nodes()
        if (isinstance(node, ast.Name) and node.id == "PAR_EPS" and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "PAR_EPS")
    ]
    assert readers and {scope for scope, _ in readers} == {"kernel._cross_if_independent"}, (
        readers
    )


# A tolerance test compares a quantity with the inputs it is formed from, so
# scaling them by 2^k keeps its verdict.  An absolute floor (a 1.0 beside those
# inputs, or ABS_EPS added to a tolerance) breaks that below or above scale 1.
# The functions that keep a 1 are listed here, each with its reason.
FLOOR_ALLOWED = {
    "isoptic._band_product": "in the canonical frame, 1 is the squared half-length of the segment",
    "isoptic.sample_locus": "Q = max(1, 5 (cosh(span) / sh)^2) bounds _band_product's scale",
    "degeneration.degenerate_cross_ratio": (
        "1 is a term of the factors 1 +- m*t, so max(1, |m*t|) is their own scale"
    ),
    "degeneration.first_order_limit": (
        "RESIDUAL_FLOOR * max(1, |limit|) sets which samples enter the printed residual_order"
    ),
}


def _is_one(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1 and not isinstance(node.value, bool)


def _is_abs_eps(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "ABS_EPS") or (
        isinstance(node, ast.Attribute) and node.attr == "ABS_EPS")


def _is_floor(node: ast.AST) -> bool:
    """max(..., 1.0, ...), its spelled-out form x if x > 1.0 else 1.0, max(..., ABS_EPS, ...),
    or ABS_EPS added to or subtracted from a term."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "max":
        return any(_is_one(arg) or _is_abs_eps(arg) for arg in node.args)
    if isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare):
        return any(map(_is_one, node.test.comparators)) and (
            _is_one(node.body) or _is_one(node.orelse))
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _is_abs_eps(node.left) or _is_abs_eps(node.right)
    return False


def test_absolute_floors_are_the_listed_ones():
    floors = [(scope, node.lineno) for scope, node in _scoped_nodes() if _is_floor(node)]
    assert {scope for scope, _ in floors} == set(FLOOR_ALLOWED), floors


# Tests run the CLI in process through helpers.run_cli.  A module that starts a
# process (imports subprocess or multiprocessing, or helpers.run_process) tests
# something about the process itself, and is listed here with that reason.
SPAWN_ALLOWED = {
    "helpers.py": "run_process, the one way a test starts a Python child",
    "mutate_raises.py": "runs pytest on each mutant in a copy of the tree, under a timeout",
    "test_mutate_raises.py": "runs one mutant's suite through mutate_raises, and fakes its result",
    "test_perfbench_smoke.py": "perfbench/run.py, which starts its own CLI processes",
    "test_imports.py": "a fresh interpreter's import system binding uvangle.power",
    "test_cli.py": "the modules a fresh interpreter loads, bytes across hash seeds",
    "test_golden.py": "python -m uvangle and python -m uvangle.cli, --help too, against main",
    "test_acceptance.py": "criterion 12: the worked examples' bytes across hash seeds",
}


def test_only_the_listed_test_modules_start_processes():
    spawning = set()
    for path in TESTS.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        if (_imported(tree) | modules) & {"subprocess", "multiprocessing", "run_process"}:
            spawning.add(path.name)
    assert spawning == set(SPAWN_ALLOWED)


# ``__init__.py`` resolves its exports lazily from one name -> submodule table.


def test_lazy_table_matches_all_and_every_name_resolves():
    import uvangle

    assert sorted(uvangle._EXPORTS) == sorted(uvangle.__all__)
    for name, module in uvangle._EXPORTS.items():
        value = getattr(uvangle, name)
        if name == "errors":
            assert value is importlib.import_module("uvangle.errors")
        else:
            assert value.__module__ == f"uvangle.{module}", name
    for module in set(uvangle._EXPORTS_BY_MODULE) - {"power"}:
        assert getattr(uvangle, module) is importlib.import_module(f"uvangle.{module}")
    assert set(uvangle.__all__) <= set(dir(uvangle))


AREA_RATIO_NAMES = (
    "ComponentLabel", "SigmaValue", "area_cross_ratio", "sigma_lambda", "sigma_sign",
)


def test_moved_names_resolve_at_their_old_paths():
    import uvangle
    import uvangle.angle
    import uvangle.area_ratio
    import uvangle.kernel

    for name in AREA_RATIO_NAMES:
        assert getattr(uvangle.angle, name) is getattr(uvangle.area_ratio, name), name
        assert uvangle._EXPORTS[name] == "area_ratio", name
    assert uvangle.angle.DirectionPair is uvangle.kernel.DirectionPair
    assert uvangle._EXPORTS["DirectionPair"] == "kernel"
    with pytest.raises(AttributeError, match="no_such_name"):
        uvangle.angle.no_such_name


def test_star_import_binds_every_export():
    import uvangle

    namespace = {}
    exec("from uvangle import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(uvangle.__all__)
    assert callable(namespace["power"])


def test_unknown_attribute_raises_attribute_error():
    import uvangle

    with pytest.raises(AttributeError, match="no_such_name"):
        uvangle.no_such_name
    assert not hasattr(uvangle, "__no_such_dunder__")


POWER_PROBE = """
import importlib, sys, types
import uvangle
for step in sys.argv[1:]:
    if step == "attribute":
        uvangle.power
    else:
        importlib.import_module("uvangle.power")
assert not isinstance(uvangle.power, types.ModuleType), uvangle.power
assert uvangle.power is importlib.import_module("uvangle.power").power
from uvangle import power
assert power is uvangle.power
"""


@pytest.mark.parametrize("steps", [("attribute", "submodule"), ("submodule", "attribute")])
def test_package_power_stays_the_function(steps):
    # A fresh process each time: the import system binds a loaded submodule on
    # its package, which must not replace the exported function ``power``.
    proc = run_process("-c", POWER_PROBE, *steps)
    assert proc.returncode == 0, proc.stderr.decode()
