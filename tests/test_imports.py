"""Every name a package module imports is used in that module, every public
member has a caller in the package, and the package's lazy exports resolve.

``__init__.py`` is exempt from the unused-import check; its exports are
checked through the name -> submodule table instead.
"""

import ast
import builtins
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "uvangle"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
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
    # in src.  Members only tests need live in tests/helpers.py.
    import uvangle

    read: set[str] = set()
    public: list[str] = []
    owners: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Name):
                read.add(node.id)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_") and node.name not in uvangle._EXPORTS:
                    public.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and not _overrides_stdlib(node, item.name)):
                        member = f"{path.stem}.{node.name}.{item.name}"
                        public.append(member)
                        owners.setdefault(item.name, []).append(member)
    assert public
    assert [name for name in public if name.rsplit(".", 1)[1] not in read] == []
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


def test_par_eps_has_one_reader():
    # "Parallel" is decided in one place: every direction test goes through
    # kernel._cross_if_independent, the only code that reads PAR_EPS, as a
    # bare name or as an attribute.
    readers = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == "PAR_EPS"
                    and isinstance(child.ctx, ast.Load)) or (
                    isinstance(child, ast.Attribute) and child.attr == "PAR_EPS"):
                readers.append((scope, child.lineno))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert readers and {scope for scope, _ in readers} == {"kernel._cross_if_independent"}, (
        readers
    )


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
    proc = subprocess.run(
        [sys.executable, "-c", POWER_PROBE, *steps],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr.decode()
