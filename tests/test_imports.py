"""Every name a package module imports is used in that module, and the
package's lazy exports resolve.

``__init__.py`` is exempt from the unused-import check; its exports are
checked through the name -> submodule table instead.
"""

import ast
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


def _setattr_spellings(tree: ast.Module) -> list[ast.Attribute]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]


def test_object_setattr_has_one_home():
    # Value types set their fields through kernel._set, the one alias.
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = _setattr_spellings(tree)
        if path.name != "kernel.py":
            assert found == [], f"{path.name}:{found[0].lineno} spells object.__setattr__"
            continue
        assert len(found) == 1, [node.lineno for node in found]
        alias = [
            node for node in tree.body
            if isinstance(node, ast.Assign) and node.value is found[0]
        ]
        assert [target.id for node in alias for target in node.targets] == ["_set"]


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
