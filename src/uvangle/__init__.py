"""Direction-pair angle geometry.

Fixing two independent directions in the plane yields an angle defined as
half the logarithm of an area cross ratio.  This package provides the angle
and its primitives, the isoptic hyperbolas of a segment, the hyperbolic
power of a point with radical axes and centers, and the degenerate limits
relating the angle to slope differences, together with a deterministic CLI.

The exports resolve on first access (PEP 562), so importing the package, or
running one CLI command, loads only the submodules that are used.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Submodule -> the public names it defines.  ``errors`` exports itself.
_EXPORTS_BY_MODULE = {
    "angle": (
        "AngleResult", "ComponentLabel", "DirectionPair", "SigmaValue", "affine_angle",
        "area_cross_ratio", "is_same_component", "midpoint_ray", "preserves_affine_angle",
        "sigma_lambda", "sigma_sign",
    ),
    "degeneration": (
        "LimitReport", "SlopePair", "degenerate_cross_ratio", "first_order_limit",
    ),
    "errors": ("GeometryError", "errors"),
    "isoptic": (
        "ConicCoefficients", "IsopticCurve", "IsopticSpec", "asymptote_directions",
        "conic_center", "is_admissible", "isoptic_curve", "isoptic_point", "reflect_branch",
        "sample_locus", "sector_area_equivalence",
    ),
    "kernel": (
        "AffineMap", "DirectionVector", "Line", "Point", "Ray", "apply_map", "basis_map",
        "compose_maps", "cross", "decompose", "distance", "dot", "intersect_lines",
        "invert_map", "is_parallel", "normalize_configuration", "signed_area",
        "slope_cross_ratio_angle", "vec",
    ),
    "power": (
        "AxisHyperbola", "SecantResult", "chord_intersection_x", "chord_line",
        "core_quantity", "power", "progression_quadrilateral_area", "radical_axis",
        "radical_center", "secant_intersections",
    ),
    "power_theorem": (
        "asymptotic_projections", "one_sided_identity", "projected_area", "symmetric_area",
    ),
    "svg": ("render_svg",),
}
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = import_module(f"{__name__}.{_EXPORTS[name]}")
        value = module if name == "errors" else getattr(module, name)
        globals()[name] = value
        return value
    if name in _EXPORTS_BY_MODULE:  # a submodule not loaded yet
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS_BY_MODULE))


class _Package(ModuleType):
    """The package's module type: keeps ``uvangle.power`` the function.

    Loading a submodule binds it on the package under its own name, which
    for ``power`` would shadow the exported function of that name.
    """

    def __setattr__(self, name: str, value) -> None:
        if name == "power" and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
