"""Span tracing of uvangle's public functions, from outside the package.

``Tracer.install`` rebinds each traced function in every ``uvangle`` module
namespace that holds it, so calls made across modules (for example
``uvangle.isoptic.normalize_configuration``) are recorded too.  Each call
records a span (name, start, end, parent span, operation id) in flat arrays
that stay in memory until the run ends; ``uninstall`` restores the
originals.  A missing function is skipped, so the tracer keeps working when
a later version drops one; its metrics then read zero.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (layer, module, function) for every traced function; classmethods are "Class.method".
TRACED = (
    ("kernel", "uvangle.kernel", "normalize_configuration"),
    ("kernel", "uvangle.kernel", "intersect_lines"),
    ("kernel", "uvangle.kernel", "apply_map"),
    ("kernel", "uvangle.kernel", "invert_map"),
    ("kernel", "uvangle.kernel", "compose_maps"),
    ("kernel", "uvangle.kernel", "decompose"),
    ("angle", "uvangle.angle", "affine_angle"),
    ("angle", "uvangle.angle", "is_same_component"),
    ("angle", "uvangle.angle", "midpoint_ray"),
    ("angle", "uvangle.angle", "sigma_lambda"),
    ("angle", "uvangle.angle", "canonical_auxiliary"),
    ("angle", "uvangle.angle", "area_cross_ratio"),
    ("isoptic", "uvangle.isoptic", "sample_locus"),
    ("isoptic", "uvangle.isoptic", "is_admissible"),
    ("isoptic", "uvangle.isoptic", "isoptic_curve"),
    ("isoptic", "uvangle.isoptic", "isoptic_point"),
    ("isoptic", "uvangle.isoptic", "sector_area_equivalence"),
    ("power", "uvangle.power", "power"),
    ("power", "uvangle.power", "secant_intersections"),
    ("power", "uvangle.power", "radical_center"),
    ("power", "uvangle.power", "radical_axis"),
    ("power", "uvangle.power", "AxisHyperbola.from_directions"),
    ("degeneration", "uvangle.degeneration", "first_order_limit"),
    ("svg", "uvangle.svg", "render_svg"),
    ("cli", "uvangle.cli", "main"),
    ("cli", "uvangle.cli", "build_parser"),
    ("cli", "uvangle.cli", "_emit"),
)

# Spans whose result length counts work units (samples drawn by sample_locus).
SIZED = {"isoptic.sample_locus": len}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.nid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.units: dict[str, int] = {}
        self.stack: list[int] = []
        self.current_op = 0
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        nids, start, end, parent, ops, stack = (
            self.nid, self.start, self.end, self.parent, self.op, self.stack
        )
        size = SIZED.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            nids.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if size is not None:
                tracer.units[name] = tracer.units.get(name, 0) + size(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "uvangle" or n.startswith("uvangle.")]
        for layer, module_name, qualname in TRACED:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            name = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                if isinstance(original, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(original.__func__, name)))
                    self._restore.append((cls, attr, original))
                continue
            original = getattr(module, qualname, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        cli = sys.modules.get("uvangle.cli")
        if cli is not None and hasattr(cli, "build_parser"):
            build = cli.build_parser  # already traced; also trace parse_args on its parser
            tracer = self

            def build_parser(*args, **kwargs):
                parser = build(*args, **kwargs)
                parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")
                return parser

            self._restore.append((cli, "build_parser", vars(cli)["build_parser"]))
            cli.build_parser = build_parser

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self):
        """Per name: calls, inclusive ns and self ns (inclusive minus direct children)."""
        n = len(self.start)
        start, end, parent, nid = self.start, self.end, self.parent, self.nid
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            d = end[i] - start[i]
            s = stats[self.names[nid[i]]]
            s[0] += 1
            s[1] += d
            s[2] += d - child[i]
        return stats

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` that have a span of ``ancestor`` above them."""
        if name not in self.names or ancestor not in self.names:
            return 0
        target, anc = self.names.index(name), self.names.index(ancestor)
        parent, nid = self.parent, self.nid
        count = 0
        for i in range(len(nid)):
            if nid[i] != target:
                continue
            p = parent[i]
            while p >= 0:
                if nid[p] == anc:
                    count += 1
                    break
                p = parent[p]
        return count

    def write(self, path) -> None:
        """All spans as gzip CSV: name,start_ns,end_ns,parent,op (parent is a row index)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            names, nid, start, end, parent, op = (
                self.names, self.nid, self.start, self.end, self.parent, self.op
            )
            for i in range(len(start)):
                out.write(f"{names[nid[i]]},{start[i]},{end[i]},{parent[i]},{op[i]}\n")
