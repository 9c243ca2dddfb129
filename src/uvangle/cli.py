"""Command-line front end.

Every subcommand prints a versioned JSON document with a fixed key order
(schema_version, command, inputs, outputs, diagnostics); the ``isoptic``
subcommand can emit an SVG rendering instead.  Exit codes: 0 success,
1 usage or parse error (including non-finite numbers), 2 domain error
(including non-finite results and an unwritable ``--out``); every error is
one stderr line.  All randomness used by the
``invariance`` demonstrations flows from an explicit seed through Python's
Mersenne Twister (``random.Random``), so identical invocations produce
byte-identical output.

Each handler imports the modules its command uses when it runs, so one
process loads only those.  The names are looked up at call time, never
kept in this module's globals, so rebinding a module's function (as a
tracer does) reaches every call.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections.abc import Sequence

from .errors import GeometryError
from .kernel import DirectionPair, DirectionVector, Line, Point

SCHEMA_VERSION = "1"


class _HelpFormatter(argparse.HelpFormatter):
    """HelpFormatter that reads the terminal width when it formats, not when it is built.

    argparse builds a formatter for every ``add_argument``, and the stock
    ``__init__`` reads the width through ``shutil``, which imports fnmatch,
    zlib, bz2 and lzma; a process that prints no help needs none of them.
    """

    def __init__(self, prog: str) -> None:
        super().__init__(prog, width=0)

    def format_help(self) -> str:
        sized = argparse.HelpFormatter(self._prog)  # width from shutil.get_terminal_size()
        self._width, self._max_help_position = sized._width, sized._max_help_position
        return super().format_help()


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with status 1 and one stderr line on usage errors.

    Tokens spelling a negative number (``-1,0``, ``-.5,0``, ``-inf``, ``-nan``)
    are treated as values, not options.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, formatter_class=_HelpFormatter, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _number(text: str) -> float:
    """float(text) when it is finite; ValueError for non-numbers, nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _scalar(text: str) -> float:
    try:
        return _number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"{what} needs {count} comma-separated numbers")
    try:
        return tuple(_number(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{what}: {exc}") from None


def _pair(text: str) -> tuple[float, float]:
    return _floats(text, 2, "coordinate pair")  # type: ignore[return-value]


def _triple(text: str) -> tuple[float, float, float]:
    return _floats(text, 3, "triple")  # type: ignore[return-value]


def _quad(text: str) -> tuple[float, float, float, float]:
    return _floats(text, 4, "quadruple")  # type: ignore[return-value]


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [_number(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="uvangle", description=__doc__.splitlines()[0])
    # An explicit prog spares add_subparsers formatting the usage to derive it.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_angle = sub.add_parser("angle", help="angle between rays OA and OB")
    p_angle.add_argument("--O", type=_pair, required=True, dest="o")
    p_angle.add_argument("--A", type=_pair, required=True, dest="a")
    p_angle.add_argument("--B", type=_pair, required=True, dest="b")
    p_angle.add_argument("--u", type=_pair, required=True)
    p_angle.add_argument("--v", type=_pair, required=True)
    add_common(p_angle)

    p_iso = sub.add_parser("isoptic", help="isoptic hyperbola of a segment")
    p_iso.add_argument("--A", type=_pair, required=True, dest="a")
    p_iso.add_argument("--B", type=_pair, required=True, dest="b")
    p_iso.add_argument("--u", type=_pair, required=True)
    p_iso.add_argument("--v", type=_pair, required=True)
    p_iso.add_argument("--theta", type=_scalar, required=True)
    p_iso.add_argument("--samples", type=int, default=32)
    p_iso.add_argument("--output", choices=("json", "svg"), default="json")
    p_iso.add_argument("--viewport", type=_quad, default=None)
    add_common(p_iso)

    p_pow = sub.add_parser("power", help="hyperbolic power of a point")
    p_pow.add_argument("--kappa", type=_scalar, required=True)
    p_pow.add_argument("--center", type=_pair, required=True)
    p_pow.add_argument("--P", type=_pair, required=True, dest="p")
    p_pow.add_argument("--u", type=_pair, default=(1.0, 0.0))
    p_pow.add_argument("--v", type=_pair, default=(0.0, 1.0))
    add_common(p_pow)

    p_rad = sub.add_parser("radical-center", help="radical center of three hyperbolas")
    p_rad.add_argument("--h1", type=_triple, required=True, metavar="CX,CY,KAPPA")
    p_rad.add_argument("--h2", type=_triple, required=True, metavar="CX,CY,KAPPA")
    p_rad.add_argument("--h3", type=_triple, required=True, metavar="CX,CY,KAPPA")
    p_rad.add_argument("--u", type=_pair, default=(1.0, 0.0))
    p_rad.add_argument("--v", type=_pair, default=(0.0, 1.0))
    add_common(p_rad)

    p_chords = sub.add_parser("chords", help="chord intersections on x*y = kappa")
    group = p_chords.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=_quad, default=None, metavar="T1,T2,T3,T4")
    group.add_argument("--progression", type=_triple, default=None, metavar="A,R,P")
    p_chords.add_argument("--kappa", type=_scalar, default=1.0)
    add_common(p_chords)

    p_deg = sub.add_parser("degenerate", help="first-order degenerate limit of the log angle")
    p_deg.add_argument("--m1", type=_scalar, required=True)
    p_deg.add_argument("--m2", type=_scalar, required=True)
    p_deg.add_argument("--t-sequence", type=_float_list, default=None, dest="t_sequence")
    add_common(p_deg)

    p_inv = sub.add_parser("invariance", help="seeded invariance demonstrations")
    p_inv.add_argument("--trials", type=_count, default=100)
    p_inv.add_argument("--seed", type=int, default=0, help="seed for sampled demonstrations")
    add_common(p_inv)

    return parser


def _document(command: str, inputs: dict, outputs: dict, diagnostics: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "diagnostics": diagnostics,
    }


def _point(values: Sequence[float]) -> Point:
    return Point(values[0], values[1])


def _direction(values: Sequence[float]) -> DirectionVector:
    return DirectionVector(values[0], values[1])


def _line_record(line: Line) -> dict:
    a, b, c = line.implicit()
    return {"a": a, "b": b, "c": c}


def _cmd_angle(args) -> dict:
    from .angle import affine_angle

    dirs = DirectionPair(_direction(args.u), _direction(args.v))
    result = affine_angle(_point(args.o), _point(args.a), _point(args.b), dirs)
    inputs = {
        "O": list(args.o),
        "A": list(args.a),
        "B": list(args.b),
        "u": list(args.u),
        "v": list(args.v),
    }
    outputs = {
        "real": result.is_real,
        "angle": result.theta,
        "reason": result.reason,
    }
    return _document("angle", inputs, outputs, [])


def _cmd_isoptic(args):
    from .isoptic import IsopticSpec, conic_center, isoptic_curve, sample_locus

    dirs = DirectionPair(_direction(args.u), _direction(args.v))
    spec = IsopticSpec(_point(args.a), _point(args.b), dirs, args.theta)
    if args.output == "svg":
        from .svg import render_svg

        samples = sample_locus(spec, args.samples)
        return render_svg(samples, viewport=args.viewport, markers=(spec.a, spec.b))
    curve = isoptic_curve(spec)
    samples = sample_locus(spec, args.samples)
    center = conic_center(curve.original_conic)
    inputs = {
        "A": list(args.a),
        "B": list(args.b),
        "u": list(args.u),
        "v": list(args.v),
        "theta": args.theta,
        "samples": args.samples,
    }
    outputs = {
        "beta": curve.beta,
        "normalized_conic": list(curve.normalized_conic.as_tuple()),
        "original_conic": list(curve.original_conic.as_tuple()),
        "center": [center.x, center.y],
        "samples": [
            {"point": [p.x, p.y], "admissible": ok} for p, ok in samples
        ],
    }
    return _document("isoptic", inputs, outputs, [])


def _cmd_power(args) -> dict:
    from .power import AxisHyperbola, core_quantity, power

    h = AxisHyperbola.from_directions(
        _point(args.center), args.kappa, _direction(args.u), _direction(args.v)
    )
    p = _point(args.p)
    core = core_quantity(p, h)
    rel = h.relative_coords(p)
    inputs = {
        "kappa": args.kappa,
        "center": list(args.center),
        "P": list(args.p),
        "u": list(args.u),
        "v": list(args.v),
    }
    outputs = {
        "power": power(p, h),
        "core": core,
        "on_curve": core == 0.0,
        "tangents_exist": core < 0.0 and rel[0] != 0.0 and rel[1] != 0.0,
    }
    return _document("power", inputs, outputs, [])


def _cmd_radical_center(args) -> dict:
    from .power import AxisHyperbola, radical_axis, radical_center

    u, v = _direction(args.u), _direction(args.v)
    curves = [
        AxisHyperbola.from_directions(Point(cx, cy), kappa, u, v)
        for cx, cy, kappa in (args.h1, args.h2, args.h3)
    ]
    center = radical_center(*curves)
    axes = [
        radical_axis(curves[0], curves[1]),
        radical_axis(curves[1], curves[2]),
        radical_axis(curves[2], curves[0]),
    ]
    inputs = {
        "h1": list(args.h1),
        "h2": list(args.h2),
        "h3": list(args.h3),
        "u": list(args.u),
        "v": list(args.v),
    }
    outputs = {
        "center": [center.x, center.y],
        "axes": [_line_record(axis) for axis in axes],
    }
    return _document("radical-center", inputs, outputs, [])


def _cmd_chords(args) -> dict:
    from .kernel import intersect_lines
    from .power import chord_intersection_x, chord_line, progression_quadrilateral_area

    if args.t is not None:
        t1, t2, t3, t4 = args.t
        x = chord_intersection_x(t1, t2, t3, t4)
        chord1, chord2 = chord_line(t1, t2, args.kappa), chord_line(t3, t4, args.kappa)
        point = intersect_lines(chord1, chord2)
        inputs = {"t": list(args.t), "kappa": args.kappa}
        outputs = {
            "intersection_x": x,
            "intersection": [point.x, point.y],
            "chord1": _line_record(chord1),
            "chord2": _line_record(chord2),
        }
        diagnostics = []
        if args.kappa != 1.0:
            diagnostics.append(
                "intersection_x uses the unit-kappa closed form; intersection uses kappa"
            )
        return _document("chords", inputs, outputs, diagnostics)
    a, r, p = args.progression
    area = progression_quadrilateral_area(a, r, p, args.kappa)
    closed_form = args.kappa * (r + 1.0) * abs(r - 1.0) ** 3 / (2.0 * r * r)
    inputs = {"progression": [a, r, p], "kappa": args.kappa}
    outputs = {"area": area, "closed_form": closed_form}
    return _document("chords", inputs, outputs, [])


def _cmd_degenerate(args) -> dict:
    from .degeneration import SlopePair, first_order_limit
    from .kernel import slope_cross_ratio_angle

    pair = SlopePair(args.m1, args.m2)
    report = first_order_limit(pair, args.t_sequence)
    half_log = (
        slope_cross_ratio_angle(args.m1, args.m2) if args.m1 * args.m2 > 0.0 else None
    )
    inputs = {
        "m1": args.m1,
        "m2": args.m2,
        "t_sequence": [t for t, _ in report.samples],
    }
    outputs = {
        "values": [[t, v] for t, v in report.samples],
        "extrapolated_limit": report.extrapolated_limit,
        "residual_order": None if math.isnan(report.residual_order) else report.residual_order,
        "slope_difference": args.m1 - args.m2,
        "half_log_angle": half_log,
    }
    return _document("degenerate", inputs, outputs, [])


def _cmd_invariance(args) -> dict:
    from ._invariance import invariance_deviations

    inputs = {"seed": args.seed, "trials": args.trials}
    return _document("invariance", inputs, invariance_deviations(args.trials, args.seed), [])


_HANDLERS = {
    "angle": _cmd_angle,
    "isoptic": _cmd_isoptic,
    "power": _cmd_power,
    "radical-center": _cmd_radical_center,
    "chords": _cmd_chords,
    "degenerate": _cmd_degenerate,
    "invariance": _cmd_invariance,
}


def _emit(payload, out_path: str | None) -> None:
    """Write the document (strict JSON: nan and infinities raise ValueError) or SVG bytes."""
    if isinstance(payload, dict):
        data = (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8")
    else:
        data = payload
    if out_path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out_path, "wb") as handle:
            handle.write(data)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(_HANDLERS[args.command](args), args.out)
    except (GeometryError, ValueError, OverflowError) as exc:
        print(f"uvangle {args.command}: domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"uvangle {args.command}: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
