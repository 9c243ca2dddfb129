"""Command-line front end.

Every subcommand prints a versioned JSON document with a fixed key order
(schema_version, command, inputs, outputs, diagnostics); the ``isoptic``
subcommand can emit an SVG rendering instead.  Exit codes: 0 success,
1 usage or parse error (including non-finite numbers and counts above
their caps), 2 domain error (including non-finite results and an
unwritable ``--out``); every error is one stderr line.  All randomness used
by the ``invariance`` demonstrations flows from an explicit seed through
Python's Mersenne Twister (``random.Random``), so identical invocations
produce byte-identical output.

Each command is declared once, in ``COMMANDS``: its help, its handler, the
options that ``main`` echoes as ``inputs`` (in that order), and its options.
An option's dest is its JSON key.  A handler returns the outputs and
diagnostics, or SVG bytes; ``--out``, ``--output`` and ``--viewport`` say
where and how to write the result and are not echoed.

``_fast_parse`` reads a command line by the table, and it is the only
grammar: a handler runs on its result alone, and a command line it refuses
gets the one error line of its first fault, read left to right.  argparse
reads no command line: ``build_parser`` builds its parser from the table only
to print ``--help``.  A command that asks for no help therefore never imports
argparse, which with the parser it builds would cost a one-shot process more
than anything else it does before computing.

Each handler imports the modules its command uses when it runs, so one
process loads only those.  The names are looked up at call time, never
kept in this module's globals, so rebinding a module's function (as a
tracer does) reaches every call.  No module imports anything for its
annotations alone: from the standard library a command loads only ``math``
and ``types``, plus the builtin ``gc`` for ``isoptic``, ``itertools`` for SVG
output and ``random`` and ``enum`` for ``invariance``.

Documents are written by ``_json``, not by the json package: importing json
loads its decoder and scanner and compiles their regexes, which costs a
one-shot process more than encoding its one document does.

A process ends through ``run``: it calls ``main``, flushes stdout and stderr
and leaves with ``os._exit``, skipping atexit handlers and the interpreter's
teardown (clearing every module and the final garbage collections).  That
teardown cost a one-shot ``angle`` about 8 ms, nearly as much as importing
and computing.  ``python -m uvangle``, ``python -m uvangle.cli`` and the
installed ``uvangle`` script all end this way; a program that calls ``main``
gets the exit code back and keeps running.  Help and a traceback leave
``main`` by an exception and end the process as Python does.
"""

import math
import sys
import types

from .errors import ComponentMismatch, GeometryError
from .kernel import DirectionPair, DirectionVector, Line, Point

SCHEMA_VERSION = "1"
# Caps on the counts, enforced when parsing: 65,536 samples print 8.7 MB of
# JSON in about a second, and 100,000 trials take under 20 s.
MAX_SAMPLES = 65_536
MAX_TRIALS = 100_000


def _number(text: str) -> float:
    """float(text) when it is finite; ValueError for non-numbers, nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# The converters: each raises ValueError with the text of the value's error line.
def _scalar(text: str) -> float:
    try:
        return _number(text)
    except ValueError:
        raise ValueError(f"invalid float value: {text!r}") from None


def _floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers")
    try:
        return tuple(_number(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _pair(text: str) -> tuple[float, float]:
    return _floats(text, 2, "coordinate pair")  # type: ignore[return-value]


def _triple(text: str) -> tuple[float, float, float]:
    return _floats(text, 3, "triple")  # type: ignore[return-value]


def _quad(text: str) -> tuple[float, float, float, float]:
    return _floats(text, 4, "quadruple")  # type: ignore[return-value]


def _int(text: str, cap: float = math.inf) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value > cap:
        raise ValueError(f"must be at most {cap}, got {value}")
    return value


def _samples(text: str) -> int:
    return _int(text, MAX_SAMPLES)  # fewer than two stays a domain error of sample_locus


def _trials(text: str) -> int:
    value = _int(text, MAX_TRIALS)
    if value < 0:
        raise ValueError(f"must be a non-negative integer, got {value}")
    return value


def _float_list(text: str) -> list[float]:
    return [_number(p) for p in text.split(",")]


def _line_record(line: Line) -> dict:
    a, b, c = line.implicit()
    return {"a": a, "b": b, "c": c}


def _cmd_angle(args) -> tuple[dict, list[str]]:
    from .angle import affine_angle

    dirs = DirectionPair(DirectionVector(*args.u), DirectionVector(*args.v))
    result = affine_angle(Point(*args.O), Point(*args.A), Point(*args.B), dirs)
    return {"real": result.is_real, "angle": result.theta, "reason": result.reason}, []


def _cmd_isoptic(args) -> tuple[dict, list[str]] | bytes:
    from .isoptic import IsopticSpec, conic_center, isoptic_curve, sample_locus

    dirs = DirectionPair(DirectionVector(*args.u), DirectionVector(*args.v))
    spec = IsopticSpec(Point(*args.A), Point(*args.B), dirs, args.theta)
    if args.output == "svg":
        from .svg import render_svg

        samples = sample_locus(spec, args.samples)
        return render_svg(samples, viewport=args.viewport, markers=(spec.a, spec.b))
    curve = isoptic_curve(spec)
    samples = sample_locus(spec, args.samples)
    center = conic_center(curve.original_conic)
    return {
        "beta": curve.beta,
        "normalized_conic": list(curve.normalized_conic.as_tuple()),
        "original_conic": list(curve.original_conic.as_tuple()),
        "center": [center.x, center.y],
        "samples": [
            {"point": [p.x, p.y], "admissible": ok} for p, ok in samples
        ],
    }, []


def _cmd_power(args) -> tuple[dict, list[str]]:
    from .power import AxisHyperbola, core_quantity, power

    h = AxisHyperbola.from_directions(
        Point(*args.center), args.kappa, DirectionVector(*args.u), DirectionVector(*args.v)
    )
    p = Point(*args.P)
    core = core_quantity(p, h)
    rel = h.relative_coords(p)
    return {
        "power": power(p, h),
        "core": core,
        "on_curve": core == 0.0,
        "tangents_exist": core < 0.0 and rel[0] != 0.0 and rel[1] != 0.0,
    }, []


def _cmd_radical_center(args) -> tuple[dict, list[str]]:
    from .power import AxisHyperbola, radical_axis, radical_center

    u, v = DirectionVector(*args.u), DirectionVector(*args.v)
    h1, h2, h3 = [
        AxisHyperbola.from_directions(Point(cx, cy), kappa, u, v)
        for cx, cy, kappa in (args.h1, args.h2, args.h3)
    ]
    center = radical_center(h1, h2, h3)
    axes = [radical_axis(h1, h2), radical_axis(h2, h3), radical_axis(h3, h1)]
    return {"center": [center.x, center.y], "axes": [_line_record(axis) for axis in axes]}, []


def _cmd_chords(args) -> tuple[dict, list[str]]:
    from .kernel import intersect_lines
    from .power import chord_intersection_x, chord_line, progression_quadrilateral_area

    if args.t is not None:
        t1, t2, t3, t4 = args.t
        x = chord_intersection_x(t1, t2, t3, t4)
        chord1, chord2 = chord_line(t1, t2, args.kappa), chord_line(t3, t4, args.kappa)
        point = intersect_lines(chord1, chord2)
        outputs = {
            "intersection_x": x,
            "intersection": [point.x, point.y],
            "chord1": _line_record(chord1),
            "chord2": _line_record(chord2),
        }
        unit = "intersection_x uses the unit-kappa closed form; intersection uses kappa"
        return outputs, [] if args.kappa == 1.0 else [unit]
    a, r, p = args.progression
    area = progression_quadrilateral_area(a, r, p, args.kappa)
    closed_form = args.kappa * (r + 1.0) * abs(r - 1.0) ** 3 / (2.0 * r * r)
    return {"area": area, "closed_form": closed_form}, []


def _cmd_degenerate(args) -> tuple[dict, list[str]]:
    from .degeneration import SlopePair, first_order_limit
    from .kernel import slope_cross_ratio_angle

    pair = SlopePair(args.m1, args.m2)
    report = first_order_limit(pair, args.t_sequence)
    args.t_sequence = [t for t, _ in report.samples]  # inputs echoes the sequence used
    try:
        half_log = slope_cross_ratio_angle(args.m1, args.m2)
    except ComponentMismatch:  # slopes in different components have no real angle
        half_log = None
    return {
        "values": [[t, v] for t, v in report.samples],
        "extrapolated_limit": report.extrapolated_limit,
        "residual_order": None if math.isnan(report.residual_order) else report.residual_order,
        "slope_difference": args.m1 - args.m2,
        "half_log_angle": half_log,
    }, []


def _cmd_invariance(args) -> tuple[dict, list[str]]:
    from ._invariance import invariance_deviations

    return invariance_deviations(args.trials, args.seed), []


# The commands: name -> (help, handler, the options main echoes, options).  An
# option is its flag -> the keyword arguments of argparse's add_argument, or of
# the command's required mutually exclusive group when "exclusive" is set.
_OUT = {"--out": {"help": "output path (default: stdout)"}}
_FRAME = {
    "--u": {"type": _pair, "default": (1.0, 0.0)},
    "--v": {"type": _pair, "default": (0.0, 1.0)},
}
COMMANDS = {
    "angle": ("angle between rays OA and OB", _cmd_angle, ("O", "A", "B", "u", "v"), {
        "--O": {"type": _pair, "required": True},
        "--A": {"type": _pair, "required": True},
        "--B": {"type": _pair, "required": True},
        "--u": {"type": _pair, "required": True},
        "--v": {"type": _pair, "required": True},
        **_OUT,
    }),
    "isoptic": (
        "isoptic hyperbola of a segment", _cmd_isoptic, ("A", "B", "u", "v", "theta", "samples"), {
            "--A": {"type": _pair, "required": True},
            "--B": {"type": _pair, "required": True},
            "--u": {"type": _pair, "required": True},
            "--v": {"type": _pair, "required": True},
            "--theta": {"type": _scalar, "required": True},
            "--samples": {"type": _samples, "default": 32},
            "--output": {"choices": ("json", "svg"), "default": "json"},
            "--viewport": {"type": _quad},
            **_OUT,
        },
    ),
    "power": ("hyperbolic power of a point", _cmd_power, ("kappa", "center", "P", "u", "v"), {
        "--kappa": {"type": _scalar, "required": True},
        "--center": {"type": _pair, "required": True},
        "--P": {"type": _pair, "required": True},
        **_FRAME,
        **_OUT,
    }),
    "radical-center": (
        "radical center of three hyperbolas", _cmd_radical_center, ("h1", "h2", "h3", "u", "v"), {
            "--h1": {"type": _triple, "required": True, "metavar": "CX,CY,KAPPA"},
            "--h2": {"type": _triple, "required": True, "metavar": "CX,CY,KAPPA"},
            "--h3": {"type": _triple, "required": True, "metavar": "CX,CY,KAPPA"},
            **_FRAME,
            **_OUT,
        },
    ),
    # inputs echoes only the one of t and progression that was given.
    "chords": ("chord intersections on x*y = kappa", _cmd_chords, ("t", "progression", "kappa"), {
        "--t": {"type": _quad, "metavar": "T1,T2,T3,T4", "exclusive": True},
        "--progression": {"type": _triple, "metavar": "A,R,P", "exclusive": True},
        "--kappa": {"type": _scalar, "default": 1.0},
        **_OUT,
    }),
    "degenerate": (
        "first-order degenerate limit of the log angle", _cmd_degenerate,
        ("m1", "m2", "t_sequence"), {
            "--m1": {"type": _scalar, "required": True},
            "--m2": {"type": _scalar, "required": True},
            "--t-sequence": {"type": _float_list},
            **_OUT,
        },
    ),
    "invariance": ("seeded invariance demonstrations", _cmd_invariance, ("seed", "trials"), {
        "--trials": {"type": _trials, "default": 100},
        "--seed": {"type": _int, "default": 0, "help": "seed for sampled demonstrations"},
        **_OUT,
    }),
}


def _is_value(text: str) -> bool:
    """text is a value, not an option: no leading "-", or a number before its first ",".

    ``-1,0``, ``-.5``, ``-inf``, ``-Infinity`` and ``-nan`` are values; ``-x``,
    ``--`` and ``-nancy.json`` are not.
    """
    if text[:1] != "-":
        return True
    try:
        float(text.partition(",")[0])
    except ValueError:
        return False
    return True


def _fast_parse(argv: list[str]) -> types.SimpleNamespace | str | None:
    """The command line argv, read by ``COMMANDS``: the CLI's one grammar.

    argv is a command of ``COMMANDS``, then options of that command by their
    full flags, each at most once, as ``--flag value`` or ``--flag=value``,
    with values that ``_is_value``.  Every required option and one option of
    an exclusive group must be given, and every value must convert and be one
    of its choices.  The namespace holds one attribute per dest, the command,
    and its handler and echo list.

    Otherwise it returns the error line of the first fault, read left to
    right, in argparse's words wherever argparse reports that fault too; an
    abbreviated option is unrecognized.  ``-h`` or ``--help`` before any
    fault returns None, and ``main`` prints the help.
    """
    if argv[:1] and argv[0] in ("-h", "--help"):
        return None
    if not argv or argv[0][:1] == "-":
        return "uvangle: error: the following arguments are required: command"
    if argv[0] not in COMMANDS:
        names = ", ".join(map(repr, COMMANDS))
        return f"uvangle: error: argument command: invalid choice: {argv[0]!r} (choose from {names})"
    _, handler, echo, options = COMMANDS[argv[0]]
    error = f"uvangle {argv[0]}: error:"
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        flag, eq, text = token.partition("=")
        option = options.get(flag)
        if option is None:
            return f"{error} unrecognized arguments: {token}"
        if flag in given:
            return f"{error} argument {flag}: given more than once"
        if not eq:
            text = next(tokens, None)
        if text is None or not _is_value(text):
            return f"{error} argument {flag}: expected one argument"
        try:
            value = option.get("type", str)(text)
        except ValueError as exc:
            return f"{error} argument {flag}: {exc}"
        if "choices" in option and value not in option["choices"]:
            names = ", ".join(map(repr, option["choices"]))
            return f"{error} argument {flag}: invalid choice: {value!r} (choose from {names})"
        rival = [other for other in given if "exclusive" in option and "exclusive" in options[other]]
        if rival:
            return f"{error} argument {flag}: not allowed with argument {rival[0]}"
        given[flag] = value
    exclusive = [flag for flag, option in options.items() if "exclusive" in option]
    if exclusive and not any(flag in given for flag in exclusive):
        return f"{error} one of the arguments {' '.join(exclusive)} is required"
    missing = [flag for flag, option in options.items() if option.get("required") and flag not in given]
    if missing:
        return f"{error} the following arguments are required: {', '.join(missing)}"
    values = {"command": argv[0], "handler": handler, "echo": echo}
    for flag, option in options.items():
        values[flag[2:].replace("-", "_")] = given.get(flag, option.get("default"))
    return types.SimpleNamespace(**values)


def build_parser():
    """The argparse parser of ``COMMANDS``; ``main`` runs it only to print ``--help``."""
    import argparse

    parser = argparse.ArgumentParser(prog="uvangle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = None
        for flag, option in options.items():
            if "exclusive" in option:
                group = group or p.add_mutually_exclusive_group(required=True)
            kwargs = {key: value for key, value in option.items() if key != "exclusive"}
            (group if "exclusive" in option else p).add_argument(flag, **kwargs)
    return parser


def _json(value, indent: str = "", key: str | None = None) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, written without the json package.

    Strings of printable ASCII other than ``"`` and ``\\``, as every string
    of a document is, are quoted as they are; any other string goes to
    ``json.dumps``, so its escape rules stay the stdlib's.  A nan or infinity
    raises ValueError naming ``key``: each key of the top level, and of an
    ``outputs`` dict, names what it holds.
    """
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        import json

        return json.dumps(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            problem = "is nan" if math.isnan(value) else f"overflows to {value!r}"
            raise ValueError(f"output {key} {problem}")
        return repr(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", [inner + _json(item, inner, key) for item in value]
    else:
        brackets, items = "{}", [
            f"{inner}{_json(k)}: {_json(v, inner, k if key in (None, 'outputs') else key)}"
            for k, v in value.items()
        ]
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"


def _emit(payload, out_path: str | None) -> None:
    """Write the document (strict JSON: nan and infinities raise ValueError) or SVG bytes.

    ``_json`` encodes the document without the json package, whose import
    would cost the process more than the encoding does.  The ValueError of a
    non-finite output names the first output key holding one.
    """
    data = (_json(payload) + "\n").encode("utf-8") if isinstance(payload, dict) else payload
    if out_path is None:
        if sys.stdout is None:  # Python sets it so when the process starts with fd 1 closed
            raise OSError("stdout is closed")
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out_path, "wb") as handle:
            handle.write(data)


def _report(line: str) -> None:
    """Write one error line to stderr; a stderr that cannot take it loses the line, not the code.

    Python sets sys.stderr to None when the process starts with fd 2 closed,
    and print(file=None) would write to stdout, so that stream is skipped; a
    write that raises OSError (stderr on a full device) is ignored.
    """
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:  # argparse prints the help and exits 0
        build_parser().parse_args([argv[0], "--help"] if argv[0] in COMMANDS else ["--help"])
    if isinstance(args, str):
        _report(args)
        return 1
    try:
        result = args.handler(args)
        if not isinstance(result, bytes):
            outputs, diagnostics = result
            given = vars(args)  # read after the handler, which may set what it used
            result = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "inputs": {key: given[key] for key in args.echo if given[key] is not None},
                "outputs": outputs,
                "diagnostics": diagnostics,
            }
        _emit(result, args.out)
    except (GeometryError, ValueError, OverflowError) as exc:
        _report(f"uvangle {args.command}: domain error: {exc}")
        return 2
    except OSError as exc:
        _report(f"uvangle {args.command}: cannot write output: {exc}")
        return 2
    return 0


def run() -> None:
    """End this process with the exit code of ``main`` on its argv, skipping teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:  # main has already chosen the code for what it could not write
                pass
    import os  # here, so that importing cli or calling main loads no os under -S

    os._exit(code)


if __name__ == "__main__":
    run()
