"""Deterministic SVG rendering of sampled loci."""

import math
from itertools import groupby

from .errors import EmptyLocus
from .kernel import Point

_WIDTH = 800.0
_HEIGHT = 600.0
_MARGIN_FRACTION = 0.05

_CLASS_STYLE = {
    True: ('admissible', '#1f6fb4'),
    False: ('inadmissible', '#c44f4f'),
}


def _bounds(points: list[Point]) -> tuple[float, float, float, float]:
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def render_svg(
    samples: list[tuple[Point, bool]],
    viewport: tuple[float, float, float, float] | None = None,
    markers: tuple[Point, ...] = (),
) -> bytes:
    """SVG 1.1 document with one polyline per run of equal admissibility.

    Admissible runs and inadmissible runs use distinct classes and strokes;
    ``markers`` (for example the segment endpoints) are drawn as dots.  The
    byte output is deterministic for identical input.  The viewport auto-fits
    the drawn geometry with a 5% margin unless given explicitly as
    (xmin, ymin, xmax, ymax).  A viewport that would give any drawn point a
    nan or infinite pixel coordinate raises ValueError.
    """
    if len(samples) < 2:
        raise EmptyLocus("need at least two points to render")
    drawn = _bounds([p for p, _ in samples] + list(markers))
    if viewport is None:
        xmin, ymin, xmax, ymax = drawn
        span_x = xmax - xmin or 1.0
        span_y = ymax - ymin or 1.0
        xmin -= _MARGIN_FRACTION * span_x
        xmax += _MARGIN_FRACTION * span_x
        ymin -= _MARGIN_FRACTION * span_y
        ymax += _MARGIN_FRACTION * span_y
    else:
        xmin, ymin, xmax, ymax = viewport
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("viewport must have positive extent")

    scale = min(_WIDTH / (xmax - xmin), _HEIGHT / (ymax - ymin))
    offset_x = (_WIDTH - scale * (xmax - xmin)) / 2.0
    offset_y = (_HEIGHT - scale * (ymax - ymin)) / 2.0

    def to_pixels(p: Point) -> tuple[float, float]:
        return (
            offset_x + (p.x - xmin) * scale,
            _HEIGHT - (offset_y + (p.y - ymin) * scale),
        )

    # to_pixels is monotone per coordinate: the drawn extent's corners bound every
    # pixel, and a zero or infinite scale or offset makes them nan or infinite.
    corners = to_pixels(Point(drawn[0], drawn[1])) + to_pixels(Point(drawn[2], drawn[3]))
    if not all(math.isfinite(c) for c in corners):
        raise ValueError("viewport scale sends the drawing outside finite pixel coordinates")

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
            f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">'
        ),
    ]

    for admissible, run in groupby(samples, key=lambda sample: sample[1]):
        css, stroke = _CLASS_STYLE[admissible]
        coords = ' '.join(f'{x:.3f},{y:.3f}' for x, y in (to_pixels(p) for p, _ in run))
        lines.append(
            f'<polyline class="{css}" points="{coords}" '
            f'fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )

    for marker in markers:
        x, y = to_pixels(marker)
        lines.append(
            f'<circle class="endpoint" cx="{x:.3f}" cy="{y:.3f}" r="4" fill="#222222"/>'
        )
    lines.append('</svg>')
    return ('\n'.join(lines) + '\n').encode('utf-8')
