"""Reference values for checking uvangle outputs, derived without uvangle.

Every value comes from a closed form of the paper with this module's own
2x2 solves: the angle is half the log of a slope ratio in (u, v)
coordinates, the isoptic is p^2 - (q + beta)^2 = 1 - beta^2 in the
canonical frame, and radical axes are differences of monic hyperbola
equations.  This module must never import uvangle.
"""

from __future__ import annotations

import math

# Relative tolerance on scalar outputs (angles, powers, areas, limits).
VALUE_TOL = 1e-8
# Relative residual allowed for a locus sample on the isoptic conic.
RESIDUAL_TOL = 1e-7
# Locus samples whose boundary factors are below this share of the point's
# squared size sit on the singular line pair through the segment endpoints;
# their admissibility is not checked, because roundoff may decide it.
SINGULAR_MARGIN = 1e-6


def close(x: float, y: float, tol: float = VALUE_TOL, scale: float = 1.0) -> bool:
    return abs(x - y) <= tol * max(scale, abs(x), abs(y))


def solve2(a11, a12, a21, a22, b1, b2):
    """(x, y) with a11*x + a12*y = b1 and a21*x + a22*y = b2 (Cramer's rule)."""
    det = a11 * a22 - a12 * a21
    return (b1 * a22 - a12 * b2) / det, (a11 * b2 - b1 * a21) / det


def coords(dx, dy, u, v):
    """(alpha, beta) with (dx, dy) = alpha*u + beta*v."""
    return solve2(u[0], v[0], u[1], v[1], dx, dy)


def slope(o, p, u, v) -> float:
    """Slope beta/alpha of the ray from o through p in (u, v) coordinates."""
    alpha, beta = coords(p[0] - o[0], p[1] - o[1], u, v)
    return beta / alpha


def dir_slope(d, u, v) -> float:
    alpha, beta = coords(d[0], d[1], u, v)
    return beta / alpha


def angle(o, a, b, u, v):
    """Half the log of the slope ratio of rays OA, OB; None across components."""
    m_a, m_b = slope(o, a, u, v), slope(o, b, u, v)
    if m_a * m_b <= 0.0:
        return None
    return 0.5 * math.log(m_a / m_b)


def cross_ratio(m0, m1, m2, m3) -> float:
    """(m0 - m2)(m1 - m3) / ((m1 - m2)(m0 - m3)); invariant under Moebius maps."""
    return (m0 - m2) * (m1 - m3) / ((m1 - m2) * (m0 - m3))


def power(center, kappa, p, u, v) -> float:
    """|kappa| * |a*b - kappa| for p - center = a*u + b*v."""
    a, b = coords(p[0] - center[0], p[1] - center[1], u, v)
    return abs(kappa) * abs(a * b - kappa)


def power_scale(center, kappa, p, u, v) -> float:
    a, b = coords(p[0] - center[0], p[1] - center[1], u, v)
    return abs(kappa) * (abs(a * b) + abs(kappa))


def radical_center(curves, u, v):
    """Common point of f1 = f2 = f3, f_i = (x - c_i)(y - d_i) - kappa_i in (u, v) coordinates."""
    monic = []
    for cx, cy, kappa in curves:
        c, d = coords(cx, cy, u, v)
        monic.append((c, d, kappa))

    def difference(i, j):
        (ci, di, ki), (cj, dj, kj) = monic[i], monic[j]
        # f_i - f_j = (dj - di) x + (cj - ci) y + (ci di - ki - cj dj + kj)
        return dj - di, cj - ci, -(ci * di - ki - cj * dj + kj)

    a1, b1, r1 = difference(0, 1)
    a2, b2, r2 = difference(1, 2)
    x, y = solve2(a1, b1, a2, b2, r1, r2)
    return x * u[0] + y * v[0], x * u[1] + y * v[1]


def chord_intersection(t1, t2, t3, t4, kappa):
    """Intersection of chords (t1, t2), (t3, t4) of x*y = kappa: x + (ti tj / kappa) y = ti + tj."""
    return solve2(1.0, t1 * t2 / kappa, 1.0, t3 * t4 / kappa, t1 + t2, t3 + t4)


def progression_area(r, kappa) -> float:
    return kappa * (r + 1.0) * abs(r - 1.0) ** 3 / (2.0 * r * r)


def degenerate_limit(m1, m2) -> float:
    return m1 - m2


class IsopticFrame:
    """The canonical frame of a segment ab under directions (u, v).

    a goes to (-1, 0), b to (1, 0), u along (1, 1) and v along (1, -1): with
    (b - a)/2 = s*u + t*v and x - mid = alpha*u + beta*v, the canonical
    point is (alpha/2s + beta/2t, alpha/2s - beta/2t).
    """

    def __init__(self, a, b, u, v, theta):
        self.u, self.v = u, v
        self.mx, self.my = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
        self.s, self.t = coords((b[0] - a[0]) / 2.0, (b[1] - a[1]) / 2.0, u, v)
        self.beta = 1.0 / math.tanh(theta)

    def to_canonical(self, x, y):
        alpha, beta = coords(x - self.mx, y - self.my, self.u, self.v)
        ps, pt = alpha / (2.0 * self.s), beta / (2.0 * self.t)
        return ps + pt, ps - pt

    def from_canonical(self, p, q):
        alpha, beta = self.s * (p + q), self.t * (p - q)
        return (
            self.mx + alpha * self.u[0] + beta * self.v[0],
            self.my + alpha * self.u[1] + beta * self.v[1],
        )

    def center(self):
        return self.from_canonical(0.0, -self.beta)

    def residual(self, x, y) -> float:
        """Relative residual of (x, y) on p^2 - q^2 - 2 beta q - 1 = 0."""
        p, q = self.to_canonical(x, y)
        value = p * p - q * q - 2.0 * self.beta * q - 1.0
        return abs(value) / (p * p + q * q + abs(2.0 * self.beta * q) + 1.0)

    def admissible(self, x, y):
        """True/False for a real/non-real angle; None within SINGULAR_MARGIN of the line pair."""
        p, q = self.to_canonical(x, y)
        f1 = (p + 1.0) ** 2 - q * q
        f2 = (p - 1.0) ** 2 - q * q
        if min(abs(f1), abs(f2)) <= SINGULAR_MARGIN * max(1.0, p * p + q * q):
            return None
        return f1 * f2 > 0.0

    def original_conic(self):
        """Normalized coefficients (xx, xy, yy, x, y, 1) of the conic in the original plane."""
        p0, q0 = self.to_canonical(0.0, 0.0)
        p1, q1 = self.to_canonical(1.0, 0.0)
        p2, q2 = self.to_canonical(0.0, 1.0)
        px, py, qx, qy = p1 - p0, p2 - p0, q1 - q0, q2 - q0
        b = self.beta
        coeffs = [
            px * px - qx * qx,
            2.0 * (px * py - qx * qy),
            py * py - qy * qy,
            2.0 * (p0 * px - q0 * qx) - 2.0 * b * qx,
            2.0 * (p0 * py - q0 * qy) - 2.0 * b * qy,
            p0 * p0 - q0 * q0 - 2.0 * b * q0 - 1.0,
        ]
        scale = max(abs(c) for c in coeffs)
        return [c / scale for c in coeffs]


def same_conic(mine, theirs, tol: float = 1e-7) -> bool:
    """Normalized coefficient vectors agree up to an overall sign."""
    plus = max(abs(a - b) for a, b in zip(mine, theirs))
    minus = max(abs(a + b) for a, b in zip(mine, theirs))
    return min(plus, minus) <= tol
