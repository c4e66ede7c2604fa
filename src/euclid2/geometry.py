"""Exact polygon machinery: areas, point location, and the coverage check
behind visual-evidence steps.

Coverage equality is decided on the arrangement induced by all polygon
edges: every trapezoid of the vertical-slab decomposition gets one interior
sample point, and the multiplicity sums of both sides must agree on every
sample.  With rational coordinates every predicate is exact; with radicals
the comparisons go through sign refinement of constructible reals.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import constructible as cr
from .constructible import Expr
from .errors import InvalidParam

Pt = tuple[Expr, Expr]
Polygon = tuple[Pt, ...]


def pt(x, y) -> Pt:
    gx = x if isinstance(x, Expr) else cr.const(x)
    gy = y if isinstance(y, Expr) else cr.const(y)
    return (gx, gy)


def sign(x: Expr) -> int:
    return cr.refine_sign(x)


def cmp(a: Expr, b: Expr) -> int:
    return sign(cr.sub(a, b))


# The one ordering of exact scalars, for sorted/min/max: by value alone.
by_value = functools.cmp_to_key(cmp)


def sub2(p: Pt, q: Pt) -> Pt:
    return (cr.sub(p[0], q[0]), cr.sub(p[1], q[1]))


def cross(u: Pt, v: Pt) -> Expr:
    return cr.sub(cr.mul(u[0], v[1]), cr.mul(u[1], v[0]))


def dot(u: Pt, v: Pt) -> Expr:
    return cr.add(cr.mul(u[0], v[0]), cr.mul(u[1], v[1]))


def dist2(p: Pt, q: Pt) -> Expr:
    d = sub2(p, q)
    return dot(d, d)


def pts_equal(p: Pt, q: Pt) -> bool:
    return cmp(p[0], q[0]) == 0 and cmp(p[1], q[1]) == 0


def collinear(a: Pt, b: Pt, c: Pt) -> bool:
    return sign(cross(sub2(b, a), sub2(c, a))) == 0


def on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """p lies on the closed segment ab."""
    if not collinear(a, b, p):
        return False
    d = sub2(b, a)
    t = dot(sub2(p, a), d)
    return sign(t) >= 0 and cmp(t, dot(d, d)) <= 0


def signed_area2(poly: Polygon) -> Expr:
    """Twice the signed area."""
    acc = cr.ZERO
    n = len(poly)
    for i in range(n):
        acc = cr.add(acc, cross(poly[i], poly[(i + 1) % n]))
    return acc


def area(poly: Polygon) -> Expr:
    a2 = signed_area2(poly)
    if sign(a2) < 0:
        a2 = cr.neg(a2)
    return cr.div(a2, cr.const(2))


def polygon_exact_rational(poly: Polygon) -> bool:
    return all(p[0].is_rational and p[1].is_rational for p in poly)


def region_key(poly: Polygon):
    """Canonical hashable identity of a polygon region (orientation- and
    rotation-insensitive).  Requires exact vertex coordinates."""
    keys = [(cr.exact_key(p[0]), cr.exact_key(p[1])) for p in poly]
    best = None
    for seq in (keys, keys[::-1]):
        for i in range(len(seq)):
            rot = tuple(seq[i:] + seq[:i])
            if best is None or rot < best:
                best = rot
    return best


def _edges(poly: Polygon):
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        if not pts_equal(p, q):
            yield (p, q)


def point_in_polygon(p: Pt, poly: Polygon) -> bool:
    """Crossing-number parity for a point not on the boundary."""
    px, py = p
    inside = False
    for a, b in _edges(poly):
        ya, yb = a[1], b[1]
        above_a = cmp(ya, py) > 0
        above_b = cmp(yb, py) > 0
        if above_a == above_b:
            continue
        # x of the edge at height py
        t = cr.div(cr.sub(py, ya), cr.sub(yb, ya))
        xi = cr.add(a[0], cr.mul(t, cr.sub(b[0], a[0])))
        if cmp(xi, px) > 0:
            inside = not inside
    return inside


def coverage_multiplicity(polys: list[tuple[Polygon, int]], p: Pt) -> int:
    return sum(m for poly, m in polys if point_in_polygon(p, poly))


def _sorted_unique(vals: list[Expr]) -> list[Expr]:
    out: list[Expr] = []
    for v in vals:
        lo, hi = 0, len(out)
        placed = False
        while lo < hi:
            mid = (lo + hi) // 2
            c = cmp(v, out[mid])
            if c == 0:
                placed = True
                break
            if c < 0:
                hi = mid
            else:
                lo = mid + 1
        if not placed:
            out.insert(lo, v)
    return out


def _intersection_xs(edges):
    xs = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            p1, q1 = edges[i]
            p2, q2 = edges[j]
            d1, d2 = sub2(q1, p1), sub2(q2, p2)
            den = cross(d1, d2)
            if sign(den) == 0:
                continue
            t_num = cross(sub2(p2, p1), d2)
            u_num = cross(sub2(p2, p1), d1)
            sden = sign(den)
            t_num_s, u_num_s = sign(t_num), sign(u_num)
            # require 0 <= t <= 1 and 0 <= u <= 1 (signs relative to den)
            def frac_in_01(num, num_s):
                if sden > 0:
                    return num_s >= 0 and cmp(num, den) <= 0
                return num_s <= 0 and cmp(num, den) >= 0

            if frac_in_01(t_num, t_num_s) and frac_in_01(u_num, u_num_s):
                t = cr.div(t_num, den)
                xs.append(cr.add(p1[0], cr.mul(t, d1[0])))
    return xs


class CoverageResult:
    def __init__(self, equal, exact, max_multiplicity, witness=None):
        self.equal = equal
        self.exact = exact
        self.max_multiplicity = max_multiplicity
        self.witness = witness  # sample point with differing multiplicity


def coverage_equal(
    lhs: list[tuple[Polygon, int]], rhs: list[tuple[Polygon, int]]
) -> CoverageResult:
    """True iff the two multiplicity functions agree everywhere off edges."""
    all_polys = [p for p, _ in lhs] + [p for p, _ in rhs]
    exact = all(polygon_exact_rational(p) for p in all_polys)
    edges = [e for poly in all_polys for e in _edges(poly)]
    xs = [p[0] for e in edges for p in e]
    xs += _intersection_xs(edges)
    xs = _sorted_unique(xs)
    equal = True
    witness = None
    max_mult = 0
    one = cr.ONE
    half = cr.const(Fraction(1, 2))
    for i in range(len(xs) - 1):
        xm = cr.mul(cr.add(xs[i], xs[i + 1]), half)
        ys = []
        for a, b in edges:
            ca, cb = cmp(a[0], xm), cmp(b[0], xm)
            if ca * cb == -1:
                t = cr.div(cr.sub(xm, a[0]), cr.sub(b[0], a[0]))
                ys.append(cr.add(a[1], cr.mul(t, cr.sub(b[1], a[1]))))
        if not ys:
            continue
        ys = _sorted_unique(ys)
        samples = [cr.sub(ys[0], one)]
        for j in range(len(ys) - 1):
            samples.append(cr.mul(cr.add(ys[j], ys[j + 1]), half))
        samples.append(cr.add(ys[-1], one))
        for sy in samples:
            p = (xm, sy)
            ml = coverage_multiplicity(lhs, p)
            mr = coverage_multiplicity(rhs, p)
            max_mult = max(max_mult, ml, mr)
            if ml != mr:
                equal = False
                if witness is None:
                    witness = (p, ml, mr)
    return CoverageResult(equal, exact, max_mult, witness)


def polys_overlap(a: Polygon, b: Polygon) -> bool:
    """True iff the interiors intersect (positive-area overlap)."""
    res = coverage_equal([(a, 1), (b, 1)], [])
    # res.equal is False unless both are empty; we want max multiplicity
    return res.max_multiplicity >= 2


# ---------------------------------------------------------------------------
# axis-aligned boxes, drawn-side coverage, elementary cells


def is_axis_segment(p: Pt, q: Pt) -> str | None:
    if cmp(p[0], q[0]) == 0 and cmp(p[1], q[1]) != 0:
        return "v"
    if cmp(p[1], q[1]) == 0 and cmp(p[0], q[0]) != 0:
        return "h"
    return None


def _interval_minus(lo: Expr, hi: Expr, pieces: list[tuple[Expr, Expr]]) -> bool:
    """True iff [lo,hi] is fully covered by the union of the pieces."""
    pieces = [(a, b) if cmp(a, b) <= 0 else (b, a) for a, b in pieces]
    pieces = [pc for pc in pieces if cmp(pc[1], lo) > 0 and cmp(pc[0], hi) < 0]
    pieces.sort(key=lambda pc: by_value(pc[0]))
    cur = lo
    for a, b in pieces:
        if cmp(a, cur) > 0:
            return False
        if cmp(b, cur) > 0:
            cur = b
        if cmp(cur, hi) >= 0:
            return True
    return cmp(cur, hi) >= 0


class DrawnSegments:
    """Index of drawn segments split into horizontal / vertical / other."""

    def __init__(self, segments: list[tuple[Pt, Pt]]):
        self.horizontal: list[tuple[Expr, Expr, Expr]] = []  # (y, x1, x2)
        self.vertical: list[tuple[Expr, Expr, Expr]] = []  # (x, y1, y2)
        self.other: list[tuple[Pt, Pt]] = []
        self.all = list(segments)
        for p, q in segments:
            kind = is_axis_segment(p, q)
            if kind == "h":
                self.horizontal.append((p[1], p[0], q[0]))
            elif kind == "v":
                self.vertical.append((p[0], p[1], q[1]))
            else:
                self.other.append((p, q))

    def h_covered(self, y: Expr, x1: Expr, x2: Expr) -> bool:
        if cmp(x1, x2) > 0:
            x1, x2 = x2, x1
        pieces = [(a, b) for (yy, a, b) in self.horizontal if cmp(yy, y) == 0]
        return _interval_minus(x1, x2, pieces)

    def v_covered(self, x: Expr, y1: Expr, y2: Expr) -> bool:
        if cmp(y1, y2) > 0:
            y1, y2 = y2, y1
        pieces = [(a, b) for (xx, a, b) in self.vertical if cmp(xx, x) == 0]
        return _interval_minus(y1, y2, pieces)

    def box_sides_drawn(self, x1: Expr, y1: Expr, x2: Expr, y2: Expr) -> bool:
        return (
            self.h_covered(y1, x1, x2)
            and self.h_covered(y2, x1, x2)
            and self.v_covered(x1, y1, y2)
            and self.v_covered(x2, y1, y2)
        )

    def segment_drawn(self, p: Pt, q: Pt) -> bool:
        """The segment pq lies inside the union of drawn segments collinear
        with it (used for diameters of parallelograms in complement checks)."""
        kind = is_axis_segment(p, q)
        if kind == "h":
            return self.h_covered(p[1], p[0], q[0])
        if kind == "v":
            return self.v_covered(p[0], p[1], q[1])
        pieces = []
        for a, b in self.other:
            if collinear(a, b, p) and collinear(a, b, q):
                pieces.append((a, b))
        if not pieces:
            return False
        # project onto the dominant axis of pq
        d = sub2(q, p)
        horiz = sign(d[0]) != 0
        idx = 0 if horiz else 1
        lo, hi = p[idx], q[idx]
        if cmp(lo, hi) > 0:
            lo, hi = hi, lo
        return _interval_minus(lo, hi, [(a[idx], b[idx]) for a, b in pieces])


def box_polygon(x1: Expr, y1: Expr, x2: Expr, y2: Expr) -> Polygon:
    """Counterclockwise rectangle for corner coordinates x1<x2, y1<y2."""
    return ((x1, y1), (x2, y1), (x2, y2), (x1, y2))


def normalized_box(p: Pt, q: Pt) -> tuple[Expr, Expr, Expr, Expr] | None:
    if cmp(p[0], q[0]) == 0 or cmp(p[1], q[1]) == 0:
        return None
    x1, x2 = (p[0], q[0]) if cmp(p[0], q[0]) < 0 else (q[0], p[0])
    y1, y2 = (p[1], q[1]) if cmp(p[1], q[1]) < 0 else (q[1], p[1])
    return (x1, y1, x2, y2)


def gnomon_polygon(outer: Polygon, corner: Polygon) -> Polygon:
    """L-shaped hexagon: axis-aligned outer box minus a corner box that
    shares exactly one vertex with it."""
    ox = _sorted_unique([p[0] for p in outer])
    oy = _sorted_unique([p[1] for p in outer])
    cx = _sorted_unique([p[0] for p in corner])
    cy = _sorted_unique([p[1] for p in corner])
    if len(ox) != 2 or len(oy) != 2 or len(cx) != 2 or len(cy) != 2:
        raise InvalidParam("gnomon parts must be axis-aligned boxes")
    X1, X2 = ox
    Y1, Y2 = oy
    x1, x2 = cx
    y1, y2 = cy
    # classify which outer corner the inner box occupies
    at_left = cmp(x1, X1) == 0
    at_bottom = cmp(y1, Y1) == 0
    at_right = cmp(x2, X2) == 0
    at_top = cmp(y2, Y2) == 0
    if at_left and at_bottom and not (at_right or at_top):
        return ((x2, Y1), (X2, Y1), (X2, Y2), (X1, Y2), (X1, y2), (x2, y2))
    if at_right and at_bottom and not (at_left or at_top):
        return ((X1, Y1), (x1, Y1), (x1, y2), (X2, y2), (X2, Y2), (X1, Y2))
    if at_left and at_top and not (at_right or at_bottom):
        return ((X1, Y1), (X2, Y1), (X2, Y2), (x2, Y2), (x2, y1), (X1, y1))
    if at_right and at_top and not (at_left or at_bottom):
        return ((X1, Y1), (X2, Y1), (X2, y1), (x1, y1), (x1, Y2), (X1, Y2))
    raise InvalidParam("corner box does not sit in a corner of the outer box")


def elementary_cells(drawn: DrawnSegments):
    """All grid boxes between consecutive breakpoints whose four sides are
    fully drawn.  Yields (x1, y1, x2, y2)."""
    xs = _sorted_unique([x for (x, _, _) in drawn.vertical])
    ys = _sorted_unique([y for (y, _, _) in drawn.horizontal])
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            x1, x2 = xs[i], xs[i + 1]
            y1, y2 = ys[j], ys[j + 1]
            if drawn.box_sides_drawn(x1, y1, x2, y2):
                yield (x1, y1, x2, y2)
