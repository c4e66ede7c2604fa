"""Exact polygon machinery: areas, point location, and the coverage check
behind visual-evidence steps.

Coverage equality has two exact paths, chosen by the input alone.  When
every edge of every polygon is axis-parallel (Book II's rectangles, squares
and gnomons), the multiplicity functions are constant on each cell of the
compressed grid of distinct vertex x and y coordinates, so both sides are
compared cell by cell there.  Any other input goes through the arrangement
induced by all polygon edges: every trapezoid of the vertical-slab
decomposition gets one interior sample point, and the multiplicity sums of
both sides must agree on every sample.  With rational coordinates every
predicate is exact; with radicals the comparisons go through sign
refinement of constructible reals.

`cross`, `dot`, `dist2`, `equal_length`, `collinear`, `right_angle` and
`signed_area2` (so `area`) have an integer kernel: on rational input they
compute on the ints `num`, `den` and reduce once by `cr.rational` (a
predicate just compares); other input takes the `Expr` composition through
`cr.add/sub/mul`.
"""

from __future__ import annotations

import functools
import math

from . import constructible as cr
from .constructible import Expr
from .errors import InvalidParam

Pt = tuple[Expr, Expr]
Polygon = tuple[Pt, ...]


def sign(x: Expr) -> int:
    return cr.refine_sign(x)


def cmp(a: Expr, b: Expr) -> int:
    """-1, 0 or +1 as a <, = or > b; two rationals by cross-multiplying."""
    if a.den and b.den:
        p, q = a.num * b.den, b.num * a.den
        return (p > q) - (p < q)
    return sign(cr.sub(a, b))


# The one ordering of exact scalars, for sorted/min/max: by value alone.
by_value = functools.cmp_to_key(cmp)


def sub2(p: Pt, q: Pt) -> Pt:
    return (cr.sub(p[0], q[0]), cr.sub(p[1], q[1]))


def _rat_sub2(p: Pt, q: Pt) -> tuple[int, int, int, int] | None:
    """p - q as unreduced fractions nx/dx, ny/dy of ints, returned as
    (nx, dx, ny, dy) with dx, dy > 0, when p and q are rational; else None."""
    (a, b), (c, d) = p, q
    if a.den and b.den and c.den and d.den:
        return (
            a.num * c.den - c.num * a.den, a.den * c.den,
            b.num * d.den - d.num * b.den, b.den * d.den,
        )
    return None


def cross(u: Pt, v: Pt) -> Expr:
    (a, b), (c, d) = u, v
    if a.den and b.den and c.den and d.den:
        n = a.num * d.num * b.den * c.den - b.num * c.num * a.den * d.den
        return cr.rational(n, a.den * b.den * c.den * d.den)
    return cr.sub(cr.mul(a, d), cr.mul(b, c))


def dot(u: Pt, v: Pt) -> Expr:
    (a, b), (c, d) = u, v
    if a.den and b.den and c.den and d.den:
        n = a.num * c.num * b.den * d.den + b.num * d.num * a.den * c.den
        return cr.rational(n, a.den * b.den * c.den * d.den)
    return cr.add(cr.mul(a, c), cr.mul(b, d))


def dist2(p: Pt, q: Pt) -> Expr:
    r = _rat_sub2(p, q)
    if r is not None:
        nx, dx, ny, dy = r
        return cr.rational((nx * dy) ** 2 + (ny * dx) ** 2, (dx * dy) ** 2)
    d = sub2(p, q)
    return dot(d, d)


def equal_length(p: Pt, q: Pt, r: Pt, s: Pt) -> bool:
    """|pq| == |rs|.  On rational points: the integer squared lengths over
    their denominators, cross-multiplied."""
    u, v = _rat_sub2(q, p), _rat_sub2(s, r)
    if u is not None and v is not None:
        nx, dx, ny, dy = u
        mx, ex, my, ey = v
        return ((nx * dy) ** 2 + (ny * dx) ** 2) * (ex * ey) ** 2 == (
            (mx * ey) ** 2 + (my * ex) ** 2
        ) * (dx * dy) ** 2
    return cmp(dist2(p, q), dist2(r, s)) == 0


def point_key(p: Pt):
    """Hashable identity of a point with exact coordinates: equal points
    have equal keys."""
    return (cr.exact_key(p[0]), cr.exact_key(p[1]))


def pts_equal(p: Pt, q: Pt) -> bool:
    return cmp(p[0], q[0]) == 0 and cmp(p[1], q[1]) == 0


def collinear(a: Pt, b: Pt, c: Pt) -> bool:
    u, v = _rat_sub2(b, a), _rat_sub2(c, a)
    if u is not None and v is not None:
        # cross(u, v) == 0 over the positive denominators
        return u[0] * v[2] * u[3] * v[1] == u[2] * v[0] * u[1] * v[3]
    return sign(cross(sub2(b, a), sub2(c, a))) == 0


def right_angle(v: Pt, a: Pt, b: Pt) -> bool:
    """The arms from v to a and to b are perpendicular."""
    u, w = _rat_sub2(a, v), _rat_sub2(b, v)
    if u is not None and w is not None:
        # dot(u, w) == 0 over the positive denominators
        return u[0] * w[0] * u[3] * w[3] + u[2] * w[2] * u[1] * w[1] == 0
    return sign(dot(sub2(a, v), sub2(b, v))) == 0


def on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """p lies on the closed segment ab."""
    if not collinear(a, b, p):
        return False
    d = sub2(b, a)
    t = dot(sub2(p, a), d)
    return sign(t) >= 0 and cmp(t, dot(d, d)) <= 0


def signed_area2(poly: Polygon) -> Expr:
    """Twice the signed area.  On rational vertices: the shoelace sum of
    the coordinates scaled to one x and one y denominator, reduced once."""
    if polygon_exact_rational(poly):
        dx = math.lcm(*(p[0].den for p in poly))
        dy = math.lcm(*(p[1].den for p in poly))
        xs = [p[0].num * (dx // p[0].den) for p in poly]
        ys = [p[1].num * (dy // p[1].den) for p in poly]
        n = sum(xs[i - 1] * ys[i] - ys[i - 1] * xs[i] for i in range(len(poly)))
        return cr.rational(n, dx * dy)
    acc = cr.ZERO
    for p, q in zip(poly, poly[1:] + poly[:1]):
        acc = cr.add(acc, cross(p, q))
    return acc


def area(poly: Polygon) -> Expr:
    a2 = signed_area2(poly)
    if sign(a2) < 0:
        a2 = cr.neg(a2)
    return cr.div(a2, cr.const(2))


def polygon_exact_rational(poly: Polygon) -> bool:
    return all(p[0].den and p[1].den for p in poly)


def region_key(poly: Polygon):
    """Canonical hashable identity of a polygon region (orientation- and
    rotation-insensitive).  Requires exact vertex coordinates."""
    keys = [point_key(p) for p in poly]
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


def _locate(v: Expr, vals: list[Expr]) -> tuple[int, bool]:
    """Binary search of v in the sorted distinct vals: (index, found)."""
    lo, hi = 0, len(vals)
    while lo < hi:
        mid = (lo + hi) // 2
        c = cmp(v, vals[mid])
        if c == 0:
            return mid, True
        if c < 0:
            hi = mid
        else:
            lo = mid + 1
    return lo, False


def _sorted_unique(vals: list[Expr]) -> list[Expr]:
    out: list[Expr] = []
    for v in vals:
        i, found = _locate(v, out)
        if not found:
            out.insert(i, v)
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
    """True iff the two multiplicity functions agree everywhere off edges.
    Rectilinear input is decided on the compressed coordinate grid, any
    other input on the slab arrangement; both give the same `equal`,
    `exact` and `max_multiplicity`."""
    polys = [p for p, _ in lhs] + [p for p, _ in rhs]
    if all(_rectilinear(poly) for poly in polys):
        return _grid_coverage(lhs, rhs)
    return _arrangement_coverage(lhs, rhs)


def _rectilinear(poly: Polygon) -> bool:
    """True iff each vertex shares an x or a y with the next one: every
    edge is axis-parallel or has zero length."""
    return all(
        cmp(a[0], b[0]) == 0 or cmp(a[1], b[1]) == 0
        for a, b in zip(poly, poly[1:] + poly[:1])
    )


def _grid_axis(vals: list[Expr]) -> tuple[list[Expr], list[int]]:
    """The sorted distinct values and the index of each input value among
    them, found by binary search with `cmp`."""
    uniq = _sorted_unique(vals)
    return uniq, [_locate(v, uniq)[0] for v in vals]


def _grid_coverage(
    lhs: list[tuple[Polygon, int]], rhs: list[tuple[Polygon, int]]
) -> CoverageResult:
    """Coverage of rectilinear polygons on the grid of their distinct vertex
    coordinates, where no edge passes through the inside of a cell.  A cell
    is inside a polygon when an odd number of its vertical edges cross the
    cell's row to the right of it: the crossing-to-+x rule of
    `point_in_polygon`, so non-simple polygons agree with the arrangement.
    The witness is the centre of the first differing cell in x-then-y
    order."""
    sides = [(p, m, 0) for p, m in lhs if p] + [(p, m, 1) for p, m in rhs if p]
    exact = all(polygon_exact_rational(p) for p, _, _ in sides)
    verts = [v for p, _, _ in sides for v in p]
    xs, ixs = _grid_axis([v[0] for v in verts])
    ys, iys = _grid_axis([v[1] for v in verts])
    # cell (i, j) lies between xs[i], xs[i + 1] and ys[j], ys[j + 1]; its
    # multiplicity on each side is cover[side][i * ny + j]
    nx, ny = max(len(xs) - 1, 0), max(len(ys) - 1, 0)
    cover = ([0] * (nx * ny), [0] * (nx * ny))
    start = 0
    for poly, m, side in sides:
        n = len(poly)
        px, py = ixs[start:start + n], iys[start:start + n]
        start += n
        # crossing[l * ny + j]: parity of vertical edges on line l over row j
        crossing = [0] * (len(xs) * ny)
        for k in range(n):
            if px[k] == px[k - 1]:
                lo, hi = sorted((py[k], py[k - 1]))
                for j in range(px[k] * ny + lo, px[k] * ny + hi):
                    crossing[j] ^= 1
        cells = cover[side]
        x0, x1 = min(px), max(px)
        for j in range(min(py), max(py)):
            inside = 0
            for i in range(x1 - 1, x0 - 1, -1):
                inside ^= crossing[(i + 1) * ny + j]
                if inside:
                    cells[i * ny + j] += m
    left, right = cover
    max_mult = max([0, *left, *right])
    half = cr.rational(1, 2)
    for c, (ml, mr) in enumerate(zip(left, right)):
        if ml != mr:
            i, j = divmod(c, ny)
            centre = (
                cr.mul(cr.add(xs[i], xs[i + 1]), half),
                cr.mul(cr.add(ys[j], ys[j + 1]), half),
            )
            return CoverageResult(False, exact, max_mult, (centre, ml, mr))
    return CoverageResult(True, exact, max_mult)


def _arrangement_coverage(
    lhs: list[tuple[Polygon, int]], rhs: list[tuple[Polygon, int]]
) -> CoverageResult:
    """Coverage on the vertical-slab arrangement of all edges and their
    crossings: one sample point per trapezoid, located by
    `point_in_polygon`.  Decides any polygons; the reference the grid path
    must agree with."""
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
    half = cr.rational(1, 2)
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
    """True iff the interiors intersect (positive-area overlap): the pair
    covers some point twice, which `coverage_equal` decides on the grid
    (boxes and gnomons) or on the arrangement (shapes with a slanted
    edge)."""
    return coverage_equal([(a, 1), (b, 1)], []).max_multiplicity >= 2


# ---------------------------------------------------------------------------
# axis-aligned boxes, drawn-side coverage, elementary cells
#
# What is drawn is fixed once a diagram is realized, so `DrawnSegments`
# indexes it once: the distinct lines of horizontal and vertical pieces,
# sorted by value, each with its pieces merged into disjoint covered
# intervals.  A side query locates its line and one interval by binary
# search with `cmp`, and the line lists are the breakpoints of
# `elementary_cells`.


def is_axis_segment(p: Pt, q: Pt) -> str | None:
    if cmp(p[0], q[0]) == 0 and cmp(p[1], q[1]) != 0:
        return "v"
    if cmp(p[1], q[1]) == 0 and cmp(p[0], q[0]) != 0:
        return "h"
    return None


Interval = tuple[Expr, Expr]


def _merge_intervals(pieces: list[Interval]) -> list[Interval]:
    """The union of closed pieces, as sorted disjoint closed intervals.
    Pieces may have reversed endpoints; touching pieces merge."""
    pieces = sorted(
        ((a, b) if cmp(a, b) <= 0 else (b, a) for a, b in pieces),
        key=lambda pc: by_value(pc[0]),
    )
    out: list[Interval] = []
    for a, b in pieces:
        if out and cmp(a, out[-1][1]) <= 0:
            if cmp(b, out[-1][1]) > 0:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def _covered(intervals: list[Interval], lo: Expr, hi: Expr) -> bool:
    """True iff [lo, hi] (either order) lies inside one of the sorted
    disjoint intervals; a zero-length query always does."""
    c = cmp(lo, hi)
    if c == 0:
        return True
    if c > 0:
        lo, hi = hi, lo
    # the last interval starting at or before lo is the only candidate
    i, j = 0, len(intervals)
    while i < j:
        mid = (i + j) // 2
        if cmp(intervals[mid][0], lo) <= 0:
            i = mid + 1
        else:
            j = mid
    return i > 0 and cmp(intervals[i - 1][1], hi) >= 0


def _add_to_line(lines: list[Expr], pieces: list[list[Interval]], c: Expr, piece: Interval):
    """File piece under the line at coordinate c, adding the line in sorted
    position when no line equals c by value."""
    i, found = _locate(c, lines)
    if not found:
        lines.insert(i, c)
        pieces.insert(i, [])
    pieces[i].append(piece)


class DrawnSegments:
    """The drawn segments of a diagram, indexed by exact line.

    Horizontal pieces are grouped by y and vertical pieces by x.  The
    distinct line coordinates (`h_lines`, `v_lines`) are sorted by value,
    with the first value seen standing for its line, and are found by
    binary search with `cmp`, so two constructions of one value reach one
    line and a radical that cannot be compared raises `Undecidable`.  Each
    line's pieces are merged once into sorted disjoint covered intervals
    (`h_cover[i]` for `h_lines[i]`, likewise `v_cover`), so a side query is
    two binary searches.  Segments that are neither horizontal nor vertical
    stay in `other` for `segment_drawn`."""

    def __init__(self, segments: list[tuple[Pt, Pt]]):
        self.h_lines: list[Expr] = []
        self.v_lines: list[Expr] = []
        h_pieces: list[list[Interval]] = []
        v_pieces: list[list[Interval]] = []
        self.other: list[tuple[Pt, Pt]] = []
        for p, q in segments:
            kind = is_axis_segment(p, q)
            if kind == "h":
                _add_to_line(self.h_lines, h_pieces, p[1], (p[0], q[0]))
            elif kind == "v":
                _add_to_line(self.v_lines, v_pieces, p[0], (p[1], q[1]))
            else:
                self.other.append((p, q))
        self.h_cover = [_merge_intervals(pcs) for pcs in h_pieces]
        self.v_cover = [_merge_intervals(pcs) for pcs in v_pieces]

    @staticmethod
    def _line(lines: list[Expr], cover: list[list[Interval]], c: Expr) -> list[Interval]:
        i, found = _locate(c, lines)
        return cover[i] if found else []

    def h_covered(self, y: Expr, x1: Expr, x2: Expr) -> bool:
        return _covered(self._line(self.h_lines, self.h_cover, y), x1, x2)

    def v_covered(self, x: Expr, y1: Expr, y2: Expr) -> bool:
        return _covered(self._line(self.v_lines, self.v_cover, x), y1, y2)

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
        idx = 0 if sign(d[0]) != 0 else 1
        merged = _merge_intervals([(a[idx], b[idx]) for a, b in pieces])
        return _covered(merged, p[idx], q[idx])


def box_polygon(x1: Expr, y1: Expr, x2: Expr, y2: Expr) -> Polygon:
    """Counterclockwise rectangle for corner coordinates x1<x2, y1<y2."""
    return ((x1, y1), (x2, y1), (x2, y2), (x1, y2))


def normalized_box(p: Pt, q: Pt) -> tuple[Expr, Expr, Expr, Expr] | None:
    if cmp(p[0], q[0]) == 0 or cmp(p[1], q[1]) == 0:
        return None
    x1, x2 = (p[0], q[0]) if cmp(p[0], q[0]) < 0 else (q[0], p[0])
    y1, y2 = (p[1], q[1]) if cmp(p[1], q[1]) < 0 else (q[1], p[1])
    return (x1, y1, x2, y2)


def box_of(poly: Polygon) -> tuple[Expr, Expr, Expr, Expr] | None:
    """(x1, y1, x2, y2) with x1 < x2 and y1 < y2 when the quadrilateral is
    an axis-aligned box whose sides are its edges, else None.  The edges
    must alternate between horizontal and vertical, so a crossed
    quadrilateral on the four corners (a bowtie) is not a box."""
    if len(poly) != 4:
        return None
    kinds = [is_axis_segment(poly[i - 1], poly[i]) for i in range(4)]
    if kinds not in (["h", "v", "h", "v"], ["v", "h", "v", "h"]):
        return None
    return normalized_box(poly[0], poly[2])


def gnomon_polygon(outer: Polygon, corner: Polygon) -> Polygon:
    """L-shaped hexagon: axis-aligned outer box minus a corner box that
    shares exactly one vertex with it."""
    outer_box, corner_box = box_of(outer), box_of(corner)
    if outer_box is None or corner_box is None:
        raise InvalidParam("gnomon parts must be axis-aligned boxes")
    X1, Y1, X2, Y2 = outer_box
    x1, y1, x2, y2 = corner_box
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
    """All grid boxes between consecutive drawn lines whose four sides are
    fully drawn.  Yields (x1, y1, x2, y2)."""
    xs, ys = drawn.v_lines, drawn.h_lines
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            x1, x2 = xs[i], xs[i + 1]
            y1, y2 = ys[j], ys[j + 1]
            if drawn.box_sides_drawn(x1, y1, x2, y2):
                yield (x1, y1, x2, y2)
