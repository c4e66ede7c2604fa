"""Exact polygon machinery: areas, point location, and the coverage check
behind visual-evidence steps and MERGE's overlap test.

Coverage equality has one exact algorithm for any polygons, the trapezoidal
decomposition of the vertical-slab arrangement (de Berg, Cheong, van
Kreveld and Overmars, *Computational Geometry*, ch. 6).  Slab boundaries
are the distinct vertex x coordinates and the x of each point where a
slanted edge crosses another edge, so Book II's rectilinear figures need no
crossings.  In each slab the edges spanning it, sorted by exact height at
its middle, bound trapezoids on which both multiplicity functions are
constant.  Every predicate is exact: on rationals by integer products,
and with radicals by the exact sign of a constructible real.

`dot`, `dist2`, `length`, `equal_length`, `collinear`, `angle_sign`,
`meet`, `signed_area2`, `area` and `box_area` have an integer kernel: on
rational input they compute on the ints `num`, `den` and reduce once by
`cr.rational` (a predicate just compares); so does `along`.  `cmp`,
`dot`, `dist2`, `length`, `equal_length`, `collinear`, `angle_sign`,
`box_area`, `meet`, `along` and `line_circle` have a second one, for input
in one field Q(sqrt r) (II.11's and II.14's points past a circle): `_field`
reads each value as ints (a, b, d) for (a + b*sqrt(r))/d, and the result
is reduced once by `cr._quad`.  Input in two fields or with a tower
value, and `signed_area2`, `area` and `cross` on anything but rationals,
take the `Expr` composition through `cr.add/sub/mul`.  `midpoint`,
`along` and `line_circle` build the points a construction places on a
line.  Identity is by value: `pts_equal` and `same_region`.  This module
and `constructible` are the only ones that read how a number is stored.
"""

from __future__ import annotations

import functools
import math

from . import constructible as cr
from .constructible import Expr, Triple, _quad, qadd, qdiv, qmul, qsub
from .errors import InvalidParam, NoIntersection

Pt = tuple[Expr, Expr]
Polygon = tuple[Pt, ...]


def sign(x: Expr) -> int:
    return cr.refine_sign(x)


def cmp(a: Expr, b: Expr) -> int:
    """-1, 0 or +1 as a <, = or > b; two rationals by cross-multiplying,
    two values of one field Q(sqrt r) by the sign of the int difference."""
    if a.den and b.den:
        p, q = a.num * b.den, b.num * a.den
        return (p > q) - (p < q)
    # `_field`'s test of one field, written out: a third of the time of a
    # call to it, on the comparison under `by_value`, `pts_equal` and the
    # drawn-segment index
    (a1, b1, d1, r1), (a2, b2, d2, r2) = a.q or (a.num, 0, a.den, 0), b.q or (b.num, 0, b.den, 0)
    if d1 and d2 and (r1 == r2 or not (r1 and r2)):
        return cr.qsign(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, r1 or r2)
    return sign(cr.sub(a, b))


# The one ordering of exact scalars, for sorted/min/max: by value alone.
by_value = functools.cmp_to_key(cmp)


def sub2(p: Pt, q: Pt) -> Pt:
    return (cr.sub(p[0], q[0]), cr.sub(p[1], q[1]))


# -- one quadratic field: each value (a + b*sqrt(r))/d as an int triple
# (a, b, d), d > 0, over the one radicand r of a kernel's input (0 when all
# of it is rational), combined unreduced by `cr.qadd` ... `cr.qdiv`.


def _field(*xs: Expr) -> tuple[int, list[Triple]] | None:
    """(r, triples) for values of one field Q(sqrt r); else None."""
    r, out = 0, []
    for x in xs:
        a, b, d, s = x.q or (x.num, 0, x.den, 0)  # d == 0: a tower value
        if not d or (s and r and s != r):
            return None
        r = r or s
        out.append((a, b, d))
    return r, out


def _diffs(*ends: Pt) -> tuple[int, list[Triple]] | None:
    """(r, [x, y, ...]): the differences ends[1] - ends[0], ends[3] -
    ends[2], ... as triples over one field; else None."""
    f = _field(*[c for p in ends for c in p])
    if f is None:
        return None
    r, t = f
    return r, [qsub(t[i + 2], t[i]) for k in range(0, len(t), 4) for i in (k, k + 1)]


def _norm2(x: Triple, y: Triple, r: int) -> Triple:
    """x*x + y*y: the squared length of the vector (x, y)."""
    return qadd(qmul(x, x, r), qmul(y, y, r))


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
    return cr.sub(cr.mul(a, d), cr.mul(b, c))


def dot(u: Pt, v: Pt) -> Expr:
    (a, b), (c, d) = u, v
    if a.den and b.den and c.den and d.den:
        n = a.num * c.num * b.den * d.den + b.num * d.num * a.den * c.den
        return cr.rational(n, a.den * b.den * c.den * d.den)
    f = _field(a, b, c, d)
    if f is not None:
        r, (a, b, c, d) = f
        return _quad(*qadd(qmul(a, c, r), qmul(b, d, r)), r)
    return cr.add(cr.mul(a, c), cr.mul(b, d))


def dist2(p: Pt, q: Pt) -> Expr:
    r = _rat_sub2(p, q)
    if r is not None:
        nx, dx, ny, dy = r
        return cr.rational((nx * dy) ** 2 + (ny * dx) ** 2, (dx * dy) ** 2)
    f = _diffs(p, q)
    if f is not None:
        r, (x, y) = f
        return _quad(*_norm2(x, y, r), r)
    d = sub2(p, q)
    return dot(d, d)


def length(p: Pt, q: Pt) -> Expr:
    """|pq|.  An axis-aligned segment with rational ends is |dx| or |dy|,
    one integer difference reduced once, and with ends in one field the
    same difference as a triple."""
    r = _rat_sub2(q, p)
    if r is not None:
        nx, dx, ny, dy = r
        if nx == 0:
            return cr.rational(abs(ny), dy)
        if ny == 0:
            return cr.rational(abs(nx), dx)
        return cr.sqrt(dist2(p, q))
    f = _diffs(p, q)
    if f is not None:
        r, (x, y) = f
        for u, w in ((x, y), (y, x)):
            if not (u[0] or u[1]):
                s = cr.qsign(w[0], w[1], r)
                return _quad(s * w[0], s * w[1], w[2], r)
        return cr.sqrt(_quad(*_norm2(x, y, r), r))
    dx, dy = sub2(q, p)
    if sign(dx) == 0:
        return dy if sign(dy) >= 0 else cr.neg(dy)
    if sign(dy) == 0:
        return dx if sign(dx) >= 0 else cr.neg(dx)
    return cr.sqrt(dist2(p, q))


_HALF = cr.rational(1, 2)


def midpoint(p: Pt, q: Pt) -> Pt:
    return (cr.mul(cr.add(p[0], q[0]), _HALF), cr.mul(cr.add(p[1], q[1]), _HALF))


def along(start: Pt, p: Pt, q: Pt, d: Expr, pq: Expr | None = None) -> Pt:
    """The point at distance d from start in the direction of pq, whose
    length `pq` is measured here unless the caller has measured it."""
    pq = length(p, q) if pq is None else pq
    (sx, sy), u = start, _rat_sub2(q, p)
    if u is not None and sx.den and sy.den and d.den and pq.den:
        # start + (k/m)*(q - p), k/m = d/|pq| with m > 0: on II.8's rational
        # cuts and extensions, a third of the time of the triple path
        nx, dx, ny, dy = u
        k, m = d.num * pq.den, d.den * pq.num
        return (
            cr.rational(sx.num * m * dx + k * nx * sx.den, sx.den * m * dx),
            cr.rational(sy.num * m * dy + k * ny * sy.den, sy.den * m * dy),
        )
    f = _field(*start, *p, *q, d, pq)
    if f is not None:
        r, (sx, sy, px, py, qx, qy, d, pq) = f
        k = qdiv(d, pq, r)
        return (
            _quad(*qadd(sx, qmul(k, qsub(qx, px), r)), r),
            _quad(*qadd(sy, qmul(k, qsub(qy, py), r)), r),
        )
    scale = cr.div(d, pq)
    return (
        cr.add(start[0], cr.mul(scale, cr.sub(q[0], p[0]))),
        cr.add(start[1], cr.mul(scale, cr.sub(q[1], p[1]))),
    )


def meet(p: Pt, x: Pt, y: Pt, u: Pt, v: Pt) -> Pt:
    """The point where the line through p parallel to xy meets the line uv.
    On rational input the ten coordinates are scaled to one denominator D
    and the point is solved in ints, each coordinate reduced once; in one
    field it is solved in triples; any other input composes `Expr`
    arithmetic."""
    cs = (*p, *x, *y, *u, *v)
    dens = [c.den for c in cs]
    if all(dens):
        D = math.lcm(*dens)
        px, py, xx, xy, yx, yy, ux, uy, vx, vy = [c.num * (D // c.den) for c in cs]
        dx, dy, ex, ey = yx - xx, yy - xy, vx - ux, vy - uy
        den = dx * ey - dy * ex
        if den == 0:
            raise NoIntersection("lines are parallel")
        t = (ux - px) * ey - (uy - py) * ex  # the meet is p + (t/den)*(y - x)
        return cr.rational(px * den + t * dx, den * D), cr.rational(py * den + t * dy, den * D)
    f = _field(*cs)
    if f is not None:
        r, (px, py, xx, xy, yx, yy, ux, uy, vx, vy) = f
        dx, dy, ex, ey = qsub(yx, xx), qsub(yy, xy), qsub(vx, ux), qsub(vy, uy)
        den = qsub(qmul(dx, ey, r), qmul(dy, ex, r))
        if not (den[0] or den[1]):
            raise NoIntersection("lines are parallel")
        t = qdiv(qsub(qmul(qsub(ux, px), ey, r), qmul(qsub(uy, py), ex, r)), den, r)
        return _quad(*qadd(px, qmul(t, dx, r)), r), _quad(*qadd(py, qmul(t, dy, r)), r)
    d, du = sub2(y, x), sub2(v, u)
    den = cross(d, du)
    if sign(den) == 0:
        raise NoIntersection("lines are parallel")
    t = cr.div(cross(sub2(u, p), du), den)
    return (cr.add(p[0], cr.mul(t, d[0])), cr.add(p[1], cr.mul(t, d[1])))


def line_circle(p: Pt, q: Pt, center: Pt, radius2: Expr, above: bool) -> Pt:
    """A point where the line pq meets the circle about center with squared
    radius radius2: the higher of two when `above`, else the lower; on a
    horizontal line, the first met going from p towards q when `above`.  It
    is p + t*(q - p) for a root t of a*t*t + b*t + c = 0, taken with
    +sqrt(b*b - 4*a*c) when that point is the one asked for.  On rational
    input the roots lie in one field Q(sqrt r), and the point is built in
    triples, each coordinate reduced once; any other input composes `Expr`
    arithmetic."""
    plus = (cmp(q[1], p[1]) > 0) == above
    f = _field(*p, *q, *center, radius2)
    if f is not None and f[0] == 0:
        _, (px, py, qx, qy, cx, cy, r2) = f
        dx, dy, wx, wy = qsub(qx, px), qsub(qy, py), qsub(px, cx), qsub(py, cy)
        # a*t*t + 2*h*t + c = 0 has the roots (-h +- sqrt(h*h - a*c))/a
        a, h = _norm2(dx, dy, 0), qadd(qmul(dx, wx, 0), qmul(dy, wy, 0))
        disc = qsub(qmul(h, h, 0), qmul(a, qsub(_norm2(wx, wy, 0), r2), 0))
        if disc[0] < 0:
            raise NoIntersection("line misses the circle")
        rt = cr.sqrt(cr.rational(disc[0], disc[2]))
        e, k, g, r = rt.q or (rt.num, 0, rt.den, 0)
        t = qdiv(qsub((e, k, g) if plus else (-e, -k, g), h), a, r)
        return _quad(*qadd(px, qmul(t, dx, r)), r), _quad(*qadd(py, qmul(t, dy, r)), r)
    d, pc = sub2(q, p), sub2(p, center)
    a = dot(d, d)
    b = cr.mul(cr.const(2), dot(d, pc))
    c = cr.sub(dot(pc, pc), radius2)
    disc = cr.sub(cr.mul(b, b), cr.mul(cr.const(4), cr.mul(a, c)))
    sd = sign(disc)
    if sd < 0:
        raise NoIntersection("line misses the circle")
    if sd == 0:
        t = cr.div(cr.neg(b), cr.mul(cr.const(2), a))
    else:
        rt = cr.sqrt(disc)
        t = cr.div(cr.sub(rt if plus else cr.neg(rt), b), cr.mul(cr.const(2), a))
    return (cr.add(p[0], cr.mul(t, d[0])), cr.add(p[1], cr.mul(t, d[1])))


def equal_length(p: Pt, q: Pt, r: Pt, s: Pt) -> bool:
    """|pq| == |rs|.  On rational points: the integer squared lengths over
    their denominators, cross-multiplied; in one field, both parts of the
    squared lengths' triples."""
    u, v = _rat_sub2(q, p), _rat_sub2(s, r)
    if u is not None and v is not None:
        nx, dx, ny, dy = u
        mx, ex, my, ey = v
        return ((nx * dy) ** 2 + (ny * dx) ** 2) * (ex * ey) ** 2 == (
            (mx * ey) ** 2 + (my * ex) ** 2
        ) * (dx * dy) ** 2
    f = _diffs(p, q, r, s)
    if f is not None:
        rad, (ux, uy, vx, vy) = f
        (a1, b1, d1), (a2, b2, d2) = _norm2(ux, uy, rad), _norm2(vx, vy, rad)
        return a1 * d2 == a2 * d1 and b1 * d2 == b2 * d1
    return cmp(dist2(p, q), dist2(r, s)) == 0


def pts_equal(p: Pt, q: Pt) -> bool:
    return cmp(p[0], q[0]) == 0 and cmp(p[1], q[1]) == 0


def collinear(a: Pt, b: Pt, c: Pt) -> bool:
    u, v = _rat_sub2(b, a), _rat_sub2(c, a)
    if u is not None and v is not None:
        # cross(u, v) == 0 over the positive denominators
        return u[0] * v[2] * u[3] * v[1] == u[2] * v[0] * u[1] * v[3]
    f = _diffs(a, b, a, c)
    if f is not None:
        r, (ux, uy, vx, vy) = f
        return not any(qsub(qmul(ux, vy, r), qmul(uy, vx, r))[:2])
    return sign(cross(sub2(b, a), sub2(c, a))) == 0


def angle_sign(v: Pt, a: Pt, b: Pt) -> int:
    """+1, 0 or -1 as the angle at v between the arms to a and to b is
    acute, right or obtuse: the sign of their dot product."""
    u, w = _rat_sub2(a, v), _rat_sub2(b, v)
    if u is not None and w is not None:
        # dot(u, w) over the positive denominators
        n = u[0] * w[0] * u[3] * w[3] + u[2] * w[2] * u[1] * w[1]
        return (n > 0) - (n < 0)
    f = _diffs(v, a, v, b)
    if f is not None:
        r, (ux, uy, wx, wy) = f
        return cr.qsign(*qadd(qmul(ux, wx, r), qmul(uy, wy, r))[:2], r)
    return sign(dot(sub2(a, v), sub2(b, v)))


def right_angle(v: Pt, a: Pt, b: Pt) -> bool:
    """The arms from v to a and to b are perpendicular."""
    return angle_sign(v, a, b) == 0


def on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """p lies on the closed segment ab."""
    if not collinear(a, b, p):
        return False
    d = sub2(b, a)
    t = dot(sub2(p, a), d)
    return sign(t) >= 0 and cmp(t, dot(d, d)) <= 0


def _shoelace(poly: Polygon) -> tuple[int, int]:
    """Twice the signed area of a rational polygon as n/d: the shoelace sum
    of the coordinates scaled to one x and one y denominator."""
    dx = math.lcm(*(p[0].den for p in poly))
    dy = math.lcm(*(p[1].den for p in poly))
    xs = [p[0].num * (dx // p[0].den) for p in poly]
    ys = [p[1].num * (dy // p[1].den) for p in poly]
    return sum(xs[i - 1] * ys[i] - ys[i - 1] * xs[i] for i in range(len(poly))), dx * dy


def signed_area2(poly: Polygon) -> Expr:
    """Twice the signed area.  On rational vertices: the shoelace sum,
    reduced once."""
    if polygon_exact_rational(poly):
        return cr.rational(*_shoelace(poly))
    acc = cr.ZERO
    for p, q in zip(poly, poly[1:] + poly[:1]):
        acc = cr.add(acc, cross(p, q))
    return acc


def area(poly: Polygon) -> Expr:
    """The unsigned area.  On rational vertices: |shoelace| / 2, reduced
    once."""
    if polygon_exact_rational(poly):
        n, d = _shoelace(poly)
        return cr.rational(abs(n), 2 * d)
    a2 = signed_area2(poly)
    if sign(a2) < 0:
        a2 = cr.neg(a2)
    return cr.div(a2, cr.const(2))


def polygon_exact_rational(poly: Polygon) -> bool:
    return all(p[0].den and p[1].den for p in poly)


def same_region(p: Polygon, q: Polygon) -> bool:
    """The two polygons have one vertex cycle, from any start vertex and in
    either direction, their vertices compared by value."""
    n = len(p)
    return len(q) == n and any(
        all(pts_equal(p[k], seq[(i + k) % n]) for k in range(n))
        for seq in (q, q[::-1])
        for i in range(n)
    )


def point_in_polygon(p: Pt, poly: Polygon) -> bool:
    """Crossing-number parity for a point not on the boundary."""
    px, py = p
    inside = False
    for a, b in zip(poly, poly[1:] + poly[:1]):
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


def locate(v: Expr, vals: list[Expr]) -> tuple[int, bool]:
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
        i, found = locate(v, out)
        if not found:
            out.insert(i, v)
    return out


class CoverageResult:
    def __init__(self, equal, exact, max_multiplicity, witness=None):
        self.equal = equal
        self.exact = exact
        self.max_multiplicity = max_multiplicity
        self.witness = witness  # (point, ml, mr) where the sides differ


def _crossing_x(e, f) -> Expr | None:
    """The x where the non-vertical edges e and f cross strictly inside
    both x-ranges, or None.  An edge is (x_lo, x_hi, slope, intercept, _)
    with slope None when it is horizontal."""
    se, sf = e[2] or cr.ZERO, f[2] or cr.ZERO
    if cmp(se, sf) == 0:
        return None
    x = cr.div(cr.sub(f[3], e[3]), cr.sub(se, sf))
    if all(cmp(g[0], x) < 0 < cmp(g[1], x) for g in (e, f)):
        return x
    return None


def coverage_equal(
    lhs: list[tuple[Polygon, int]], rhs: list[tuple[Polygon, int]]
) -> CoverageResult:
    """True iff the two multiplicity functions agree everywhere off edges.

    One sweep over vertical slabs decides any polygons: the slabs lie
    between consecutive distinct x values of the vertices and of the points
    where a slanted edge crosses another edge, so the non-vertical edges
    spanning a slab cut it into trapezoids.  Going up a slab, by exact
    height at its middle, each edge flips its polygon's crossing parity
    (the even-odd rule of `point_in_polygon`, so self-crossing polygons
    count alike) and both sides keep their multiplicity as a running sum.
    `max_multiplicity` covers every trapezoid; the witness is the centre of
    the first differing one, slab by slab, bottom to top.

    Worst case: with E edges in all, the crossing test is E^2 pairs, and
    each of the up to E + E^2 slabs sorts the edges spanning it, so the
    sweep grows with slabs × edges."""
    polys = [(p, m, 0) for p, m in lhs] + [(p, m, 1) for p, m in rhs]
    exact = all(polygon_exact_rational(p) for p, _, _ in polys)
    xs: list[Expr] = []
    edges = []  # (x_lo, x_hi, slope or None, intercept, polygon index)
    for k, (poly, _, _) in enumerate(polys):
        xs += [p[0] for p in poly]
        for a, b in zip(poly, poly[1:] + poly[:1]):
            c = cmp(a[0], b[0])
            if c == 0:
                continue  # a vertical or zero-length edge spans no slab
            if c > 0:
                a, b = b, a
            if cmp(a[1], b[1]) == 0:
                edges.append((a[0], b[0], None, a[1], k))
            else:
                s = cr.div(cr.sub(b[1], a[1]), cr.sub(b[0], a[0]))
                edges.append((a[0], b[0], s, cr.sub(a[1], cr.mul(s, a[0])), k))
    slanted = [e for e in edges if e[2] is not None]
    flat = [e for e in edges if e[2] is None]
    for i, e in enumerate(slanted):
        for f in slanted[i + 1 :] + flat:
            x = _crossing_x(e, f)
            if x is not None:
                xs.append(x)
    xs = _sorted_unique(xs)
    spans: list[list] = [[] for _ in xs[1:]]
    for e in edges:
        for i in range(locate(e[0], xs)[0], locate(e[1], xs)[0]):
            spans[i].append(e)
    max_mult, witness = 0, None
    for i, span in enumerate(spans):
        if not span:
            continue
        xm = cr.mul(cr.add(xs[i], xs[i + 1]), _HALF)
        ys = sorted(
            ((c if s is None else cr.add(cr.mul(s, xm), c), k) for _, _, s, c, k in span),
            key=lambda yk: by_value(yk[0]),
        )
        inside = [False] * len(polys)
        count = [0, 0]
        # past the last edge of a slab every polygon has been left again
        for (y, k), (above, _) in zip(ys, ys[1:]):
            inside[k] = not inside[k]
            _, m, side = polys[k]
            count[side] += m if inside[k] else -m
            if cmp(y, above) < 0:
                ml, mr = count
                max_mult = max(max_mult, ml, mr)
                if ml != mr and witness is None:
                    witness = ((xm, cr.mul(cr.add(y, above), _HALF)), ml, mr)
    return CoverageResult(witness is None, exact, max_mult, witness)


def polys_overlap(*polys: Polygon) -> bool:
    """True iff some point lies inside two of the polygons (positive-area
    overlap).  Each polygon covers a point 0 or 1 times, so this is one
    `coverage_equal` call that asks whether any point is covered twice."""
    return coverage_equal([(p, 1) for p in polys], []).max_multiplicity >= 2


# ---------------------------------------------------------------------------
# axis-aligned boxes and what is drawn
#
# What is drawn is fixed once a diagram is realized, so `DrawnSegments`
# indexes it once: the distinct lines of horizontal and vertical pieces,
# sorted by value, each with its pieces merged into disjoint covered
# intervals.  It is the one place that says whether a figure is drawn:
# `segment_drawn` for a segment, `undrawn_side` for a polygon's boundary,
# `box_drawn` for an axis-aligned box on the grid's own lines (a two-letter
# figure name) and `cell_drawn` for a cell of that grid by line index.


def is_axis_segment(p: Pt, q: Pt) -> str | None:
    same_x, same_y = cmp(p[0], q[0]) == 0, cmp(p[1], q[1]) == 0
    if same_x == same_y:
        return None  # a point, or a slanted segment
    return "v" if same_x else "h"


Interval = tuple[Expr, Expr]
Box = tuple[Expr, Expr, Expr, Expr]  # (x1, y1, x2, y2), x1 < x2 and y1 < y2


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
    i, found = locate(c, lines)
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
    line.  Each line's pieces are merged once into sorted disjoint covered
    intervals (`h_cover[i]` for `h_lines[i]`, likewise `v_cover`), so a side
    query is two binary searches.  Segments that are neither horizontal nor
    vertical stay in `other` for `segment_drawn`."""

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

    def segment_drawn(self, p: Pt, q: Pt) -> bool:
        """The segment pq lies inside the union of drawn segments collinear
        with it."""
        kind = is_axis_segment(p, q)
        if kind == "h":
            i, found = locate(p[1], self.h_lines)
            return found and _covered(self.h_cover[i], p[0], q[0])
        if kind == "v":
            i, found = locate(p[0], self.v_lines)
            return found and _covered(self.v_cover[i], p[1], q[1])
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

    def undrawn_side(self, poly: Polygon) -> int | None:
        """The index i of the first side, from poly[i] to the next vertex,
        that is not drawn, or None when the whole boundary is."""
        for i, (p, q) in enumerate(zip(poly, poly[1:] + poly[:1])):
            if not self.segment_drawn(p, q):
                return i
        return None

    def box_drawn(self, box: Box) -> bool:
        """The four sides of the box (x1, y1, x2, y2) are drawn: its two x
        values lie on `v_lines` and its two y values on `h_lines`, and each
        side lies inside its line's covered intervals."""
        x1, y1, x2, y2 = box
        (i1, on_x1), (i2, on_x2) = locate(x1, self.v_lines), locate(x2, self.v_lines)
        (j1, on_y1), (j2, on_y2) = locate(y1, self.h_lines), locate(y2, self.h_lines)
        return on_x1 and on_x2 and on_y1 and on_y2 and self._sides_drawn(i1, j1, i2, j2)

    def cell_drawn(self, i: int, j: int) -> bool:
        """The four sides of the grid cell from corner (v_lines[i], h_lines[j])
        to (v_lines[i + 1], h_lines[j + 1]) are drawn; its lines are taken
        by index, so only their intervals are searched."""
        return self._sides_drawn(i, j, i + 1, j + 1)

    def _sides_drawn(self, i1: int, j1: int, i2: int, j2: int) -> bool:
        """The box between the lines v_lines[i1], v_lines[i2] and h_lines[j1],
        h_lines[j2] has its four sides inside their lines' intervals."""
        x1, x2, y1, y2 = self.v_lines[i1], self.v_lines[i2], self.h_lines[j1], self.h_lines[j2]
        return (
            _covered(self.h_cover[j1], x1, x2)
            and _covered(self.h_cover[j2], x1, x2)
            and _covered(self.v_cover[i1], y1, y2)
            and _covered(self.v_cover[i2], y1, y2)
        )


def box_polygon(x1: Expr, y1: Expr, x2: Expr, y2: Expr) -> Polygon:
    """Counterclockwise rectangle for corner coordinates x1<x2, y1<y2."""
    return ((x1, y1), (x2, y1), (x2, y2), (x1, y2))


def box_area(box: Box) -> Expr:
    """Width times height of the box (x1, y1, x2, y2), x1 < x2 and y1 < y2;
    on rational corners one integer product reduced once."""
    x1, y1, x2, y2 = box
    if x1.den and y1.den and x2.den and y2.den:
        w = x2.num * x1.den - x1.num * x2.den
        h = y2.num * y1.den - y1.num * y2.den
        return cr.rational(w * h, x1.den * x2.den * y1.den * y2.den)
    f = _field(x1, y1, x2, y2)
    if f is not None:
        r, (x1, y1, x2, y2) = f
        return _quad(*qmul(qsub(x2, x1), qsub(y2, y1), r), r)
    return cr.mul(cr.sub(x2, x1), cr.sub(y2, y1))


def normalized_box(p: Pt, q: Pt) -> Box | None:
    """The box with opposite corners p and q, or None when they share an x
    or a y; one comparison per axis."""
    cx, cy = cmp(p[0], q[0]), cmp(p[1], q[1])
    if cx == 0 or cy == 0:
        return None
    x1, x2 = (p[0], q[0]) if cx < 0 else (q[0], p[0])
    y1, y2 = (p[1], q[1]) if cy < 0 else (q[1], p[1])
    return (x1, y1, x2, y2)


def box_of(poly: Polygon) -> Box | None:
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


def gnomon_polygon(outer_box: Box | None, corner_box: Box | None) -> Polygon:
    """L-shaped hexagon: the outer box minus a corner box that shares
    exactly one vertex with it; a part that is no box (None) is an error."""
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
