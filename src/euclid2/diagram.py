"""Realize construction programs as exact coordinates and derive the
construction facts (segment equalities, right angles, figure bindings) that
enter the fact base before the first proof step.

Conventions: the first placed segment lies on the x axis starting at the
origin; squares are erected on the side named by the command (below the base
line in the canonical corpus figures); standalone segments and declared
rectangles live in the left margin at deterministic spots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import constructible as cr
from . import geometry as geo
from . import script as sc
from .constructible import Expr
from .errors import (
    AmbiguousIntersection,
    FactVerificationFailed,
    InvalidParam,
    NoIntersection,
    UnknownName,
)
from .geometry import Polygon, Pt
from .terms import Eq, Fig, FigureName, RightAngle, SegEq, Segment, Statement, term_sum


@dataclass(frozen=True)
class ConstructionFact:
    statement: Statement
    reason: str


@dataclass
class Circle:
    center_label: str
    center: Pt
    radius2: Expr
    endpoints: tuple[str, str]
    side: str


@dataclass
class DiagramInstance:
    coords: dict[str, Pt] = field(default_factory=dict)
    drawn_list: list[tuple[Pt, Pt]] = field(default_factory=list)
    standalone: dict[str, tuple[Pt, Pt]] = field(default_factory=dict)
    declared: dict[str, Polygon] = field(default_factory=dict)
    circles: dict[str, Circle] = field(default_factory=dict)
    facts: list[ConstructionFact] = field(default_factory=list)
    params: dict[str, Fraction] = field(default_factory=dict)
    _drawn: geo.DrawnSegments | None = None
    _region_cache: dict[str, Polygon] = field(default_factory=dict)

    @property
    def drawn(self) -> geo.DrawnSegments:
        if self._drawn is None:
            self._drawn = geo.DrawnSegments(self.drawn_list)
        return self._drawn

    def point(self, label: str) -> Pt:
        if label not in self.coords:
            raise UnknownName(f"point {label!r} not realized")
        return self.coords[label]

    def seg_endpoints(self, seg: Segment) -> tuple[Pt, Pt]:
        if seg.standalone:
            if seg.a not in self.standalone:
                raise UnknownName(f"standalone segment {seg.a!r} not declared")
            return self.standalone[seg.a]
        return (self.point(seg.a), self.point(seg.b))

    def seg_len2(self, seg: Segment) -> Expr:
        p, q = self.seg_endpoints(seg)
        return geo.dist2(p, q)

    def seg_len(self, seg: Segment) -> Expr:
        p, q = self.seg_endpoints(seg)
        dx = cr.sub(q[0], p[0])
        dy = cr.sub(q[1], p[1])
        if geo.sign(dx) == 0:
            return dy if geo.sign(dy) >= 0 else cr.neg(dy)
        if geo.sign(dy) == 0:
            return dx if geo.sign(dx) >= 0 else cr.neg(dx)
        return cr.sqrt(geo.dist2(p, q))


# ---------------------------------------------------------------------------
# realize


class _Builder:
    def __init__(self, script: sc.Script, params: dict[str, Fraction]):
        self.script = script
        self.inst = DiagramInstance(params=dict(params))
        self.margin_slots = 0

    # -- small helpers -------------------------------------------------

    def length(self, expr: sc.LenExpr) -> Expr:
        if isinstance(expr, sc.LenLit):
            v = cr.const(expr.value)
        elif isinstance(expr, sc.LenParam):
            if expr.name not in self.inst.params:
                raise InvalidParam(f"parameter {expr.name!r} has no value")
            v = cr.const(self.inst.params[expr.name])
        else:
            seg = _seg_from_token(expr.seg)
            v = self.inst.seg_len(seg)
        if geo.sign(v) <= 0:
            raise InvalidParam(f"length {expr.text()} must be positive")
        return v

    def new_point(self, label: str, p: Pt):
        if label in self.inst.coords:
            raise InvalidParam(f"point {label!r} constructed twice")
        if label not in self.script.points:
            raise InvalidParam(f"point {label!r} missing from roster")
        self.inst.coords[label] = p

    def draw(self, p: Pt, q: Pt):
        self.inst.drawn_list.append((p, q))
        self.inst._drawn = None
        self.inst._region_cache.clear()

    def fact(self, stmt: Statement, reason: str):
        _verify_fact(self.inst, stmt)
        self.inst.facts.append(ConstructionFact(stmt, reason))

    def pt_of(self, label: str) -> Pt:
        if label not in self.inst.coords:
            raise InvalidParam(f"point {label!r} used before construction")
        return self.inst.coords[label]

    # -- command interpreters -------------------------------------------

    def run(self) -> DiagramInstance:
        for cmd in self.script.construction:
            self.dispatch(cmd)
        _derive_cell_facts(self.inst)
        _verify_base_lines(self.inst, self.script)
        return self.inst

    def dispatch(self, cmd: sc.ConstructionCmd):
        name = type(cmd).__name__
        getattr(self, f"_do_{name}")(cmd)

    def _do_PlaceSegment(self, cmd: sc.PlaceSegment):
        L = self.length(cmd.length)
        self.new_point(cmd.p, (cr.ZERO, cr.ZERO))
        self.new_point(cmd.q, (L, cr.ZERO))
        self.draw(self.pt_of(cmd.p), self.pt_of(cmd.q))

    def _do_StandaloneSegmentCmd(self, cmd: sc.StandaloneSegmentCmd):
        L = self.length(cmd.length)
        y = cr.const(Fraction(1, 2) + Fraction(self.margin_slots, 2))
        self.margin_slots += 1
        a = (cr.sub(cr.const(-1), L), y)
        b = (cr.const(-1), y)
        self.inst.standalone[cmd.name] = (a, b)
        self.draw(a, b)

    def _do_CutRandom(self, cmd: sc.CutRandom):
        p, q = self.pt_of(cmd.on[0]), self.pt_of(cmd.on[1])
        t = self.length(cmd.at)
        plen = self.inst.seg_len(Segment(cmd.on[0], cmd.on[1]))
        if geo.sign(cr.sub(plen, t)) <= 0:
            raise InvalidParam(
                f"cut {cmd.point} at {cmd.at.text()} falls outside {cmd.on[0]}{cmd.on[1]}"
            )
        scale = cr.div(t, plen)
        c = (
            cr.add(p[0], cr.mul(scale, cr.sub(q[0], p[0]))),
            cr.add(p[1], cr.mul(scale, cr.sub(q[1], p[1]))),
        )
        self.new_point(cmd.point, c)

    def _do_CutHalf(self, cmd: sc.CutHalf):
        p, q = self.pt_of(cmd.on[0]), self.pt_of(cmd.on[1])
        half = cr.const(Fraction(1, 2))
        c = (cr.mul(cr.add(p[0], q[0]), half), cr.mul(cr.add(p[1], q[1]), half))
        self.new_point(cmd.point, c)
        self.fact(
            SegEq(Segment(cmd.on[0], cmd.point), Segment(cmd.point, cmd.on[1])),
            "Midpoint",
        )

    def _do_ExtendBy(self, cmd: sc.ExtendBy):
        p, q = self.pt_of(cmd.on[0]), self.pt_of(cmd.on[1])
        L = self.length(cmd.by)
        plen = self.inst.seg_len(Segment(cmd.on[0], cmd.on[1]))
        scale = cr.div(L, plen)
        n = (
            cr.add(q[0], cr.mul(scale, cr.sub(q[0], p[0]))),
            cr.add(q[1], cr.mul(scale, cr.sub(q[1], p[1]))),
        )
        self.new_point(cmd.to, n)
        self.draw(q, n)
        if isinstance(cmd.by, sc.LenSeg):
            ref = _seg_from_token(cmd.by.seg)
            self.fact(SegEq(Segment(cmd.on[1], cmd.to), ref), "CopiedLength")

    def _do_ExtendCopy(self, cmd: sc.ExtendCopy):
        p, q = self.pt_of(cmd.on[0]), self.pt_of(cmd.on[1])
        anchor = self.pt_of(cmd.anchor)
        if not geo.collinear(p, q, anchor):
            raise InvalidParam(f"anchor {cmd.anchor} is not on line {cmd.on[0]}{cmd.on[1]}")
        d = self.inst.seg_len(Segment(cmd.copy[0], cmd.copy[1]))
        plen = self.inst.seg_len(Segment(cmd.on[0], cmd.on[1]))
        scale = cr.div(d, plen)
        n = (
            cr.add(anchor[0], cr.mul(scale, cr.sub(q[0], p[0]))),
            cr.add(anchor[1], cr.mul(scale, cr.sub(q[1], p[1]))),
        )
        beyond = geo.dot(geo.sub2(n, q), geo.sub2(q, p))
        if geo.sign(beyond) <= 0:
            raise InvalidParam("extension does not pass the far endpoint")
        self.new_point(cmd.to, n)
        self.draw(q, n)
        self.fact(
            SegEq(Segment(cmd.to, cmd.anchor), Segment(cmd.copy[0], cmd.copy[1])),
            "CopiedLength",
        )

    def _square_offset(self, side: str, L: Expr, base_dir: Pt) -> Pt:
        if side == "below":
            v = (cr.ZERO, cr.neg(L))
        elif side == "above":
            v = (cr.ZERO, L)
        elif side == "left":
            v = (cr.neg(L), cr.ZERO)
        else:
            v = (L, cr.ZERO)
        if geo.sign(geo.dot(v, base_dir)) != 0:
            raise InvalidParam(f"square side {side!r} is not perpendicular to the base")
        return v

    def _do_SquareOnCmd(self, cmd: sc.SquareOnCmd):
        P, Q = cmd.on
        letters = cmd.name
        ip = letters.index(P) if P in letters else -1
        iq = letters.index(Q) if Q in letters else -1
        if ip < 0 or iq < 0:
            raise InvalidParam(f"square name {letters} must contain base {P}{Q}")
        if (ip + 1) % 4 == iq:
            cycle = [letters[(ip + k) % 4] for k in range(4)]
        elif (iq + 1) % 4 == ip:
            cycle = [letters[(ip - k) % 4] for k in range(4)]
        else:
            raise InvalidParam(f"base {P}{Q} not an edge of square name {letters}")
        p, q = self.pt_of(P), self.pt_of(Q)
        L = self.inst.seg_len(Segment(P, Q))
        v = self._square_offset(cmd.side, L, geo.sub2(q, p))
        c2 = (cr.add(q[0], v[0]), cr.add(q[1], v[1]))
        c3 = (cr.add(p[0], v[0]), cr.add(p[1], v[1]))
        self.new_point(cycle[2], c2)
        self.new_point(cycle[3], c3)
        quad = [self.pt_of(x) for x in cycle]
        for i in range(4):
            self.draw(quad[i], quad[(i + 1) % 4])
        self.inst.declared[letters] = tuple(self.pt_of(x) for x in letters)
        s0, s1, s2, s3 = cycle
        self.fact(SegEq(Segment(s0, s1), Segment(s1, s2)), "SquareSides")
        self.fact(SegEq(Segment(s1, s2), Segment(s2, s3)), "SquareSides")
        self.fact(SegEq(Segment(s2, s3), Segment(s3, s0)), "SquareSides")
        self.fact(RightAngle(s0, s1, s3), "SquareAngles")
        self.fact(RightAngle(s1, s0, s2), "SquareAngles")
        self.fact(RightAngle(s2, s1, s3), "SquareAngles")
        self.fact(RightAngle(s3, s2, s0), "SquareAngles")

    def _do_RectFig(self, cmd: sc.RectFig):
        w = self.length(cmd.width)
        h = self.length(cmd.height)
        x2 = cr.const(-1)
        x1 = cr.sub(x2, w)
        y2 = cr.ZERO
        y1 = cr.neg(h)
        poly = geo.box_polygon(x1, y1, x2, y2)
        self.inst.declared[cmd.name] = poly
        for i in range(4):
            self.draw(poly[i], poly[(i + 1) % 4])

    def _do_TriangulateToRect(self, cmd: sc.TriangulateToRect):
        if cmd.source not in self.inst.declared:
            raise UnknownName(f"figure {cmd.source!r} not declared")
        src = self.inst.declared[cmd.source]
        xs = sorted({cr.exact_key(p[0]): p[0] for p in src}.values(), key=geo.by_value)
        ys = sorted({cr.exact_key(p[1]): p[1] for p in src}.values(), key=geo.by_value)
        w = cr.sub(xs[-1], xs[0])
        h = cr.sub(ys[-1], ys[0])
        l0, l1, l2, l3 = cmd.name
        self.new_point(l0, (cr.ZERO, cr.ZERO))
        self.new_point(l1, (cr.ZERO, cr.neg(h)))
        self.new_point(l2, (w, cr.neg(h)))
        self.new_point(l3, (w, cr.ZERO))
        quad = [self.pt_of(x) for x in cmd.name]
        for i in range(4):
            self.draw(quad[i], quad[(i + 1) % 4])
        self.inst.declared[cmd.name] = tuple(quad)
        self.fact(SegEq(Segment(l0, l1), Segment(l3, l2)), "I34-OppositeSides")
        self.fact(SegEq(Segment(l1, l2), Segment(l0, l3)), "I34-OppositeSides")
        for i, lab in enumerate(cmd.name):
            prev = cmd.name[(i - 1) % 4]
            nxt = cmd.name[(i + 1) % 4]
            self.fact(RightAngle(lab, prev, nxt), "ParallelogramRight")
        self.fact(
            Eq(
                term_sum([Fig(FigureName(cmd.name))]),
                term_sum([Fig(FigureName(cmd.source))]),
            ),
            "TriangulatedEqual",
        )

    def _do_Perp(self, cmd: sc.Perp):
        p = self.pt_of(cmd.frm)
        a, b = self.pt_of(cmd.on[0]), self.pt_of(cmd.on[1])
        if not geo.collinear(a, b, p):
            raise InvalidParam(f"{cmd.frm} is not on line {cmd.on[0]}{cmd.on[1]}")
        if geo.sign(cr.sub(a[1], b[1])) != 0:
            raise InvalidParam("perp from a non-horizontal base is not supported")
        L = self.length(cmd.length)
        n = (p[0], cr.add(p[1], L) if cmd.side == "above" else cr.sub(p[1], L))
        self.new_point(cmd.new, n)
        self.draw(p, n)
        for other in cmd.on:
            if other != cmd.frm:
                self.fact(RightAngle(cmd.frm, cmd.new, other), "ParallelogramRight")
        if isinstance(cmd.length, sc.LenSeg):
            ref = _seg_from_token(cmd.length.seg)
            self.fact(SegEq(Segment(cmd.frm, cmd.new), ref), "CopiedLength")

    def _do_ParallelTranslate(self, cmd: sc.ParallelTranslate):
        p = self.pt_of(cmd.through)
        x, y = self.pt_of(cmd.along[0]), self.pt_of(cmd.along[1])
        n = (cr.add(p[0], cr.sub(y[0], x[0])), cr.add(p[1], cr.sub(y[1], x[1])))
        self.new_point(cmd.new, n)
        self.draw(p, n)
        self.fact(
            SegEq(Segment(cmd.through, cmd.new), Segment(cmd.along[0], cmd.along[1])),
            "I34-OppositeSides",
        )

    def _do_ParallelMeet(self, cmd: sc.ParallelMeet):
        p = self.pt_of(cmd.through)
        x, y = self.pt_of(cmd.along[0]), self.pt_of(cmd.along[1])
        u, v = self.pt_of(cmd.meet[0]), self.pt_of(cmd.meet[1])
        d = geo.sub2(y, x)
        n = _line_line(p, d, u, geo.sub2(v, u))
        self.new_point(cmd.new, n)
        self.draw(p, n)

    def _do_Join(self, cmd: sc.Join):
        p, q = self.pt_of(cmd.p), self.pt_of(cmd.q)
        self.draw(p, q)
        for circ in self.inst.circles.values():
            for end, pointlab in ((cmd.p, cmd.q), (cmd.q, cmd.p)):
                if end == circ.center_label:
                    on = geo.sign(
                        cr.sub(geo.dist2(self.pt_of(pointlab), circ.center), circ.radius2)
                    )
                    if on == 0:
                        for e in circ.endpoints:
                            self.fact(
                                SegEq(Segment(end, pointlab), Segment(end, e)), "Radius"
                            )

    def _do_SemicircleOn(self, cmd: sc.SemicircleOn):
        a, b = self.pt_of(cmd.on[0]), self.pt_of(cmd.on[1])
        c = self.pt_of(cmd.center)
        mid = (
            cr.mul(cr.add(a[0], b[0]), cr.const(Fraction(1, 2))),
            cr.mul(cr.add(a[1], b[1]), cr.const(Fraction(1, 2))),
        )
        if not geo.pts_equal(c, mid):
            raise InvalidParam(f"{cmd.center} is not the midpoint of {cmd.on[0]}{cmd.on[1]}")
        r2 = geo.dist2(c, a)
        self.inst.circles[cmd.center] = Circle(cmd.center, c, r2, cmd.on, cmd.side)
        self.fact(
            SegEq(Segment(cmd.center, cmd.on[0]), Segment(cmd.center, cmd.on[1])),
            "Radius",
        )

    def _do_IntersectAt(self, cmd: sc.IntersectAt):
        p = self.pt_of(cmd.line[0])
        d = geo.sub2(self.pt_of(cmd.line[1]), p)
        if cmd.other_kind == "line":
            u = self.pt_of(cmd.other[0])
            du = geo.sub2(self.pt_of(cmd.other[1]), u)
            n = _line_line(p, d, u, du)
        else:
            circ = self.inst.circles.get(cmd.other)
            if circ is None:
                raise UnknownName(f"no circle centered at {cmd.other}")
            n = _line_circle(p, d, circ, cmd.side)
            self.new_point(cmd.new, n)
            for e in circ.endpoints:
                self.fact(
                    SegEq(
                        Segment(circ.center_label, cmd.new),
                        Segment(circ.center_label, e),
                    ),
                    "Radius",
                )
            return
        self.new_point(cmd.new, n)

    def _do_GnomonDecl(self, cmd: sc.GnomonDecl):
        outer = figure_region(self.inst, cmd.outer)
        corner = figure_region(self.inst, cmd.corner)
        self.inst.declared[cmd.name] = geo.gnomon_polygon(outer, corner)


def _line_line(p: Pt, d: Pt, u: Pt, du: Pt) -> Pt:
    den = geo.cross(d, du)
    if geo.sign(den) == 0:
        raise NoIntersection("lines are parallel")
    t = cr.div(geo.cross(geo.sub2(u, p), du), den)
    return (cr.add(p[0], cr.mul(t, d[0])), cr.add(p[1], cr.mul(t, d[1])))


def _line_circle(p: Pt, d: Pt, circ: Circle, side: str | None) -> Pt:
    pc = geo.sub2(p, circ.center)
    a = geo.dot(d, d)
    b = cr.mul(cr.const(2), geo.dot(d, pc))
    c = cr.sub(geo.dot(pc, pc), circ.radius2)
    disc = cr.sub(cr.mul(b, b), cr.mul(cr.const(4), cr.mul(a, c)))
    sd = geo.sign(disc)
    if sd < 0:
        raise NoIntersection("line misses the circle")
    roots = []
    if sd == 0:
        roots = [cr.div(cr.neg(b), cr.mul(cr.const(2), a))]
    else:
        rt = cr.sqrt(disc)
        two_a = cr.mul(cr.const(2), a)
        roots = [cr.div(cr.sub(rt, b), two_a), cr.div(cr.sub(cr.neg(rt), b), two_a)]
    cands = [
        (cr.add(p[0], cr.mul(t, d[0])), cr.add(p[1], cr.mul(t, d[1]))) for t in roots
    ]
    if len(cands) == 1:
        return cands[0]
    if side is None:
        raise AmbiguousIntersection("two intersection points; side flag required")
    c0, c1 = cands
    upper = c0 if geo.cmp(c0[1], c1[1]) > 0 else c1
    lower = c1 if upper is c0 else c0
    return upper if side == "above" else lower


def _seg_from_token(tok: str) -> Segment:
    if len(tok) == 1:
        return Segment(tok, None)
    return Segment(tok[0], tok[1], display=tok)


# ---------------------------------------------------------------------------
# fact verification and cell-derived facts


def term_value(inst: DiagramInstance, t) -> Expr:
    from . import terms as T

    if isinstance(t, T.SquareOn):
        return inst.seg_len2(t.side)
    if isinstance(t, T.RectBy):
        return cr.mul(inst.seg_len(t.first), inst.seg_len(t.second))
    if isinstance(t, T.Fig):
        return geo.area(figure_region(inst, t.name.letters))
    if isinstance(t, T.Multiple):
        return cr.mul(cr.const(t.count), term_value(inst, t.inner))
    raise TypeError(t)


def sum_value(inst: DiagramInstance, s) -> Expr:
    acc = cr.ZERO
    for t in s.terms:
        acc = cr.add(acc, term_value(inst, t))
    return acc


def statement_holds(inst: DiagramInstance, stmt: Statement) -> bool:
    """Numeric truth of a statement in the realized instance."""
    if isinstance(stmt, SegEq):
        return geo.sign(cr.sub(inst.seg_len2(stmt.a), inst.seg_len2(stmt.b))) == 0
    if isinstance(stmt, RightAngle):
        v = inst.point(stmt.vertex)
        a = inst.point(stmt.arm1)
        bpt = inst.point(stmt.arm2)
        return geo.sign(geo.dot(geo.sub2(a, v), geo.sub2(bpt, v))) == 0
    if isinstance(stmt, Eq):
        return geo.sign(cr.sub(sum_value(inst, stmt.lhs), sum_value(inst, stmt.rhs))) == 0
    raise TypeError(f"cannot evaluate {stmt!r} numerically")


def _verify_fact(inst: DiagramInstance, stmt: Statement):
    try:
        ok = statement_holds(inst, stmt)
    except Exception as exc:  # pragma: no cover - construction bug guard
        raise FactVerificationFailed(f"{stmt} could not be verified: {exc}") from exc
    if not ok:
        raise FactVerificationFailed(f"construction fact {stmt} is numerically false")


def _derive_cell_facts(inst: DiagramInstance):
    drawn = inst.drawn
    label_at = {
        (cr.exact_key(x), cr.exact_key(y)): name for name, (x, y) in inst.coords.items()
    }
    for (x1, y1, x2, y2) in geo.elementary_cells(drawn):
        corners = [
            label_at.get((cr.exact_key(x), cr.exact_key(y)))
            for x, y in ((x1, y1), (x2, y1), (x2, y2), (x1, y2))
        ]
        if None in corners:
            continue
        bl, br, tr, tl = corners
        _emit(inst, SegEq(Segment(tl, bl), Segment(tr, br)), "I34-OppositeSides")
        _emit(inst, SegEq(Segment(tl, tr), Segment(bl, br)), "I34-OppositeSides")
        for vertex, p, q in (
            (bl, br, tl),
            (br, bl, tr),
            (tr, br, tl),
            (tl, bl, tr),
        ):
            _emit(inst, RightAngle(vertex, p, q), "ParallelogramRight")
        if geo.sign(cr.sub(cr.sub(x2, x1), cr.sub(y2, y1))) == 0:
            diag1 = ((x1, y1), (x2, y2))
            diag2 = ((x2, y1), (x1, y2))
            if drawn.segment_drawn(*diag1) or drawn.segment_drawn(*diag2):
                _emit(inst, SegEq(Segment(tl, tr), Segment(tr, br)), "SquareSides")
                _emit(inst, SegEq(Segment(tr, br), Segment(br, bl)), "SquareSides")
                _emit(inst, SegEq(Segment(br, bl), Segment(bl, tl)), "SquareSides")


def _emit(inst: DiagramInstance, stmt: Statement, reason: str):
    _verify_fact(inst, stmt)
    inst.facts.append(ConstructionFact(stmt, reason))


def _verify_base_lines(inst: DiagramInstance, script: sc.Script):
    for line in script.base_lines:
        pts = [inst.point(p) for p in line if p in inst.coords]
        for i in range(len(pts) - 2):
            if not geo.collinear(pts[i], pts[i + 1], pts[i + 2]):
                raise FactVerificationFailed(
                    f"declared line {' '.join(line)} is not collinear"
                )


def realize(
    script: sc.Script, params: dict[str, Fraction] | None = None
) -> DiagramInstance:
    values = {}
    for name, default in script.params.items():
        if params and name in params:
            values[name] = params[name]
        elif default is not None:
            values[name] = default
        else:
            raise InvalidParam(f"parameter {name!r} has no value")
    if params:
        for k in params:
            if k not in script.params:
                raise InvalidParam(f"unknown parameter {k!r}")
    return _Builder(script, values).run()


# ---------------------------------------------------------------------------
# figure binding


def figure_region(inst: DiagramInstance, letters: str) -> Polygon:
    cached = inst._region_cache.get(letters)
    if cached is not None:
        return cached
    poly = _resolve_region(inst, letters)
    inst._region_cache[letters] = poly
    return poly


def _resolve_region(inst: DiagramInstance, letters: str) -> Polygon:
    if letters in inst.declared:
        return inst.declared[letters]
    if len(letters) == 4:
        pts = [inst.point(p) for p in letters]
        drawn = inst.drawn
        for i in range(4):
            if not drawn.segment_drawn(pts[i], pts[(i + 1) % 4]):
                raise UnknownName(f"side {letters[i]}{letters[(i+1)%4]} of {letters} not drawn")
        return tuple(pts)
    if len(letters) == 2:
        p, q = inst.point(letters[0]), inst.point(letters[1])
        box = geo.normalized_box(p, q)
        if box is None:
            raise UnknownName(f"{letters} does not span a rectangle")
        x1, y1, x2, y2 = box
        if not inst.drawn.box_sides_drawn(x1, y1, x2, y2):
            raise UnknownName(f"rectangle {letters} has undrawn sides")
        return geo.box_polygon(x1, y1, x2, y2)
    raise UnknownName(f"figure {letters!r} is not bound in the diagram")


def region_key_of(inst: DiagramInstance, letters: str):
    return geo.region_key(figure_region(inst, letters))


def verify_decomposition(
    inst: DiagramInstance,
    lhs: list[tuple[str, int]],
    rhs: list[tuple[str, int]],
) -> geo.CoverageResult:
    left = [(figure_region(inst, name), m) for name, m in lhs]
    right = [(figure_region(inst, name), m) for name, m in rhs]
    return geo.coverage_equal(left, right)


def equal_content(inst: DiagramInstance, p: list[str], q: list[str]) -> bool:
    total_p = cr.ZERO
    for name in p:
        total_p = cr.add(total_p, geo.area(figure_region(inst, name)))
    total_q = cr.ZERO
    for name in q:
        total_q = cr.add(total_q, geo.area(figure_region(inst, name)))
    return geo.sign(cr.sub(total_p, total_q)) == 0
