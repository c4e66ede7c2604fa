"""Realize construction programs as exact coordinates, together with what
the diagram states: the facts of its construction commands and its
labelled boxes.

A command's segment equalities, right angles and figure bindings are kept
as label tuples (`ConstructionFact`), each decided once on the coordinates
the command just built; no statement is built unless a reader asks for one.
The labelled axis-aligned boxes (the squares `square` draws, the rectangles
`torect` draws and the labelled cells of the drawn grid) are listed once by
their corner labels (`DiagramInstance.boxes`); the fact base states their
sides and right angles, theorems of such a box, without deciding them.

The builder deals only in points, lengths and boxes: each command measures
and places the points it fetched with geometry's primitives (`geo.length`,
`geo.along`, `geo.midpoint`, `geo.meet`, `geo.line_circle`); only
`geometry` and `constructible` read how a number is stored.

Conventions: the first placed segment lies on the x axis starting at the
origin; squares are erected on the side named by the command (below the base
line in the canonical corpus figures); standalone segments and declared
rectangles live in the left margin at deterministic spots.
"""

from __future__ import annotations

import functools

from . import constructible as cr
from . import geometry as geo
from . import script as sc
from .constructible import Expr
from .errors import (
    Euclid2Error,
    FactVerificationFailed,
    InvalidParam,
    UnknownName,
)
from .geometry import Polygon, Pt
from .record import FrozenRecord, Record
from .terms import (
    Eq,
    Fig,
    FigureName,
    Multiple,
    RectBy,
    RightAngle,
    SegEq,
    Segment,
    SquareOn,
    Statement,
    lift_naming,
    term_sum,
)


LabelledBox = tuple[str, str, str, str, bool]  # see DiagramInstance.boxes
# A segment as a fact names it: its two labels in the order the fact prints
# them, or a standalone segment's name and None.
Side = tuple[str, str | None]


class ConstructionFact(FrozenRecord):
    """A fact a construction command states that is not a fact of one box
    it builds, by kind and labels: `("segeq", (side, side))`,
    `("rangle", (vertex, arm1, arm2))` or `("eq", (figure, source))` for
    fig(figure) = fig(source)."""

    kind: str
    labels: tuple
    reason: str

    @property
    def statement(self) -> Statement:
        if self.kind == "segeq":
            a, b = [Segment(p) if q is None else Segment(p, q, p + q) for p, q in self.labels]
            return SegEq(a, b)
        if self.kind == "rangle":
            return RightAngle(*self.labels)
        figure, source = self.labels
        return Eq(
            term_sum([Fig(FigureName(figure))]), term_sum([Fig(FigureName(source))])
        )


def _side(p: str, q: str) -> Side:
    """Segment pq as `terms.Segment` holds it: its labels in order."""
    return (p, q) if p < q else (q, p)


def _named(text: str) -> Side:
    """The segment a one- or two-letter name spells, kept in that spelling
    (as `terms.segment_named` keeps it)."""
    if len(text) == 1:
        return (text, None)
    return (text[0], text[1])


class Circle(Record):
    center_label: str
    center: Pt
    radius2: Expr
    endpoints: tuple[str, str]
    side: str


class DiagramInstance(Record):
    coords: dict[str, Pt] = {}
    drawn_list: list[tuple[Pt, Pt]] = []
    standalone: dict[str, tuple[Pt, Pt]] = {}
    declared: dict[str, Polygon] = {}
    circles: dict[str, Circle] = {}
    facts: list[ConstructionFact] = []
    built_boxes: list[LabelledBox] = []  # by `square` and `torect`
    _drawn: geo.DrawnSegments | None = None
    # a name's region and its box (None when it is no axis-aligned box), or
    # why it binds none, as the error's type and message: a kept exception's
    # traceback holds this instance, a cycle reference counting never frees
    _regions: dict[str, tuple[Polygon, geo.Box | None] | tuple[type, str]] = {}
    _boxes: list[LabelledBox] | None = None

    @property
    def drawn(self) -> geo.DrawnSegments:
        if self._drawn is None:
            self._drawn = geo.DrawnSegments(self.drawn_list)
        return self._drawn

    def boxes(self) -> list[LabelledBox]:
        """Every labelled axis-aligned box, as (a, b, c, d, square): its
        corner labels in boundary order and whether it is a square.  The
        boxes `square` and `torect` built come first, then each elementary
        cell of the drawn grid whose four corners carry labels, other than
        those boxes, as
        (bl, br, tr, tl, square), a square when its sides are equal and a
        diagonal is drawn.  The cells are listed on the first call; later
        calls return the same list."""
        if self._boxes is None:
            self._boxes = self.built_boxes + _labelled_cells(self)
        return self._boxes

    def region(self, letters: str) -> Polygon:
        """The region the figure name binds; raises UnknownName, saying
        why, when it binds none.  Each name is resolved once until the next
        segment is drawn, and the binding keeps the region's box beside it
        (see `box`)."""
        return self._bound(letters)[0]

    def box(self, letters: str) -> geo.Box | None:
        """The axis-aligned box (x1, y1, x2, y2) the figure name binds, or
        None when its region is no such box; raises as `region` does."""
        return self._bound(letters)[1]

    def _bound(self, letters: str) -> tuple[Polygon, geo.Box | None]:
        if letters not in self._regions:
            try:
                self._regions[letters] = _resolve_region(self, letters)
            except Euclid2Error as err:
                self._regions[letters] = (type(err), str(err))
        bound = self._regions[letters]
        if isinstance(bound[0], type):
            raise bound[0](bound[1])
        return bound

    def same_region(self, a: str, b: str) -> bool:
        """The two figure names bind one region; False when either binds none."""
        try:
            return geo.same_region(self.region(a), self.region(b))
        except Euclid2Error:
            return False

    def point(self, label: str) -> Pt:
        if label not in self.coords:
            raise UnknownName(f"point {label!r} not realized")
        return self.coords[label]

    def endpoints(self, a: str, b: str | None) -> tuple[Pt, Pt]:
        """The ends of segment ab, or of the standalone segment a when b is
        None."""
        if b is None:
            if a not in self.standalone:
                raise UnknownName(f"standalone segment {a!r} not declared")
            return self.standalone[a]
        return (self.point(a), self.point(b))

    def seg_endpoints(self, seg: Segment) -> tuple[Pt, Pt]:
        return self.endpoints(seg.a, seg.b)


# ---------------------------------------------------------------------------
# realize


class _Builder:
    def __init__(self, script: sc.Script, params: dict[str, Expr]):
        self.script = script
        self.params = params
        self.inst = DiagramInstance()
        self.margin_slots = 0

    # -- small helpers -------------------------------------------------

    def length(self, expr: sc.LenExpr) -> Expr:
        if isinstance(expr, sc.LenLit):
            v = cr.const(expr)
        elif isinstance(expr, sc.LenParam):
            if expr.name not in self.params:
                raise InvalidParam(f"parameter {expr.name!r} has no value")
            v = self.params[expr.name]
        else:
            v = geo.length(*self.inst.endpoints(*_named(expr.seg)))
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
        self.inst._regions.clear()

    def outline(self, poly: Polygon):
        """Draw the closed outline of poly, side by side from its first vertex."""
        for p, q in zip(poly, poly[1:] + poly[:1]):
            self.draw(p, q)

    def fact(self, kind: str, labels: tuple, reason: str):
        """Record a fact of the command just run once it holds on the
        coordinates; its statement is built only to name it in an error."""
        fact = ConstructionFact(kind, labels, reason)
        inst = self.inst
        try:
            if kind == "segeq":
                (a, b), (c, d) = labels
                ok = geo.equal_length(*inst.endpoints(a, b), *inst.endpoints(c, d))
            elif kind == "rangle":
                v, p, q = labels
                ok = geo.right_angle(inst.point(v), inst.point(p), inst.point(q))
            else:
                ok = statement_holds(inst, fact.statement)
        except Euclid2Error as exc:
            raise FactVerificationFailed(
                f"{fact.statement.text()} could not be verified: {exc}"
            ) from exc
        if not ok:
            raise FactVerificationFailed(
                f"construction fact {fact.statement.text()} is numerically false"
            )
        inst.facts.append(fact)

    def pt_of(self, label: str) -> Pt:
        if label not in self.inst.coords:
            raise InvalidParam(f"point {label!r} used before construction")
        return self.inst.coords[label]

    def base(self, on) -> tuple[Pt, Pt]:
        """The endpoints of a segment that a construction joins, scales or
        intersects along; two points built at the same place give it no
        length and no direction."""
        p, q = self.pt_of(on[0]), self.pt_of(on[1])
        if geo.pts_equal(p, q):
            raise InvalidParam(f"segment {on[0]}{on[1]} has zero length")
        return p, q

    # -- command interpreters -------------------------------------------

    def run(self) -> DiagramInstance:
        for cmd in self.script.construction:
            self.dispatch(cmd)
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
        y = cr.rational(1 + self.margin_slots, 2)
        self.margin_slots += 1
        a = (cr.sub(cr.const(-1), L), y)
        b = (cr.const(-1), y)
        self.inst.standalone[cmd.name] = (a, b)
        self.draw(a, b)

    def _do_CutRandom(self, cmd: sc.CutRandom):
        p, q = self.base(cmd.on)
        t = self.length(cmd.at)
        pq = geo.length(p, q)
        if geo.cmp(pq, t) <= 0:
            raise InvalidParam(
                f"cut {cmd.point} at {cmd.at.text()} falls outside {cmd.on[0]}{cmd.on[1]}"
            )
        self.new_point(cmd.point, geo.along(p, p, q, t, pq))

    def _do_CutHalf(self, cmd: sc.CutHalf):
        p, q = self.base(cmd.on)
        self.new_point(cmd.point, geo.midpoint(p, q))
        self.fact(
            "segeq", (_side(cmd.on[0], cmd.point), _side(cmd.point, cmd.on[1])), "Midpoint"
        )

    def _do_ExtendBy(self, cmd: sc.ExtendBy):
        p, q = self.base(cmd.on)
        n = geo.along(q, p, q, self.length(cmd.by))
        self.new_point(cmd.to, n)
        self.draw(q, n)
        if isinstance(cmd.by, sc.LenSeg):
            self.fact("segeq", (_side(cmd.on[1], cmd.to), _named(cmd.by.seg)), "CopiedLength")

    def _do_ExtendCopy(self, cmd: sc.ExtendCopy):
        p, q = self.base(cmd.on)
        anchor = self.pt_of(cmd.anchor)
        if not geo.collinear(p, q, anchor):
            raise InvalidParam(f"anchor {cmd.anchor} is not on line {cmd.on[0]}{cmd.on[1]}")
        n = geo.along(anchor, p, q, geo.length(*self.base(cmd.copy)))
        if geo.angle_sign(q, n, p) >= 0:  # n is not past q, away from p
            raise InvalidParam("extension does not pass the far endpoint")
        self.new_point(cmd.to, n)
        self.draw(q, n)
        self.fact(
            "segeq", (_side(cmd.to, cmd.anchor), _side(cmd.copy[0], cmd.copy[1])), "CopiedLength"
        )

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
        p, q = self.base(cmd.on)
        v = _SQUARE_OFFSET[cmd.side](geo.length(p, q))
        c2 = (cr.add(q[0], v[0]), cr.add(q[1], v[1]))
        c3 = (cr.add(p[0], v[0]), cr.add(p[1], v[1]))
        if not geo.right_angle(p, q, c3):
            raise InvalidParam(f"square side {cmd.side!r} is not perpendicular to the base")
        self.new_point(cycle[2], c2)
        self.new_point(cycle[3], c3)
        self.outline(tuple(self.pt_of(x) for x in cycle))
        self.inst.declared[letters] = tuple(self.pt_of(x) for x in letters)
        self.inst.built_boxes.append((*letters, True))  # the name goes round it in order

    def _do_RectFig(self, cmd: sc.RectFig):
        w = self.length(cmd.width)
        h = self.length(cmd.height)
        x2 = cr.const(-1)
        x1 = cr.sub(x2, w)
        y2 = cr.ZERO
        y1 = cr.neg(h)
        poly = geo.box_polygon(x1, y1, x2, y2)
        self.inst.declared[cmd.name] = poly
        self.outline(poly)

    def _do_TriangulateToRect(self, cmd: sc.TriangulateToRect):
        if cmd.source not in self.inst.declared:
            raise UnknownName(f"figure {cmd.source!r} not declared")
        src = self.inst.declared[cmd.source]
        xs, ys = zip(*src)
        w = cr.sub(max(xs, key=geo.by_value), min(xs, key=geo.by_value))
        h = cr.sub(max(ys, key=geo.by_value), min(ys, key=geo.by_value))
        y = cr.neg(h)
        quad = ((cr.ZERO, cr.ZERO), (cr.ZERO, y), (w, y), (w, cr.ZERO))
        for label, corner in zip(cmd.name, quad):
            self.new_point(label, corner)
        self.outline(quad)
        self.inst.declared[cmd.name] = quad
        self.inst.built_boxes.append((*cmd.name, False))
        self.fact("eq", (cmd.name, cmd.source), "TriangulatedEqual")

    def _do_Perp(self, cmd: sc.Perp):
        p = self.pt_of(cmd.frm)
        a, b = self.base(cmd.on)
        if not geo.collinear(a, b, p):
            raise InvalidParam(f"{cmd.frm} is not on line {cmd.on[0]}{cmd.on[1]}")
        if geo.cmp(a[1], b[1]) != 0:
            raise InvalidParam("perp from a non-horizontal base is not supported")
        L = self.length(cmd.length)
        n = (p[0], cr.add(p[1], L) if cmd.side == "above" else cr.sub(p[1], L))
        self.new_point(cmd.new, n)
        self.draw(p, n)
        for other in cmd.on:
            if other != cmd.frm:
                self.fact("rangle", (cmd.frm, cmd.new, other), "ParallelogramRight")
        if isinstance(cmd.length, sc.LenSeg):
            self.fact(
                "segeq", (_side(cmd.frm, cmd.new), _named(cmd.length.seg)), "CopiedLength"
            )

    def _do_ParallelTranslate(self, cmd: sc.ParallelTranslate):
        p = self.pt_of(cmd.through)
        x, y = self.base(cmd.along)
        n = (cr.add(p[0], cr.sub(y[0], x[0])), cr.add(p[1], cr.sub(y[1], x[1])))
        self.new_point(cmd.new, n)
        self.draw(p, n)
        self.fact(
            "segeq",
            (_side(cmd.through, cmd.new), _side(cmd.along[0], cmd.along[1])),
            "I34-OppositeSides",
        )

    def _do_ParallelMeet(self, cmd: sc.ParallelMeet):
        p = self.pt_of(cmd.through)
        x, y = self.base(cmd.along)
        n = geo.meet(p, x, y, *self.base(cmd.meet))
        self.new_point(cmd.new, n)
        self.draw(p, n)

    def _do_Join(self, cmd: sc.Join):
        p, q = self.base((cmd.p, cmd.q))
        self.draw(p, q)
        for circ in self.inst.circles.values():
            for end, pointlab in ((cmd.p, cmd.q), (cmd.q, cmd.p)):
                if end == circ.center_label:
                    if geo.cmp(geo.dist2(self.pt_of(pointlab), circ.center), circ.radius2) == 0:
                        for e in circ.endpoints:
                            self.fact("segeq", (_side(end, pointlab), _side(end, e)), "Radius")

    def _do_SemicircleOn(self, cmd: sc.SemicircleOn):
        a, b = self.base(cmd.on)
        c = self.pt_of(cmd.center)
        if not geo.pts_equal(c, geo.midpoint(a, b)):
            raise InvalidParam(f"{cmd.center} is not the midpoint of {cmd.on[0]}{cmd.on[1]}")
        r2 = geo.dist2(c, a)
        self.inst.circles[cmd.center] = Circle(cmd.center, c, r2, cmd.on, cmd.side)
        self.fact(
            "segeq", (_side(cmd.center, cmd.on[0]), _side(cmd.center, cmd.on[1])), "Radius"
        )

    def _do_IntersectLines(self, cmd: sc.IntersectLines):
        p, q = self.base(cmd.line)
        self.new_point(cmd.new, geo.meet(p, p, q, *self.base(cmd.other)))

    def _do_IntersectCircle(self, cmd: sc.IntersectCircle):
        p, q = self.base(cmd.line)
        circ = self.inst.circles.get(cmd.center)
        if circ is None:
            raise UnknownName(f"no circle centered at {cmd.center}")
        self.new_point(
            cmd.new, geo.line_circle(p, q, circ.center, circ.radius2, cmd.side == "above")
        )
        for e in circ.endpoints:
            c = circ.center_label
            self.fact("segeq", (_side(c, cmd.new), _side(c, e)), "Radius")

    def _do_GnomonDecl(self, cmd: sc.GnomonDecl):
        outer, corner = self.inst.box(cmd.outer), self.inst.box(cmd.corner)
        self.inst.declared[cmd.name] = geo.gnomon_polygon(outer, corner)


# a square's offset from its base to the far side, by the side the command names
_SQUARE_OFFSET = {
    "below": lambda L: (cr.ZERO, cr.neg(L)),
    "above": lambda L: (cr.ZERO, L),
    "left": lambda L: (cr.neg(L), cr.ZERO),
    "right": lambda L: (L, cr.ZERO),
}


# ---------------------------------------------------------------------------
# fact verification and labelled cells


def term_value(inst: DiagramInstance, t) -> Expr:
    if isinstance(t, SquareOn):
        return geo.dist2(*inst.seg_endpoints(t.side))
    if isinstance(t, RectBy):
        return cr.mul(
            geo.length(*inst.seg_endpoints(t.first)), geo.length(*inst.seg_endpoints(t.second))
        )
    if isinstance(t, Fig):
        box = inst.box(t.name.letters)
        return geo.area(inst.region(t.name.letters)) if box is None else geo.box_area(box)
    if isinstance(t, Multiple):
        return cr.mul(cr.const(t.count), term_value(inst, t.inner))
    raise TypeError(t)


def sum_value(inst: DiagramInstance, s) -> Expr:
    # a TermSum is never empty, so the sum starts at its first term
    return functools.reduce(cr.add, [term_value(inst, t) for t in s.terms])


def statement_holds(inst: DiagramInstance, stmt: Statement) -> bool:
    """Numeric truth of a statement in the realized instance; a naming
    statement holds when the equality it states does."""
    stmt = lift_naming(stmt)
    if isinstance(stmt, SegEq):
        return geo.equal_length(*inst.seg_endpoints(stmt.a), *inst.seg_endpoints(stmt.b))
    if isinstance(stmt, RightAngle):
        return geo.right_angle(
            inst.point(stmt.vertex), inst.point(stmt.arm1), inst.point(stmt.arm2)
        )
    if isinstance(stmt, Eq):
        return geo.cmp(sum_value(inst, stmt.lhs), sum_value(inst, stmt.rhs)) == 0
    raise TypeError(f"cannot evaluate {stmt!r} numerically")


def _labelled_cells(inst: DiagramInstance) -> list[LabelledBox]:
    """Each label is placed on the grid of drawn lines by exact value (the
    last label of a point winning).  From each labelled point in sorted
    order, the cell it is the lower left corner of is listed when its four
    corners carry labels, not those of a box `square` or `torect` built (that
    box, listed already, knows from its command whether it is a square), and
    its sides are drawn; the square test compares width and height exactly."""
    drawn = inst.drawn
    built = {frozenset(box[:4]) for box in inst.built_boxes}
    xs, ys = drawn.v_lines, drawn.h_lines
    label_at = {}
    for name, (x, y) in inst.coords.items():
        (i, on_x), (j, on_y) = geo.locate(x, xs), geo.locate(y, ys)
        if on_x and on_y:
            label_at[i, j] = name
    cells: list[LabelledBox] = []
    for i, j in sorted(label_at):
        corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
        labels = [label_at.get(k) for k in corners]
        if None in labels or frozenset(labels) in built or not drawn.cell_drawn(i, j):
            continue
        x1, y1, x2, y2 = xs[i], ys[j], xs[i + 1], ys[j + 1]
        square = geo.cmp(cr.sub(x2, x1), cr.sub(y2, y1)) == 0 and (
            drawn.segment_drawn((x1, y1), (x2, y2)) or drawn.segment_drawn((x2, y1), (x1, y2))
        )
        cells.append((*labels, square))
    return cells


def _verify_base_lines(inst: DiagramInstance, script: sc.Script):
    for line in script.base_lines:
        pts = [inst.point(p) for p in line if p in inst.coords]
        for i in range(len(pts) - 2):
            if not geo.collinear(pts[i], pts[i + 1], pts[i + 2]):
                raise FactVerificationFailed(
                    f"declared line {' '.join(line)} is not collinear"
                )


def realize(
    script: sc.Script, params: dict[str, Expr] | None = None
) -> DiagramInstance:
    values = {}
    for name, default in script.params.items():
        if params and name in params:
            values[name] = params[name]
        elif default is not None:
            values[name] = cr.const(default)
        else:
            raise InvalidParam(f"parameter {name!r} has no value")
    if params:
        for k in params:
            if k not in script.params:
                raise InvalidParam(f"unknown parameter {k!r}")
    return _Builder(script, values).run()


# ---------------------------------------------------------------------------
# figure binding


def _resolve_region(inst: DiagramInstance, letters: str) -> tuple[Polygon, geo.Box | None]:
    """The region and box of a declared figure, of four corners in boundary
    order with every side drawn, or of two opposite corners of an
    axis-aligned box whose four sides are drawn on the grid's lines."""
    if letters in inst.declared:
        poly = inst.declared[letters]
        return poly, geo.box_of(poly)
    if len(letters) == 2:
        box = geo.normalized_box(inst.point(letters[0]), inst.point(letters[1]))
        if box is None:
            raise UnknownName(f"{letters} does not span a rectangle")
        if not inst.drawn.box_drawn(box):
            raise UnknownName(f"rectangle {letters} has undrawn sides")
        return geo.box_polygon(*box), box
    if len(letters) != 4:
        raise UnknownName(f"figure {letters!r} is not bound in the diagram")
    poly = tuple(inst.point(p) for p in letters)
    i = inst.drawn.undrawn_side(poly)
    if i is not None:
        raise UnknownName(f"side {letters[i]}{letters[(i + 1) % 4]} of {letters} not drawn")
    return poly, geo.box_of(poly)
