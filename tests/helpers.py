"""Test-only helpers over the checker's exact machinery: the corpus
entries, a point from plain numbers, an interval of a chosen width, a
coverage check of named figures, the sampled-arrangement coverage reference,
equality of content, the facts of the labelled boxes, point and region
keys with I.43's decision by them, exact identity checks on a grid, the
report document built as a dict for `json.dumps`, a run of code in an
interpreter that cannot import `fractions`, and statement and sum keys
built from strings, as the checker once compared them."""

import itertools
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

from euclid2 import constructible as cr
from euclid2 import corpusdata
from euclid2 import diagram as dg
from euclid2 import geometry as geo
from euclid2 import rules
from euclid2 import script as sc
from euclid2 import terms as T
from euclid2.errors import NotComplements
from euclid2.terms import RightAngle, SegEq, Segment


def all_entries() -> list[dict]:
    return corpusdata.expected()["entries"]


def default_entries() -> list[dict]:
    return [e for e in all_entries() if e["profile"] == "default"]


def negative_entries() -> list[dict]:
    return corpusdata.expected()["negatives"]


def pt(x, y) -> geo.Pt:
    gx = x if isinstance(x, cr.Expr) else cr.const(x)
    gy = y if isinstance(y, cr.Expr) else cr.const(y)
    return (gx, gy)


def run_without_fractions(code: str) -> None:
    """Run `code` (indented as a block) in a fresh interpreter where any
    import of `fractions` raises, with `cr` and `geo` imported."""
    prelude = (
        "import sys\n"
        "sys.modules['fractions'] = None\n"
        "from euclid2 import constructible as cr\n"
        "from euclid2 import geometry as geo\n"
    )
    path = [str(Path(cr.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


_MIN_BITS = 64


def refine_to_width(x: cr.Expr, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink the enclosing interval, doubling its precision from
    `_MIN_BITS`, until hi - lo <= width."""
    bits = _MIN_BITS
    while True:
        lo, hi = x.interval(bits)
        if hi - lo <= width:
            return lo, hi
        bits *= 2


def verify_decomposition(
    inst: dg.DiagramInstance,
    lhs: list[tuple[str, int]],
    rhs: list[tuple[str, int]],
) -> geo.CoverageResult:
    left = [(inst.region(name), m) for name, m in lhs]
    right = [(inst.region(name), m) for name, m in rhs]
    return geo.coverage_equal(left, right)


def coverage_multiplicity(polys: list[tuple[geo.Polygon, int]], p: geo.Pt) -> int:
    return sum(m for poly, m in polys if geo.point_in_polygon(p, poly))


def _intersection_xs(edges):
    """The x of every crossing of two edges, tested pair by pair."""
    xs = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            p1, q1 = edges[i]
            p2, q2 = edges[j]
            d1, d2 = geo.sub2(q1, p1), geo.sub2(q2, p2)
            den = geo.cross(d1, d2)
            sden = geo.sign(den)
            if sden == 0:
                continue
            # 0 <= t <= 1 and 0 <= u <= 1, with signs relative to den
            nums = (geo.cross(geo.sub2(p2, p1), d2), geo.cross(geo.sub2(p2, p1), d1))
            if all(geo.sign(n) * sden >= 0 and geo.cmp(n, den) * sden <= 0 for n in nums):
                t = cr.div(nums[0], den)
                xs.append(cr.add(p1[0], cr.mul(t, d1[0])))
    return xs


def arrangement_coverage(
    lhs: list[tuple[geo.Polygon, int]], rhs: list[tuple[geo.Polygon, int]]
) -> geo.CoverageResult:
    """The coverage reference: on the vertical-slab arrangement of all edges
    and all their crossings, one sample point per trapezoid, located in each
    polygon by `point_in_polygon`.  Independent of `geo.coverage_equal`'s
    sweep, which must give the same `equal`, `exact` and
    `max_multiplicity`."""
    all_polys = [p for p, _ in lhs] + [p for p, _ in rhs]
    exact = all(geo.polygon_exact_rational(p) for p in all_polys)
    edges = [e for poly in all_polys for e in zip(poly, poly[1:] + poly[:1])]
    xs = [p[0] for e in edges for p in e]
    xs = geo._sorted_unique(xs + _intersection_xs(edges))
    equal, witness, max_mult = True, None, 0
    half = cr.rational(1, 2)
    for i in range(len(xs) - 1):
        xm = cr.mul(cr.add(xs[i], xs[i + 1]), half)
        ys = []
        for a, b in edges:
            if geo.cmp(a[0], xm) * geo.cmp(b[0], xm) == -1:
                t = cr.div(cr.sub(xm, a[0]), cr.sub(b[0], a[0]))
                ys.append(cr.add(a[1], cr.mul(t, cr.sub(b[1], a[1]))))
        if not ys:
            continue
        ys = geo._sorted_unique(ys)
        samples = [cr.sub(ys[0], cr.ONE)]
        samples += [cr.mul(cr.add(lo, hi), half) for lo, hi in zip(ys, ys[1:])]
        samples.append(cr.add(ys[-1], cr.ONE))
        for sy in samples:
            p = (xm, sy)
            ml, mr = coverage_multiplicity(lhs, p), coverage_multiplicity(rhs, p)
            max_mult = max(max_mult, ml, mr)
            if ml != mr:
                equal = False
                if witness is None:
                    witness = (p, ml, mr)
    return geo.CoverageResult(equal, exact, max_mult, witness)


def equal_content(inst: dg.DiagramInstance, p: list[str], q: list[str]) -> bool:
    total_p = cr.ZERO
    for name in p:
        total_p = cr.add(total_p, geo.area(inst.region(name)))
    total_q = cr.ZERO
    for name in q:
        total_q = cr.add(total_q, geo.area(inst.region(name)))
    return geo.cmp(total_p, total_q) == 0


def _box_facts(a, b, c, d, square) -> list[tuple]:
    """(statement, reason) for each fact of the box with corners a, b, c, d
    in boundary order: its I.34 opposite sides, its four corner right angles
    and, for a square, the equality of two adjacent sides."""
    facts = [
        (SegEq(Segment(d, a), Segment(b, c)), "I34-OppositeSides"),
        (SegEq(Segment(c, d), Segment(a, b)), "I34-OppositeSides"),
    ]
    for vertex, p, q in ((a, b, d), (b, a, c), (c, b, d), (d, a, c)):
        facts.append((RightAngle(vertex, p, q), "ParallelogramRight"))
    if square:
        facts.append((SegEq(Segment(a, b), Segment(b, c)), "SquareSides"))
    return facts


def reference_box_facts(inst: dg.DiagramInstance, construction=()) -> list[tuple]:
    """(statement, reason) for each fact of each labelled box, one at a
    time: first the box each `square` and `torect` command of the
    construction builds, its name giving its corners in boundary order;
    then each elementary cell between consecutive drawn axis lines whose
    four corners carry labels (found by comparing coordinates, the last
    label of a point winning), a square when its width equals its height
    and a diagonal is drawn."""
    facts = []
    for cmd in construction:
        if isinstance(cmd, (sc.SquareOnCmd, sc.TriangulateToRect)):
            facts += _box_facts(*cmd.name, isinstance(cmd, sc.SquareOnCmd))
    drawn = inst.drawn
    segments = inst.drawn_list
    xs = geo._sorted_unique([p[0] for p, q in segments if geo.is_axis_segment(p, q) == "v"])
    ys = geo._sorted_unique([p[1] for p, q in segments if geo.is_axis_segment(p, q) == "h"])
    for x1, x2 in zip(xs, xs[1:]):
        for y1, y2 in zip(ys, ys[1:]):
            corners = geo.box_polygon(x1, y1, x2, y2)
            if drawn.undrawn_side(corners) is not None:
                continue
            labels = []
            for p in corners:
                at = [name for name, q in inst.coords.items() if geo.pts_equal(p, q)]
                labels.append(at[-1] if at else None)
            if None in labels:
                continue
            square = geo.cmp(cr.sub(x2, x1), cr.sub(y2, y1)) == 0 and (
                drawn.segment_drawn(corners[0], corners[2])
                or drawn.segment_drawn(corners[1], corners[3])
            )
            facts += _box_facts(*labels, square)
    return facts


def point_key(p: geo.Pt) -> tuple:
    """A point keyed by the `exact_key`s of its coordinates, as the checker
    once decided point identity: equal keys mean equal points, and equal
    points with rational or Q(sqrt r) coordinates have equal keys."""
    return (cr.exact_key(p[0]), cr.exact_key(p[1]))


def region_key(poly: geo.Polygon) -> tuple:
    """A polygon keyed by the least rotation, in either direction, of its
    point keys, as the checker once decided region identity; canonical
    where point keys are."""
    keys = [point_key(p) for p in poly]
    return min(
        tuple(seq[i:] + seq[:i]) for seq in (keys, keys[::-1]) for i in range(len(keys))
    )


def reference_i43(inst: dg.DiagramInstance, f1: str, f2: str) -> dict:
    """I43's certificate for the complements f1 and f2, or NotComplements,
    decided as the rule decided it while it found the shared corner by
    `point_key`: the two boxes share exactly one vertex by key; the
    corner of each opposite that vertex is a corner of their bounding box,
    the two far corners differ; the shared vertex lies on the bounding
    box's other diagonal, the diameter, which is drawn."""
    r1, r2 = inst.region(f1), inst.region(f2)
    b1, b2 = geo.box_of(r1), geo.box_of(r2)
    if b1 is None or b2 is None:
        raise NotComplements("complements must be rectangles")
    k1 = {point_key(p): p for p in r1}
    shared = set(k1) & set(map(point_key, r2))
    if len(shared) != 1:
        raise NotComplements("the two figures do not meet in exactly one corner")
    pshared = k1[shared.pop()]
    xs = [b1[0], b1[2], b2[0], b2[2]]
    ys = [b1[1], b1[3], b2[1], b2[3]]
    X1, X2 = min(xs, key=geo.by_value), max(xs, key=geo.by_value)
    Y1, Y2 = min(ys, key=geo.by_value), max(ys, key=geo.by_value)

    def opposite(box):
        x1, y1, x2, y2 = box
        return (x1 if geo.cmp(pshared[0], x1) != 0 else x2,
                y1 if geo.cmp(pshared[1], y1) != 0 else y2)

    far1, far2 = opposite(b1), opposite(b2)
    bbox = [(X1, Y1), (X2, Y1), (X2, Y2), (X1, Y2)]
    if not all(any(geo.pts_equal(far, c) for c in bbox) for far in (far1, far2)):
        raise NotComplements("figures do not sit in opposite corners of a parallelogram")
    others = [c for c in bbox if not geo.pts_equal(c, far1) and not geo.pts_equal(c, far2)]
    if len(others) != 2:
        raise NotComplements("degenerate parallelogram")
    d0, d1 = others
    if not geo.on_segment(pshared, d0, d1):
        raise NotComplements("shared corner is not on the diameter")
    if not inst.drawn.segment_drawn(d0, d1):
        raise NotComplements("the diameter is not drawn")
    return rules.make_certificate(
        "I43",
        {"parallelogram": rules._poly_payload(bbox),
         "diameter": rules._poly_payload([d0, d1]),
         "complements": [f1, f2]},
    )


# Three distinct values per variable.  As scales of the corpus parameters
# they keep every cut inside the segment it cuts.
GRID = (Fraction(3, 4), Fraction(1), Fraction(5, 4))


def holds_on_grid(holds, nvars: int) -> bool:
    """`holds(*point)` at every point of GRID ** nvars.

    When `holds` states an equality whose sides are polynomials of degree at
    most 2 in each variable, this proves the identity.  Read the difference
    as a polynomial in its last variable: at each grid point of the other
    variables it has three roots, so its coefficients vanish on their grid
    and, by induction on the number of variables, are zero.
    """
    return all(holds(*point) for point in itertools.product(GRID, repeat=nvars))


def diorismos_holds_on_grid(script, stmt=None) -> bool:
    """`stmt` (the diorismos by default) holds exactly in the script realized
    with each parameter's default scaled by every GRID value.  When every
    coordinate and length is affine in each parameter, as on the collinear
    figures of II.1-II.8, each side of an equality has degree at most 2 in
    each parameter, so this proves it wherever the figure keeps its shape."""
    stmt = script.diorismos if stmt is None else stmt
    names = list(script.params)

    def holds(*scales):
        params = {n: cr.mul(cr.const(script.params[n]), cr.const(k)) for n, k in zip(names, scales)}
        return dg.statement_holds(dg.realize(script, params), stmt)

    return holds_on_grid(holds, len(names))


def reference_report_json(r: sc.CheckReport, timing: bool = False) -> str:
    """`emit_report(r, "json", timing)` as it was first written: the report
    as a dict, laid out by `json.dumps(..., indent=2, sort_keys=True)`."""
    doc = {
        "prop_id": r.prop_id,
        "profile": r.profile,
        "verdict": (
            {"status": "accepted"}
            if r.accepted
            else {"status": "rejected", "step": r.reject_step, "cause": r.reject_cause}
        ),
        "diorismos": r.diorismos,
        "hypotheses": [
            {"id": hid, "statement": text, "flag": flag}
            for hid, text, flag in r.hypotheses
        ],
        "steps": [
            {
                "index": s.index,
                "statement": s.statement,
                "rule": s.rule,
                "color": s.color,
                "flags": list(s.flags),
                "certificate": s.certificate,
            }
            for s in r.steps
        ],
    }
    if timing:
        doc["timing_ms"] = r.timing_ms
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _seg_text(s: Segment) -> str:
    return s.a + (s.b or "")


def reference_expand_multiples(s: T.TermSum) -> tuple[str, ...]:
    """A sum's terms as sorted `term_key` strings, each multiple n*t
    flattened to n copies of t."""
    out: list[str] = []
    for t in s.terms:
        if isinstance(t, T.Multiple):
            out.extend([T.term_key(t.inner)] * t.count)
        else:
            out.append(T.term_key(t))
    return tuple(sorted(out))


def reference_stmt_key(s) -> tuple:
    """A statement's key as a tuple of strings: the sides of `=` and `==`
    and the arms of a right angle sorted, a segment by its points in order,
    and `pi` and `on` operands in the order written."""
    if isinstance(s, T.Eq):
        sides = sorted(tuple(T.term_key(t) for t in side.terms) for side in (s.lhs, s.rhs))
        return ("eq", *sides)
    if isinstance(s, T.Pi):
        return ("pi", s.figure.letters, _seg_text(s.first), _seg_text(s.second))
    if isinstance(s, T.IsSq):
        return ("on", s.figure.letters, _seg_text(s.side))
    if isinstance(s, T.SegEq):
        return ("segeq", *sorted((_seg_text(s.a), _seg_text(s.b))))
    return ("rangle", s.vertex, *sorted((s.arm1, s.arm2)))
