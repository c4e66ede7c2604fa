from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid2 import constructible as cr
from euclid2 import corpusdata, rules
from euclid2 import geometry as geo
from euclid2 import script as sc
from euclid2.errors import InvalidParam
from helpers import (
    all_entries,
    arrangement_coverage,
    coverage_multiplicity,
    negative_entries,
    pt,
    region_key,
)


def P(x, y):
    return pt(Fraction(x), Fraction(y))


def extent(x1, y1, x2, y2):
    """The box (x1, y1, x2, y2) as exact values."""
    return tuple(cr.const(Fraction(v)) for v in (x1, y1, x2, y2))


def box(x1, y1, x2, y2):
    return geo.box_polygon(*extent(x1, y1, x2, y2))


def test_area_shoelace():
    sq = box(0, 0, 1, 1)
    assert geo.area(sq).rat == 1
    tri = (P(0, 0), P(2, 0), P(0, 2))
    assert geo.area(tri).rat == 2


def test_point_in_polygon():
    sq = box(0, 0, 1, 1)
    assert geo.point_in_polygon(P("1/3", "1/2"), sq)
    assert not geo.point_in_polygon(P(2, "1/2"), sq)


def test_coverage_equal_dissection():
    whole = box(0, 0, 1, 1)
    left = box(0, 0, "1/2", 1)
    right = box("1/2", 0, 1, 1)
    res = geo.coverage_equal([(whole, 1)], [(left, 1), (right, 1)])
    assert res.equal and res.exact and res.max_multiplicity == 1


def test_coverage_unequal_detects_gap():
    whole = box(0, 0, 1, 1)
    left = box(0, 0, "1/2", 1)
    res = geo.coverage_equal([(whole, 1)], [(left, 1)])
    assert not res.equal
    assert res.witness is not None


def test_coverage_with_multiplicity():
    a = box(0, 0, 2, 1)
    b = box(1, 0, 3, 1)
    overlap = box(1, 0, 2, 1)
    lhs = [(a, 1), (b, 1)]
    rhs = [(box(0, 0, 3, 1), 1), (overlap, 1)]
    res = geo.coverage_equal(lhs, rhs)
    assert res.equal and res.max_multiplicity == 2


def test_polys_overlap():
    assert geo.polys_overlap(box(0, 0, 2, 2), box(1, 1, 3, 3))
    assert not geo.polys_overlap(box(0, 0, 1, 1), box(1, 0, 2, 1))


def _arrangement_overlap(*polys):
    return arrangement_coverage([(p, 1) for p in polys], []).max_multiplicity >= 2


@pytest.mark.parametrize(
    "a, b, overlap",
    [
        ((0, 0, 1, 1), (1, 0, 2, 1), False),  # shared edge
        ((0, 0, 1, 1), (1, 1, 2, 2), False),  # shared corner
        ((0, 0, 4, 4), (1, 1, 2, 2), True),  # nested
        ((0, 0, 1, 2), (0, 0, 1, 2), True),  # identical
        ((0, 0, 1, 1), (3, 0, 4, 1), False),  # disjoint
        ((0, 0, 2, 2), (1, 1, 3, 3), True),  # corners overlap
        ((0, 0, 4, 1), (1, -1, 2, 3), True),  # a cross
    ],
)
def test_box_overlap_pinned(a, b, overlap):
    pa, pb = box(*a), box(*b)
    assert geo.polys_overlap(pa, pb) is overlap
    assert geo.polys_overlap(pb, pa) is overlap
    assert _arrangement_overlap(pa, pb) is overlap


_coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def boxes(draw):
    x1, x2 = sorted(draw(st.lists(_coord, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(_coord, min_size=2, max_size=2, unique=True)))
    poly = box(x1, y1, x2, y2)
    # any start corner and either orientation
    k = draw(st.integers(0, 3))
    poly = poly[k:] + poly[:k]
    return poly[::-1] if draw(st.booleans()) else poly


@settings(max_examples=150, deadline=None)
@given(boxes(), boxes())
def test_box_overlap_equals_the_arrangement(a, b):
    assert geo.box_of(a) is not None and geo.box_of(b) is not None
    assert geo.polys_overlap(a, b) is _arrangement_overlap(a, b)


def test_crossed_quadrilateral_is_not_a_box():
    """A bowtie on the four corners of a box covers two triangles, not the
    box, so it must not take the box test."""
    bowtie = (P(0, 0), P(2, 2), P(2, 0), P(0, 2))
    assert geo.box_of(bowtie) is None
    assert geo.polys_overlap(bowtie, box("1/2", "1/4", "3/2", "1/2")) is False
    assert geo.polys_overlap(bowtie, box(0, "3/2", 2, 2)) is True
    degenerate = (P(0, 0), P(2, 0), P(0, 0), P(0, 2))
    assert geo.box_of(degenerate) is None


def test_merge_sends_no_box_pair_to_the_arrangement(monkeypatch):
    """II.8's MERGE step asks once whether its six boxes cover some point
    twice, and gets the answer of the reference tested pair by pair."""
    overlaps = _count_calls(monkeypatch, "polys_overlap")
    located = _count_calls(monkeypatch, "point_in_polygon")
    report = rules.check_proof(sc.parse_script(corpusdata.read_script_text("II_8.e2p")))
    assert report.accepted
    assert located == []
    [boxes] = overlaps
    assert len(boxes) == 6 and all(geo.box_of(b) for b in boxes)
    pairs = [(a, b) for i, a in enumerate(boxes) for b in boxes[i + 1 :]]
    assert not any(_arrangement_overlap(a, b) for a, b in pairs)
    assert _arrangement_overlap(*boxes) is False


def test_merge_overlap_is_one_question_over_all_figures():
    """Some point lies inside two of the polygons exactly when some pair of
    them overlaps, whatever the number of polygons."""
    a, b, c = box(0, 0, 1, 1), box(1, 0, 2, 1), box(0, 1, 2, 2)
    assert geo.polys_overlap(a, b, c) is False
    assert geo.polys_overlap(a, b, c, box("1/2", "1/2", "3/2", "3/2")) is True
    assert geo.polys_overlap(a) is False and geo.polys_overlap() is False


def test_witness_is_the_centre_of_the_first_differing_trapezoid():
    """The witness is the centre of the first trapezoid whose multiplicities
    differ, slab by slab and bottom to top, with both multiplicities.  In
    the slab 1 < x < 2 only the left box spans, so its one trapezoid runs
    from y = 0 to y = 2."""
    res = geo.coverage_equal([(box(0, 0, 3, 2), 1)], [(box(0, 0, 1, 2), 1), (box(2, 1, 3, 2), 2)])
    assert not res.equal and res.exact and res.max_multiplicity == 2
    (x, y), ml, mr = res.witness
    assert (x.rat, y.rat, ml, mr) == (Fraction(3, 2), Fraction(1), 1, 0)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(geo, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(geo, name, counting)
    return calls


def test_corpus_sends_no_coverage_to_the_arrangement(monkeypatch):
    """Every corpus coverage call (VE, and MERGE's overlap questions over
    boxes and gnomons) has only axis-parallel edges, so the sweep locates
    no point and computes no crossing; the verdicts stay those of
    expected.json."""
    located = _count_calls(monkeypatch, "point_in_polygon")
    crossed = _count_calls(monkeypatch, "_crossing_x")
    covered = _count_calls(monkeypatch, "coverage_equal")
    overlaps = _count_calls(monkeypatch, "polys_overlap")
    for entry in all_entries() + negative_entries():
        script = sc.parse_script(corpusdata.read_script_text(entry["file"]))
        report = rules.check_proof(script, profile=entry["profile"])
        assert report.verdict == entry["verdict"], entry["file"]
    # 29 VE steps and one overlap question for each of 6 MERGE steps
    assert (len(covered), len(overlaps)) == (35, 6)
    assert located == [] and crossed == []


def test_a_slanted_edge_takes_the_arrangement():
    """A triangle beside a box has a slanted edge; the sweep gives the
    answer of the sampled arrangement, and its witness lies in the box."""
    triangle = (P(0, 0), P(2, 0), P(0, 2))
    beside = box(2, 0, 3, 1)
    halves = [((P(0, 0), P(2, 0), P(2, 2)), 1), ((P(0, 0), P(2, 2), P(0, 2)), 1)]
    assert geo.coverage_equal([(box(0, 0, 2, 2), 1)], halves).equal
    res = geo.coverage_equal([(triangle, 1), (beside, 1)], [(triangle, 1)])
    reference = arrangement_coverage([(triangle, 1), (beside, 1)], [(triangle, 1)])
    assert not res.equal and res.max_multiplicity == 1
    assert (res.equal, res.exact, res.max_multiplicity) == (
        reference.equal, reference.exact, reference.max_multiplicity)
    (x, y), ml, mr = res.witness
    assert (x.rat, y.rat, ml, mr) == (Fraction(5, 2), Fraction(1, 2), 1, 0)


_S2 = cr.sqrt(cr.const(2))
_RATIONAL = [cr.const(Fraction(k, 2)) for k in range(-2, 6)]
_QUADRATIC = _RATIONAL[::2] + [cr.add(cr.const(k), _S2) for k in (-1, 0, 1)] + [
    cr.div(_S2, cr.const(2))]


@st.composite
def rectilinear_sides(draw):
    """Two sides of boxes, gnomons and L-shaped hexagons (which may be
    degenerate or cross themselves) with multiplicities 1-3, on a few shared
    rational or Q(sqrt 2) coordinates so that edges and corners coincide.
    Half the time the right side re-expresses the left one (boxes split in
    two, other shapes turned) and possibly adds a shape."""
    pool = draw(st.sampled_from([_RATIONAL, _QUADRATIC]))

    def coords(n):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n, unique=True))
        return sorted((pool[i] for i in picks), key=geo.by_value)

    def turned(poly):
        k = draw(st.integers(0, len(poly) - 1))
        poly = poly[k:] + poly[:k]
        return poly[::-1] if draw(st.booleans()) else poly

    def shape():
        kind = draw(st.sampled_from(["box", "gnomon", "L"]))
        if kind == "box":
            (x1, x2), (y1, y2) = coords(2), coords(2)
            return turned(geo.box_polygon(x1, y1, x2, y2))
        if kind == "gnomon":
            (x1, xm, x2), (y1, ym, y2) = coords(3), coords(3)
            cx1, cx2 = draw(st.sampled_from([(x1, xm), (xm, x2)]))
            cy1, cy2 = draw(st.sampled_from([(y1, ym), (ym, y2)]))
            return turned(geo.gnomon_polygon((x1, y1, x2, y2), (cx1, cy1, cx2, cy2)))
        a, b, c, d, e, f = (draw(st.sampled_from(pool)) for _ in range(6))
        return turned(((a, d), (c, d), (c, e), (b, e), (b, f), (a, f)))

    def side(lo):
        return [(shape(), draw(st.integers(1, 3))) for _ in range(draw(st.integers(lo, 2)))]

    lhs = side(1)
    if draw(st.booleans()):
        return lhs, side(0)
    rhs = []
    for poly, m in lhs:
        found, cut = geo.box_of(poly), draw(st.sampled_from(pool))
        if found and geo.cmp(found[0], cut) < 0 and geo.cmp(cut, found[2]) < 0:
            x1, y1, x2, y2 = found
            rhs += [(geo.box_polygon(x1, y1, cut, y2), m), (geo.box_polygon(cut, y1, x2, y2), m)]
        else:
            rhs.append((turned(poly), m))
    return lhs, rhs + side(0)


@settings(max_examples=60, deadline=None)
@given(rectilinear_sides())
def test_grid_coverage_equals_the_arrangement(sides):
    _assert_matches_the_arrangement(*sides)


def _assert_matches_the_arrangement(lhs, rhs):
    """The sweep and the sampled-arrangement reference agree on `equal`,
    `exact` and `max_multiplicity`, and the reference finds the witness's
    multiplicities at the witness."""
    res = geo.coverage_equal(lhs, rhs)
    reference = arrangement_coverage(lhs, rhs)
    assert res.equal is reference.equal
    assert res.exact is reference.exact
    assert res.max_multiplicity == reference.max_multiplicity
    if not res.equal:
        point, ml, mr = res.witness
        assert ml != mr
        assert coverage_multiplicity(lhs, point) == ml
        assert coverage_multiplicity(rhs, point) == mr


@st.composite
def slanted_sides(draw):
    """Two sides of triangles to pentagons (often slanted, self-crossing or
    degenerate) and boxes, with multiplicities 1-3, on a few shared
    rational or Q(sqrt 2) coordinates.  Half the time the right side
    repeats the left one turned, or splits a left polygon along one of its
    diagonals, and possibly adds a shape."""
    pool = draw(st.sampled_from([_RATIONAL, _QUADRATIC]))

    def shape():
        if draw(st.booleans()):
            (x1, x2), (y1, y2) = (
                sorted(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2)),
                       key=geo.by_value) for _ in range(2))
            return geo.box_polygon(x1, y1, x2, y2)
        n = draw(st.integers(3, 5))
        return tuple((draw(st.sampled_from(pool)), draw(st.sampled_from(pool))) for _ in range(n))

    def side(lo):
        return [(shape(), draw(st.integers(1, 3))) for _ in range(draw(st.integers(lo, 2)))]

    lhs = side(1)
    if draw(st.booleans()):
        return lhs, side(0)
    rhs = []
    for poly, m in lhs:
        k = draw(st.integers(0, len(poly) - 1))
        turned = poly[k:] + poly[:k]
        if len(turned) == 4 and draw(st.booleans()):
            rhs += [(turned[:3], m), (turned[2:] + turned[:1], m)]
        else:
            rhs.append((turned, m))
    return lhs, rhs + side(0)


@settings(max_examples=100, deadline=None)
@given(slanted_sides())
def test_slanted_coverage_equals_the_arrangement(sides):
    _assert_matches_the_arrangement(*sides)


def test_gnomon_polygon():
    outer = extent(0, 0, 4, 4)
    g = geo.gnomon_polygon(outer, extent(0, 0, 1, 1))
    assert len(g) == 6
    assert geo.area(g).rat == 15
    with pytest.raises(InvalidParam, match="corner box does not sit in a corner"):
        geo.gnomon_polygon(outer, extent(1, 1, 2, 2))
    with pytest.raises(InvalidParam, match="gnomon parts must be axis-aligned boxes"):
        geo.gnomon_polygon(outer, None)


def test_box_of():
    assert [v.rat for v in geo.box_of(box(0, 0, 2, 1))] == [0, 0, 2, 1]
    turned = (P(2, 1), P(0, 1), P(0, 0), P(2, 0))
    assert [v.rat for v in geo.box_of(turned)] == [0, 0, 2, 1]
    gnomon = geo.gnomon_polygon(extent(0, 0, 4, 4), extent(0, 0, 1, 1))
    assert geo.box_of(gnomon) is None
    assert geo.box_of((P(0, 0), P(2, 0), P(3, 1), P(0, 1))) is None


def test_gnomon_coverage():
    outer, corner = box(0, 0, 4, 4), box(3, 3, 4, 4)
    g = geo.gnomon_polygon(extent(0, 0, 4, 4), extent(3, 3, 4, 4))
    res = geo.coverage_equal([(g, 1), (corner, 1)], [(outer, 1)])
    assert res.equal


def test_drawn_segments_coverage():
    drawn = geo.DrawnSegments([
        (P(0, 0), P(2, 0)),
        (P(2, 0), P(3, 0)),
        (P(0, 0), P(0, 1)),
    ])
    assert drawn.segment_drawn(P("1/2", 0), P("5/2", 0))
    assert not drawn.segment_drawn(P(0, 0), P(4, 0))
    assert drawn.segment_drawn(P(0, 0), P(0, 1))
    assert not drawn.segment_drawn(P(1, 0), P(1, 1))


def test_segment_drawn_along_diagonal():
    drawn = geo.DrawnSegments([(P(0, 0), P(2, 2))])
    assert drawn.segment_drawn(P(0, 0), P(1, 1))
    assert drawn.segment_drawn(P("1/2", "1/2"), P("3/2", "3/2"))
    assert not drawn.segment_drawn(P(0, 0), P(3, 3))
    assert not drawn.segment_drawn(P(0, 1), P(1, 2))


def _drawn_cells(drawn):
    """(i, j) of every grid cell whose four sides are drawn."""
    return [
        (i, j)
        for i in range(len(drawn.v_lines) - 1)
        for j in range(len(drawn.h_lines) - 1)
        if drawn.cell_drawn(i, j)
    ]


def test_elementary_cells():
    sides = [
        (P(0, 0), P(2, 0)),
        (P(0, -1), P(2, -1)),
        (P(0, 0), P(0, -1)),
        (P(1, 0), P(1, -1)),
        (P(2, 0), P(2, -1)),
    ]
    assert _drawn_cells(geo.DrawnSegments(sides)) == [(0, 0), (1, 0)]
    # the right cell loses its top side, and only the left one stays closed
    open_top = sides[1:] + [(P(0, 0), P(1, 0))]
    assert _drawn_cells(geo.DrawnSegments(open_top)) == [(0, 0)]


def test_undrawn_side_is_the_first_one_missing():
    drawn = geo.DrawnSegments([
        (P(0, 0), P(2, 0)), (P(2, 0), P(2, 1)), (P(0, 1), P(1, 1)), (P(0, 0), P(0, 1)),
        (P(1, 0), P(1, 1)),
    ])
    assert drawn.undrawn_side(box(0, 0, 1, 1)) is None
    assert drawn.undrawn_side(box(0, 0, 2, 1)) == 2  # the top runs out at x = 1
    assert drawn.undrawn_side(box(1, 0, 2, 1)) == 2
    assert drawn.undrawn_side((P(0, 0), P(2, 0), P(0, 1))) == 1  # a slanted side


def _interval_minus(lo, hi, pieces):
    """True iff [lo, hi] (lo <= hi) is covered by the union of the closed
    pieces, walked afresh on every query: the drawn-side test before the
    per-line index, kept as the reference the index must agree with."""
    pieces = [(a, b) if geo.cmp(a, b) <= 0 else (b, a) for a, b in pieces]
    pieces = [pc for pc in pieces if geo.cmp(pc[1], lo) > 0 and geo.cmp(pc[0], hi) < 0]
    pieces.sort(key=lambda pc: geo.by_value(pc[0]))
    cur = lo
    for a, b in pieces:
        if geo.cmp(a, cur) > 0:
            return False
        if geo.cmp(b, cur) > 0:
            cur = b
        if geo.cmp(cur, hi) >= 0:
            return True
    return geo.cmp(cur, hi) >= 0


class _ReferenceDrawn:
    """Every query filters all drawn segments by line with `cmp`."""

    def __init__(self, segments):
        self.h = [(p[1], p[0], q[0]) for p, q in segments if geo.is_axis_segment(p, q) == "h"]
        self.v = [(p[0], p[1], q[1]) for p, q in segments if geo.is_axis_segment(p, q) == "v"]

    def h_covered(self, y, x1, x2):
        if geo.cmp(x1, x2) > 0:
            x1, x2 = x2, x1
        return _interval_minus(x1, x2, [(a, b) for c, a, b in self.h if geo.cmp(c, y) == 0])

    def v_covered(self, x, y1, y2):
        if geo.cmp(y1, y2) > 0:
            y1, y2 = y2, y1
        return _interval_minus(y1, y2, [(a, b) for c, a, b in self.v if geo.cmp(c, x) == 0])

    def box_sides_drawn(self, x1, y1, x2, y2):
        return (self.h_covered(y1, x1, x2) and self.h_covered(y2, x1, x2)
                and self.v_covered(x1, y1, y2) and self.v_covered(x2, y1, y2))

    def elementary_cells(self):
        """The corners (x1, y1, x2, y2) of each closed cell."""
        xs = geo._sorted_unique([c for c, _, _ in self.v])
        ys = geo._sorted_unique([c for c, _, _ in self.h])
        return [
            (xs[i], ys[j], xs[i + 1], ys[j + 1])
            for i in range(len(xs) - 1)
            for j in range(len(ys) - 1)
            if self.box_sides_drawn(xs[i], ys[j], xs[i + 1], ys[j + 1])
        ]


def _keys(values):
    return [cr.exact_key(v) for v in values]


@st.composite
def drawn_pieces(draw):
    """Horizontal and vertical segments on a few shared rational or Q(sqrt 2)
    coordinates, so that pieces nest, touch, repeat and come reversed; a
    coordinate is sometimes rebuilt by another construction of its value.
    The four sides of a box between pool values are sometimes drawn too, so
    that cells close."""
    pool = draw(st.sampled_from([_RATIONAL, _QUADRATIC]))

    def value():
        v = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            v = cr.div(cr.mul(v, cr.const(3)), cr.const(3))
        return v

    segments = []
    for _ in range(draw(st.integers(0, 10))):
        c, a, b = value(), value(), value()
        horizontal = draw(st.booleans())
        segments.append(((a, c), (b, c)) if horizontal else ((c, a), (c, b)))
    for _ in range(draw(st.integers(0, 3))):
        box = geo.box_polygon(value(), value(), value(), value())
        segments += [(box[k], box[(k + 1) % 4]) for k in range(4)]
    queries = [(value(), value(), value()) for _ in range(6)]
    return segments, queries


@settings(max_examples=60, deadline=None)
@given(drawn_pieces())
def test_drawn_index_equals_the_reference(case):
    segments, queries = case
    drawn, ref = geo.DrawnSegments(segments), _ReferenceDrawn(segments)
    for c, lo, hi in queries:
        if geo.cmp(lo, hi) != 0:  # a point is no axis segment; see the zero-length test
            assert drawn.segment_drawn((lo, c), (hi, c)) is ref.h_covered(c, lo, hi)
            assert drawn.segment_drawn((c, lo), (c, hi)) is ref.v_covered(c, lo, hi)
    for (x1, y1, _), (x2, y2, _) in zip(queries, queries[1:]):
        if geo.cmp(x1, x2) == 0 or geo.cmp(y1, y2) == 0:
            continue
        # the sides of box_polygon in order: bottom, right, top, left
        sides = [ref.h_covered(y1, x1, x2), ref.v_covered(x2, y1, y2),
                 ref.h_covered(y2, x1, x2), ref.v_covered(x1, y1, y2)]
        first = next((i for i, ok in enumerate(sides) if not ok), None)
        assert drawn.undrawn_side(geo.box_polygon(x1, y1, x2, y2)) == first
        assert (first is None) is ref.box_sides_drawn(x1, y1, x2, y2)
    xs, ys = drawn.v_lines, drawn.h_lines
    got = [(xs[i], ys[j], xs[i + 1], ys[j + 1]) for i, j in _drawn_cells(drawn)]
    assert [_keys(cell) for cell in got] == [_keys(cell) for cell in ref.elementary_cells()]


@st.composite
def drawn_grids(draw):
    """Grid lines on 2-4 sorted rational or Q(sqrt 2) values each way, each
    line drawn piece by piece between consecutive grid values, a piece whole,
    half drawn or left out, so that some boxes fall one line short; and the
    boxes to ask about: every box between grid values, and boxes with one
    coordinate moved off the grid, to a pool value or a midpoint.  A value
    is sometimes rebuilt by another construction."""
    pool = draw(st.sampled_from([_RATIONAL, _QUADRATIC]))

    def values():
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=4, unique=True))
        return sorted((pool[i] for i in picks), key=geo.by_value)

    def rebuilt(v):
        return cr.div(cr.mul(v, cr.const(3)), cr.const(3)) if draw(st.booleans()) else v

    xs, ys = values(), values()
    half = cr.rational(1, 2)
    segments = []
    for lines, span, horizontal in ((ys, xs, True), (xs, ys, False)):
        for c in lines:
            for a, b in zip(span, span[1:]):
                how = draw(st.sampled_from(["whole", "whole", "whole", "half", "none"]))
                if how == "none":
                    continue
                if how == "half":
                    b = cr.mul(cr.add(a, b), half)
                a, b, c = rebuilt(a), rebuilt(b), rebuilt(c)
                segments.append(((a, c), (b, c)) if horizontal else ((c, a), (c, b)))
    boxes = [(xs[i], ys[k], xs[j], ys[m])
             for i in range(len(xs)) for j in range(i + 1, len(xs))
             for k in range(len(ys)) for m in range(k + 1, len(ys))]
    for _ in range(draw(st.integers(0, 4))):
        box = list(draw(st.sampled_from(boxes)))
        at = draw(st.integers(0, 3))
        grid = xs if at % 2 == 0 else ys
        i = draw(st.integers(0, len(grid) - 2))
        box[at] = draw(st.sampled_from([*pool, cr.mul(cr.add(grid[i], grid[i + 1]), half)]))
        found = geo.normalized_box(box[:2], box[2:])
        if found is not None:
            boxes.append(found)
    return segments, [tuple(rebuilt(v) for v in box) for box in boxes]


@settings(max_examples=100, deadline=None)
@given(drawn_grids())
def test_box_query_equals_the_polygon_route_and_the_reference(case):
    """`box_drawn` on a box's own lines says what the four side queries of
    its polygon say, and what the line-filtering reference says."""
    segments, boxes = case
    drawn, ref = geo.DrawnSegments(segments), _ReferenceDrawn(segments)
    for box in boxes:
        expected = ref.box_sides_drawn(*box)
        assert drawn.box_drawn(box) is expected
        assert (drawn.undrawn_side(geo.box_polygon(*box)) is None) is expected


def test_box_query_on_and_off_the_grid():
    drawn = geo.DrawnSegments([
        (P(0, 0), P(2, 0)), (P(2, 0), P(2, 1)), (P(0, 1), P(1, 1)), (P(0, 0), P(0, 1)),
        (P(1, 0), P(1, 1)), (P(1, 1), P(2, 1)),
    ])
    assert drawn.box_drawn(extent(0, 0, 2, 1)) and drawn.box_drawn(extent(1, 0, 2, 1))
    assert not drawn.box_drawn(extent(0, 0, 2, 2))  # y = 2 is no line
    assert not drawn.box_drawn(extent(0, 0, 3, 1))  # nor is x = 3
    short = geo.DrawnSegments([(P(0, 0), P(2, 0)), (P(2, 0), P(2, 1)), (P(0, 1), P(1, 1)),
                               (P(0, 0), P(0, 1))])
    assert not short.box_drawn(extent(0, 0, 2, 1))  # the top stops at x = 1


@st.composite
def pool_boxes(draw):
    """A box (x1, y1, x2, y2) on rational or Q(sqrt 2) values."""
    pool = draw(st.sampled_from([_RATIONAL, _QUADRATIC]))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=2, unique=True)
    (x1, x2), (y1, y2) = (sorted((pool[i] for i in draw(picks)), key=geo.by_value)
                          for _ in range(2))
    return x1, y1, x2, y2


@settings(max_examples=100, deadline=None)
@given(pool_boxes())
def test_box_area_equals_the_shoelace(box):
    assert geo.cmp(geo.box_area(box), geo.area(geo.box_polygon(*box))) == 0


def _polygon_gnomon(outer, corner):
    """The L-shaped hexagon as `gnomon_polygon` once cut it from the two
    parts' polygons, each found to be a box by `box_of`."""
    X1, Y1, X2, Y2 = geo.box_of(outer)
    x1, y1, x2, y2 = geo.box_of(corner)
    at_left, at_bottom = geo.cmp(x1, X1) == 0, geo.cmp(y1, Y1) == 0
    at_right, at_top = geo.cmp(x2, X2) == 0, geo.cmp(y2, Y2) == 0
    if at_left and at_bottom and not (at_right or at_top):
        return ((x2, Y1), (X2, Y1), (X2, Y2), (X1, Y2), (X1, y2), (x2, y2))
    if at_right and at_bottom and not (at_left or at_top):
        return ((X1, Y1), (x1, Y1), (x1, y2), (X2, y2), (X2, Y2), (X1, Y2))
    if at_left and at_top and not (at_right or at_bottom):
        return ((X1, Y1), (X2, Y1), (X2, Y2), (x2, Y2), (x2, y1), (X1, y1))
    if at_right and at_top and not (at_left or at_bottom):
        return ((X1, Y1), (X2, Y1), (X2, y1), (x1, y1), (x1, Y2), (X1, Y2))
    return None


@st.composite
def gnomon_parts(draw):
    """An outer box on three sorted rational or Q(sqrt 2) values each way,
    the box in one of its corners, and the turn and direction in which
    their polygons are given."""
    pool = draw(st.sampled_from([_RATIONAL, _QUADRATIC]))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=3, unique=True)
    (x1, xm, x2), (y1, ym, y2) = (sorted((pool[i] for i in draw(picks)), key=geo.by_value)
                                  for _ in range(2))
    (cx1, cx2), (cy1, cy2) = draw(st.sampled_from([(x1, xm), (xm, x2)])), draw(
        st.sampled_from([(y1, ym), (ym, y2)]))
    return (x1, y1, x2, y2), (cx1, cy1, cx2, cy2), draw(st.integers(0, 3)), draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(gnomon_parts())
def test_gnomon_from_boxes_equals_the_polygon_route(case):
    """The gnomon cut from two boxes is, vertex by vertex, the one cut from
    their polygons, given from any vertex in either direction."""
    outer, corner, turn, backwards = case

    def turned(box):
        poly = geo.box_polygon(*box)
        poly = poly[turn:] + poly[:turn]
        return poly[::-1] if backwards else poly

    new = geo.gnomon_polygon(outer, corner)
    old = _polygon_gnomon(turned(outer), turned(corner))
    assert len(new) == len(old) == 6
    assert all(geo.pts_equal(p, q) for p, q in zip(new, old))


def _hline(y, x1, x2):
    return (P(x1, y), P(x2, y))


def test_touching_pieces_cover_their_union():
    drawn = geo.DrawnSegments([
        _hline(0, 0, 1), _hline(0, 2, 1), (P(5, 0), P(5, 1)), (P(5, 2), P(5, 1)),
    ])
    z, two = cr.ZERO, cr.const(2)
    assert drawn.segment_drawn(*_hline(0, 0, 2)) and drawn.segment_drawn(*_hline(0, 2, 0))
    assert drawn.segment_drawn(P(5, 0), P(5, 2))
    assert [[_keys(iv) for iv in line] for line in drawn.h_cover] == [[_keys((z, two))]]
    assert len(drawn.v_cover[0]) == 1


def test_a_gap_between_pieces_is_not_covered():
    """However small the gap, the pieces on either side stay apart."""
    gap = Fraction(1, 10**9)
    drawn = geo.DrawnSegments([_hline(0, 0, 1), _hline(0, 1 + gap, 2)])
    assert not drawn.segment_drawn(*_hline(0, 0, 2))
    assert not drawn.segment_drawn(*_hline(0, 1, 1 + gap))
    assert drawn.segment_drawn(*_hline(0, 0, 1))
    assert drawn.segment_drawn(*_hline(0, 1 + gap, 2))


def test_query_on_an_undrawn_line():
    drawn = geo.DrawnSegments([_hline(0, 0, 1), (P(0, 0), P(0, 1))])
    assert not drawn.segment_drawn(*_hline(1, 0, 1))
    assert not drawn.segment_drawn(P(1, 0), P(1, 1))
    assert not geo.DrawnSegments([]).segment_drawn(*_hline(0, 0, 1))


def test_zero_length_query_is_covered():
    """A point needs no drawn length, on a drawn line or off one: the
    interval search behind `segment_drawn` and `cell_drawn` says so."""
    drawn = geo.DrawnSegments([_hline(0, 0, 1)])
    half, three = cr.const(Fraction(1, 2)), cr.const(3)
    assert geo._covered(drawn.h_cover[0], half, half)
    assert geo._covered([], half, half) and geo._covered([], three, three)


def test_line_reached_by_two_constructions_of_one_value():
    """sqrt 2 and 2/sqrt(2) are one line, and the pieces on it merge."""
    s2 = cr.sqrt(cr.const(2))
    other = cr.div(cr.const(2), cr.sqrt(cr.const(2)))
    third = cr.div(cr.sqrt(cr.const(8)), cr.const(2))
    zero, one, two = cr.ZERO, cr.ONE, cr.const(2)
    drawn = geo.DrawnSegments([
        ((zero, s2), (one, s2)), ((one, other), (two, other)),
        ((s2, zero), (s2, one)), ((other, one), (other, two)),
    ])
    assert len(drawn.h_lines) == 1 and len(drawn.v_lines) == 1
    assert drawn.segment_drawn((zero, third), (two, third))
    assert drawn.segment_drawn((third, two), (third, zero))
    assert not drawn.segment_drawn((zero, cr.add(third, one)), (two, cr.add(third, one)))
    assert _drawn_cells(drawn) == []  # one line each way closes no cell


def test_slanted_segment_uses_the_merge_routine(monkeypatch):
    merged = []
    merge = geo._merge_intervals
    monkeypatch.setattr(
        geo, "_merge_intervals", lambda pieces: merged.append(pieces) or merge(pieces))
    drawn = geo.DrawnSegments([(P(0, 0), P(1, 1)), (P(2, 2), P(1, 1)), (P(3, 3), P(4, 4))])
    assert merged == []  # the slanted pieces are not indexed
    assert drawn.segment_drawn(P(2, 2), P(0, 0))
    assert len(merged) == 1 and len(merged[0]) == 3
    assert not drawn.segment_drawn(P(0, 0), P(4, 4))
    assert drawn.segment_drawn(P(3, 3), P(3, 3))
    assert not drawn.segment_drawn(P(0, 1), P(0, 1))


def test_same_region_rotation_invariant():
    a = box(0, 0, 1, 1)
    b = tuple(reversed((a[2], a[3], a[0], a[1])))
    assert geo.same_region(a, b)
    assert not geo.same_region(a, box(0, 0, 1, 2))
    assert not geo.same_region(a, a[:3])


def _rebuilt(p):
    """The point with each coordinate built again by another route."""
    return tuple(cr.div(cr.mul(v, cr.const(3)), cr.const(3)) for v in p)


@st.composite
def polygon_variants(draw):
    """A polygon on rational or Q(sqrt 2) vertices, where point keys are
    canonical, and polygons to compare it with: each rotation of it, in
    either direction, with its vertices rebuilt; the polygon with one
    vertex moved to another pool value; and the polygon less a vertex.
    The pool is small, so vertices repeat."""
    pool = draw(st.sampled_from([_RATIONAL, _QUADRATIC]))
    value = st.sampled_from(pool)
    n = draw(st.integers(3, 6))
    poly = tuple((draw(value), draw(value)) for _ in range(n))
    rebuilt = [_rebuilt(p) for p in poly]
    variants = [
        tuple(seq[i:] + seq[:i]) for seq in (rebuilt, rebuilt[::-1]) for i in range(n)
    ]
    i, axis, v = draw(st.integers(0, n - 1)), draw(st.integers(0, 1)), draw(value)
    moved = list(poly)
    moved[i] = (v, poly[i][1]) if axis == 0 else (poly[i][0], v)
    variants += [tuple(moved), poly[:i] + poly[i + 1 :]]
    return poly, variants


@settings(max_examples=100, deadline=None)
@given(polygon_variants())
def test_same_region_agrees_with_the_keyed_reference(case):
    poly, variants = case
    for q in variants:
        assert geo.same_region(poly, q) == (region_key(poly) == region_key(q))
