from fractions import Fraction

import pytest

from euclid2 import constructible as cr
from euclid2 import geometry as geo
from euclid2.errors import InvalidParam


def P(x, y):
    return geo.pt(Fraction(x), Fraction(y))


def box(x1, y1, x2, y2):
    return geo.box_polygon(cr.const(Fraction(x1)), cr.const(Fraction(y1)),
                           cr.const(Fraction(x2)), cr.const(Fraction(y2)))


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


def test_gnomon_polygon():
    outer = box(0, 0, 4, 4)
    corner = box(0, 0, 1, 1)
    g = geo.gnomon_polygon(outer, corner)
    assert len(g) == 6
    assert geo.area(g).rat == 15
    with pytest.raises(InvalidParam, match="corner box does not sit in a corner"):
        geo.gnomon_polygon(outer, box(1, 1, 2, 2))


def test_box_of():
    assert [v.rat for v in geo.box_of(box(0, 0, 2, 1))] == [0, 0, 2, 1]
    turned = (P(2, 1), P(0, 1), P(0, 0), P(2, 0))
    assert [v.rat for v in geo.box_of(turned)] == [0, 0, 2, 1]
    gnomon = geo.gnomon_polygon(box(0, 0, 4, 4), box(0, 0, 1, 1))
    assert geo.box_of(gnomon) is None
    assert geo.box_of((P(0, 0), P(2, 0), P(3, 1), P(0, 1))) is None


def test_gnomon_coverage():
    outer = box(0, 0, 4, 4)
    corner = box(3, 3, 4, 4)
    g = geo.gnomon_polygon(outer, corner)
    res = geo.coverage_equal([(g, 1), (corner, 1)], [(outer, 1)])
    assert res.equal


def test_drawn_segments_coverage():
    drawn = geo.DrawnSegments([
        (P(0, 0), P(2, 0)),
        (P(2, 0), P(3, 0)),
        (P(0, 0), P(0, 1)),
    ])
    z = cr.ZERO
    assert drawn.h_covered(z, cr.const(Fraction(1, 2)), cr.const(Fraction(5, 2)))
    assert not drawn.h_covered(z, z, cr.const(4))
    assert drawn.v_covered(z, z, cr.const(1))
    assert not drawn.v_covered(cr.const(1), z, cr.const(1))


def test_segment_drawn_along_diagonal():
    drawn = geo.DrawnSegments([(P(0, 0), P(2, 2))])
    assert drawn.segment_drawn(P(0, 0), P(1, 1))
    assert drawn.segment_drawn(P("1/2", "1/2"), P("3/2", "3/2"))
    assert not drawn.segment_drawn(P(0, 0), P(3, 3))
    assert not drawn.segment_drawn(P(0, 1), P(1, 2))


def test_elementary_cells():
    drawn = geo.DrawnSegments([
        (P(0, 0), P(2, 0)),
        (P(0, -1), P(2, -1)),
        (P(0, 0), P(0, -1)),
        (P(1, 0), P(1, -1)),
        (P(2, 0), P(2, -1)),
    ])
    cells = list(geo.elementary_cells(drawn))
    assert len(cells) == 2


def test_region_key_rotation_invariant():
    a = box(0, 0, 1, 1)
    b = tuple(reversed((a[2], a[3], a[0], a[1])))
    assert geo.region_key(a) == geo.region_key(b)
