"""The integer kernels of the exact primitives.

On rational input `cr.add/sub/mul/div/neg`, `cr.rational` and the geometry
primitives, among them the construction kernels `geo.meet` and the axis
path of `geo.length`, compute in ints and reduce once; these tests pin them
to `Fraction` arithmetic and to canonical output, and pin their
non-rational path to the plain `Expr` composition it replaced."""

import ast
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid2 import constructible as cr
from euclid2 import geometry as geo
from euclid2.errors import NoIntersection
from helpers import pt, run_without_fractions

SRC = Path(__file__).resolve().parent.parent / "src" / "euclid2"

_big = st.integers(-(2**200), 2**200)
_ints = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-12, 12), _big)
_dens = st.one_of(st.integers(1, 12), st.integers(1, 2**200))
_fracs = st.builds(Fraction, _ints, _dens)
_fpoints = st.tuples(_fracs, _fracs)


def _pt(p):
    return pt(*p)


def _canonical(e, ref: Fraction) -> bool:
    return e.q is None and e.den > 0 and math.gcd(e.num, e.den) == 1 and (
        Fraction(e.num, e.den) == ref
    )


def _fcross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _fdot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _fsub(p, q):
    return (p[0] - q[0], p[1] - q[1])


@settings(max_examples=300, deadline=None)
@given(_ints, st.one_of(_ints.filter(bool), _dens.map(lambda d: -d)))
def test_rational_is_reduced_with_a_positive_denominator(n, d):
    assert _canonical(cr.rational(n, d), Fraction(n, d))


@settings(max_examples=300, deadline=None)
@given(_fracs, _fracs)
def test_arithmetic_kernels_match_fraction(p, q):
    x, y = cr.const(p), cr.const(q)
    assert _canonical(cr.add(x, y), p + q)
    assert _canonical(cr.sub(x, y), p - q)
    assert _canonical(cr.mul(x, y), p * q)
    if q:
        assert _canonical(cr.div(x, y), p / q)


@settings(max_examples=300, deadline=None)
@given(_fpoints, _fpoints, _fracs, st.booleans())
def test_vector_kernels_match_fraction(a, b, t, on_line):
    # c on the line ab half of the time, so `collinear` meets both answers
    c = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])) if on_line else (t, b[0])
    pa, pb, pc = _pt(a), _pt(b), _pt(c)
    assert _canonical(geo.cross(pa, pb), _fcross(a, b))
    assert _canonical(geo.dot(pa, pb), _fdot(a, b))
    d = _fsub(a, b)
    assert _canonical(geo.dist2(pa, pb), _fdot(d, d))
    assert geo.collinear(pa, pb, pc) == (_fcross(_fsub(b, a), _fsub(c, a)) == 0)


@settings(max_examples=300, deadline=None)
@given(_fpoints, _fpoints, _fracs, st.booleans())
def test_right_angle_kernel_matches_fraction(v, a, s, square):
    # b on the perpendicular to va through v half of the time
    u = _fsub(a, v)
    b = (v[0] - s * u[1], v[1] + s * u[0]) if square else (s, a[0])
    assert geo.right_angle(_pt(v), _pt(a), _pt(b)) == (_fdot(u, _fsub(b, v)) == 0)


def _equal_length_by_dist2(p, q, r, s) -> bool:
    return geo.cmp(geo.dist2(p, q), geo.dist2(r, s)) == 0


@settings(max_examples=300, deadline=None)
@given(_fpoints, _fpoints, _fpoints, _fracs, st.booleans())
def test_equal_length_kernel_matches_dist2(p, q, r, t, turned):
    # rs is pq turned a quarter about r half of the time, so equal
    u = _fsub(q, p)
    s = (r[0] - u[1], r[1] + u[0]) if turned else (t, r[1])
    pts = [_pt(x) for x in (p, q, r, s)]
    assert geo.equal_length(*pts) == _equal_length_by_dist2(*pts)
    assert geo.equal_length(*pts) == (_fdot(u, u) == _fdot(_fsub(s, r), _fsub(s, r)))
    assert geo.equal_length(pts[0], pts[0], pts[2], pts[2])


@settings(max_examples=200, deadline=None)
@given(st.lists(_fpoints, min_size=0, max_size=7))
def test_area_kernels_match_the_shoelace_in_fraction(poly):
    twice = sum((_fcross(poly[i - 1], poly[i]) for i in range(len(poly))), Fraction(0))
    pts = tuple(_pt(p) for p in poly)
    assert _canonical(geo.signed_area2(pts), twice)
    assert _canonical(geo.area(pts), abs(twice) / 2)


# Rationals, values of Q(sqrt 2) (also written with sqrt 8) and, in
# `_MIXED` only, of Q(sqrt 3), whose products with sqrt 2 are tower elements.
_small = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60))


def _value(a, b, r):
    return cr.add(cr.const(a), cr.mul(cr.const(b), cr.sqrt(cr.const(r)))) if r else cr.const(a)


def _points(radicands):
    v = st.builds(_value, _small, _small, st.sampled_from(radicands))
    return st.tuples(v, v)


_MIXED = _points([0, 0, 2, 2, 8, 3])
_ONE_FIELD = _points([0, 0, 2, 2, 8])


def _old_cross(u, v):
    return cr.sub(cr.mul(u[0], v[1]), cr.mul(u[1], v[0]))


def _old_dot(u, v):
    return cr.add(cr.mul(u[0], v[0]), cr.mul(u[1], v[1]))


def _same_value(new, old) -> bool:
    # a tower element is keyed by its structure, and the kernels and the
    # composition combine the same operands in the same order
    return cr.exact_key(new) == cr.exact_key(old)


@settings(max_examples=200, deadline=None)
@given(_MIXED, _MIXED, st.lists(_MIXED, min_size=3, max_size=5))
def test_kernels_equal_the_expr_composition_on_any_field(a, b, poly):
    assert _same_value(geo.cross(a, b), _old_cross(a, b))
    assert _same_value(geo.dot(a, b), _old_dot(a, b))
    d = geo.sub2(a, b)
    assert _same_value(geo.dist2(a, b), _old_dot(d, d))
    old = cr.ZERO
    for i in range(len(poly)):
        old = cr.add(old, _old_cross(poly[i], poly[(i + 1) % len(poly)]))
    assert _same_value(geo.signed_area2(tuple(poly)), old)


_ODD_FIELDS = [cr.sqrt(cr.add(cr.ONE, cr.sqrt(cr.const(2)))),  # a tower value
               cr.sqrt(cr.const(1033)), cr.sqrt(cr.const(1031**2 * 1033))]


@settings(max_examples=200, deadline=None)
@given(_MIXED, _MIXED, st.sampled_from(_ODD_FIELDS))
def test_cmp_decides_one_field_as_field_does(a, b, odd):
    """`cmp` writes out `_field`'s test of one field: past the rational
    branch it composes a difference exactly when `_field` reads none."""
    for x, y in ((a[0], b[1]), (a[1], b[0]), (a[0], odd), (odd, b[1])):
        want = geo.sign(cr.sub(x, y))
        with mock.patch.object(cr, "sub", wraps=cr.sub) as sub:
            assert geo.cmp(x, y) == want
        composed = not (x.den and y.den) and geo._field(x, y) is None
        assert sub.called == composed


@settings(max_examples=200, deadline=None)
@given(_ONE_FIELD, _ONE_FIELD, _ONE_FIELD, st.booleans())
def test_equal_length_kernel_matches_dist2_on_quadratic_points(p, q, r, turned):
    # rationals and Q(sqrt 2) values, written with sqrt 2 or sqrt 8, mixed
    # in one call; one field, so every comparison is decided exactly
    u = geo.sub2(q, p)
    s = (cr.sub(r[0], u[1]), cr.add(r[1], u[0])) if turned else (q[1], r[0])
    assert geo.equal_length(p, q, r, s) == _equal_length_by_dist2(p, q, r, s)
    if turned:
        assert geo.equal_length(p, q, r, s)


def test_equal_length_builds_no_expr_on_rational_points(monkeypatch):
    """No value is built: neither through `Expr.__init__` nor by
    `cr.rational`, which allocates without it."""
    made = []
    init, rational = cr.Expr.__init__, cr.rational

    def counted_init(self, *args):
        made.append(args[0])
        init(self, *args)

    def counted_rational(n, d):
        made.append("rat")
        return rational(n, d)

    big = Fraction(3**150, 7**90)
    p, q = pt(big, -big), pt(-big, Fraction(1, 3))
    r, s = pt(0, 0), pt(Fraction(-1, 3) - big, -2 * big)  # q - p turned
    monkeypatch.setattr(cr.Expr, "__init__", counted_init)
    monkeypatch.setattr(cr, "rational", counted_rational)
    geo.dist2(p, q)
    assert made == ["rat"]  # the counters see a value that is built
    made.clear()
    assert geo.equal_length(p, q, r, s)
    assert not geo.equal_length(p, q, r, p)
    assert geo.equal_length(r, r, s, s)
    assert made == []


def test_kernels_build_no_fraction():
    run_without_fractions("""
        s2 = cr.sqrt(cr.const(2))
        rat = [(cr.rational(1, 3), cr.rational(-5, 7)), (cr.const(2), cr.rational(9, 4)),
               (cr.ZERO, cr.ZERO)]
        quad = [(cr.add(cr.ONE, s2), cr.rational(1, 2)), (s2, cr.mul(s2, s2))]
        for pts in (rat, quad + rat[:1]):
            a, b, c = pts
            for f in (geo.cross, geo.dot, geo.dist2):
                cr.refine_sign(f(a, b))
            geo.collinear(a, b, c)
            geo.right_angle(a, b, c)
            cr.refine_sign(geo.area(tuple(pts)))
        for n, d in ((6, -4), (0, 5), (7, 1)):
            cr.refine_sign(cr.rational(n, d))
    """)


def _rational_sites(tree: ast.AST) -> list[int]:
    """Lines that could build a rational `Expr`: a call given the class
    `Expr` itself (as `object.__new__(Expr)` is), and a store to a `den`
    of anything but the constant 0, which every quadratic and tower value
    has."""
    def is_expr(node):  # `Expr` or `cr.Expr`
        return (isinstance(node, ast.Name) and node.id == "Expr") or (
            isinstance(node, ast.Attribute) and node.attr == "Expr"
        )

    zero_stores = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) \
                and node.value.value == 0:
            zero_stores.update(map(id, node.targets))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(is_expr(a) for a in node.args):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "den" \
                and isinstance(node.ctx, ast.Store) and id(node) not in zero_stores:
            lines.append(node.lineno)
    return lines


def test_one_rational_constructor():
    """`rational` is the only place a rational `Expr` is built, and the
    geometry module computes without `Fraction`."""
    sites = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in _rational_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    tree = ast.parse((SRC / "constructible.py").read_text(encoding="utf-8"))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "rational"]
    assert sites and all(
        name == "constructible.py" and fn.lineno <= line <= fn.end_lineno for name, line in sites
    ), sites
    assert "Fraction(" not in (SRC / "geometry.py").read_text(encoding="utf-8")


def test_rational_sites_catch_a_rational_built_elsewhere():
    for text in ("e = object.__new__(Expr)", "e = _new(cr.Expr)", "e.den = d",
                 "self.num, self.den = n, d", "x.den = 1", "x.den += 1"):
        assert _rational_sites(ast.parse(text)), text
    for text in ("Expr((a, b, r), None)", "self.num = self.den = 0", "d = x.den"):
        assert _rational_sites(ast.parse(text)) == [], text


def _named(tree: ast.AST) -> set[str]:
    """Every name a module reads, binds, imports or reaches as an
    attribute, the attribute as `value.attr` when its value is a name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
            if isinstance(node.value, ast.Name):
                out.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


_RAW_GEOMETRY = {"geo.sub2", "geo.dot", "geo.cross", "geo.dist2", "geo.sign"}


def test_identity_is_decided_by_value():
    """Only `constructible`, which orders tower radicals by it, and `svgout`,
    which memoizes coordinate text by it, name `exact_key`; and the rules
    reach coordinates only through geometry's exact predicates."""
    named = {path.name: _named(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert {name for name, names in named.items() if "exact_key" in names} == {
        "constructible.py", "svgout.py"}
    assert not named["rules.py"] & _RAW_GEOMETRY
    assert "from .geometry import" not in (SRC / "rules.py").read_text(encoding="utf-8")
    imported = _named(ast.parse("from .geometry import dot\nfrom x import exact_key"))
    assert {"dot", "exact_key"} <= imported
    assert _named(ast.parse("geo.sign(geo.dot(u, v))")) & _RAW_GEOMETRY == {"geo.sign", "geo.dot"}


_STORAGE = {"num", "den", "rat", "quad"}


def _reads_storage(tree: ast.AST) -> bool:
    """The module reads a value's `num`, `den`, `rat` or `quad`."""
    return any(isinstance(node, ast.Attribute) and node.attr in _STORAGE
               for node in ast.walk(tree))


def test_only_the_number_modules_read_how_a_number_is_stored():
    """Only `constructible` and `geometry` know how a number is stored: no
    other module reads a value's `num`, `den`, `rat` or `quad`, so
    `diagram` and the rules deal in points, lengths and boxes."""
    readers = {path.name for path in sorted(SRC.glob("*.py"))
               if _reads_storage(ast.parse(path.read_text(encoding="utf-8")))}
    assert readers == {"constructible.py", "geometry.py"}
    for text in ("e.num", "x[0].den", "inst.point(a).rat", "v.quad"):
        assert _reads_storage(ast.parse(text)), text
    assert not _reads_storage(ast.parse("quad = cmd.q; num = den = rat = 1"))


# -- the construction kernels `geo.meet` and `geo.length` ----------------


def _old_meet(p, x, y, u, v):
    # the composition `geo.meet` replaced on rational input
    d, du = geo.sub2(y, x), geo.sub2(v, u)
    den = _old_cross(d, du)
    if geo.sign(den) == 0:
        raise NoIntersection("lines are parallel")
    t = cr.div(_old_cross(geo.sub2(u, p), du), den)
    return (cr.add(p[0], cr.mul(t, d[0])), cr.add(p[1], cr.mul(t, d[1])))


def _meets_alike(p, x, y, u, v):
    try:
        old = _old_meet(p, x, y, u, v)
    except NoIntersection:
        with pytest.raises(NoIntersection, match="^lines are parallel$"):
            geo.meet(p, x, y, u, v)
        return None
    new = geo.meet(p, x, y, u, v)
    assert all(_same_value(a, b) for a, b in zip(new, old))
    return new


def _shift(u, s, x, y):
    """u + s*(y - x): v puts the line uv parallel to xy."""
    return (cr.add(u[0], cr.mul(s, cr.sub(y[0], x[0]))), cr.add(u[1], cr.mul(s, cr.sub(y[1], x[1]))))


@settings(max_examples=300, deadline=None)
@given(st.lists(_fpoints, min_size=5, max_size=5), _fracs, st.booleans())
def test_meet_kernel_equals_the_composition_on_rationals(pts, s, parallel):
    p, x, y, u, v = [_pt(c) for c in pts]
    if parallel:
        v = _shift(u, cr.const(s), x, y)
    new = _meets_alike(p, x, y, u, v)
    if parallel:
        assert new is None
    if new is not None:
        assert all(_canonical(c, Fraction(c.num, c.den)) for c in new)
    # the form `intersect ... x line` uses: p = x
    _meets_alike(x, x, y, u, v)


@settings(max_examples=150, deadline=None)
@given(st.lists(_MIXED, min_size=5, max_size=5), _small, st.booleans())
def test_meet_equals_the_composition_on_any_field(pts, s, parallel):
    p, x, y, u, v = pts
    if parallel:
        v = _shift(u, cr.const(s), x, y)
    new = _meets_alike(p, x, y, u, v)
    if parallel:
        assert new is None


def _old_length(p, q):
    dx, dy = cr.sub(q[0], p[0]), cr.sub(q[1], p[1])
    if geo.sign(dx) == 0:
        return dy if geo.sign(dy) >= 0 else cr.sub(cr.ZERO, dy)
    if geo.sign(dy) == 0:
        return dx if geo.sign(dx) >= 0 else cr.sub(cr.ZERO, dx)
    return cr.sqrt(_old_dot((dx, dy), (dx, dy)))


def _lengths_alike(p, q, t):
    # pq, and the axis sides from p to (p.x, t) and to (t, p.y)
    for a, b in ((p, q), (p, (p[0], t)), (p, (t, p[1])), (p, p)):
        new = geo.length(a, b)
        assert _same_value(new, _old_length(a, b))
        assert geo.sign(new) >= 0


@settings(max_examples=300, deadline=None)
@given(_fpoints, _fpoints, _fracs)
def test_length_kernel_equals_the_composition_on_rationals(p, q, t):
    _lengths_alike(_pt(p), _pt(q), cr.const(t))
    assert _canonical(geo.length(_pt(p), _pt((p[0], t))), abs(t - p[1]))


@settings(max_examples=300, deadline=None)
@given(_fpoints, _fpoints, _fracs, _fracs.filter(bool))
def test_along_matches_fraction_on_rationals(start, p, d, s):
    # pq along an axis and along (3, 4), so |pq| = 5|s| is rational and
    # every input of `along` is: its rational kernel
    for u in ((s, 0), (0, s), (3 * s, 4 * s)):
        q, pq = (p[0] + u[0], p[1] + u[1]), abs(s) * (5 if u[0] and u[1] else 1)
        want = (start[0] + d / pq * u[0], start[1] + d / pq * u[1])
        for n in (geo.along(_pt(start), _pt(p), _pt(q), cr.const(d)),
                  geo.along(_pt(start), _pt(p), _pt(q), cr.const(d), cr.const(pq))):
            assert _canonical(n[0], want[0]) and _canonical(n[1], want[1])


@settings(max_examples=150, deadline=None)
@given(_ONE_FIELD, _ONE_FIELD, _ONE_FIELD)
def test_length_equals_the_composition_on_quadratic_points(p, q, t):
    _lengths_alike(p, q, t[0])


def _old_area(poly):
    a2 = cr.ZERO
    for i in range(len(poly)):
        a2 = cr.add(a2, _old_cross(poly[i], poly[(i + 1) % len(poly)]))
    if geo.sign(a2) < 0:
        a2 = cr.sub(cr.ZERO, a2)
    return cr.div(a2, cr.const(2))


@settings(max_examples=200, deadline=None)
@given(st.lists(_fpoints, min_size=3, max_size=6), st.lists(_MIXED, min_size=3, max_size=5))
def test_area_and_neg_equal_the_composition(rat_poly, poly):
    for pts in (tuple(_pt(c) for c in rat_poly), tuple(poly)):
        area = geo.area(pts)
        assert _same_value(area, _old_area(pts))
        for x in (area, geo.signed_area2(pts), *pts[0]):
            assert _same_value(cr.neg(x), cr.sub(cr.ZERO, x))
            if x.den:
                assert _canonical(cr.neg(x), -Fraction(x.num, x.den))


def _old_along(start, p, q, d):
    scale = cr.div(d, _old_length(p, q))
    return tuple(cr.add(start[i], cr.mul(scale, cr.sub(q[i], p[i]))) for i in (0, 1))


def _old_line_circle(p, q, center, radius2, above):
    # the reference: both roots by `Expr` arithmetic, then the higher or lower point
    d, pc = geo.sub2(q, p), geo.sub2(p, center)
    a = _old_dot(d, d)
    b = cr.mul(cr.const(2), _old_dot(d, pc))
    c = cr.sub(_old_dot(pc, pc), radius2)
    disc = cr.sub(cr.mul(b, b), cr.mul(cr.const(4), cr.mul(a, c)))
    sd = geo.sign(disc)
    if sd < 0:
        raise NoIntersection("line misses the circle")
    if sd == 0:
        roots = [cr.div(cr.neg(b), cr.mul(cr.const(2), a))]
    else:
        rt, two_a = cr.sqrt(disc), cr.mul(cr.const(2), a)
        roots = [cr.div(cr.sub(rt, b), two_a), cr.div(cr.sub(cr.neg(rt), b), two_a)]
    cands = [(cr.add(p[0], cr.mul(t, d[0])), cr.add(p[1], cr.mul(t, d[1]))) for t in roots]
    if len(cands) == 1:
        return cands[0]
    c0, c1 = cands
    upper = c0 if geo.sign(cr.sub(c0[1], c1[1])) > 0 else c1
    return upper if above else (c1 if upper is c0 else c0)


def _same_point(new, old) -> bool:
    return all(_same_value(a, b) for a, b in zip(new, old))


@settings(max_examples=200, deadline=None)
@given(_ONE_FIELD, _ONE_FIELD, _ONE_FIELD, _small)
def test_predicate_kernels_equal_the_expr_composition(a, b, c, t):
    # one quadratic field, so every kernel takes its triple path and every
    # sign below is decided exactly; besides c, a point on the line ab and
    # one on the perpendicular to ab at a
    assert geo._field(*a, *b, *c) is not None
    t = cr.const(t)
    u = geo.sub2(b, a)
    on_line = (cr.add(a[0], cr.mul(t, u[0])), cr.add(a[1], cr.mul(t, u[1])))
    square = (cr.sub(a[0], cr.mul(t, u[1])), cr.add(a[1], cr.mul(t, u[0])))
    for x, y in ((a[0], b[1]), (a[0], a[0]), (b[1], cr.add(b[1], t))):
        assert geo.cmp(x, y) == geo.sign(cr.sub(x, y))
    assert _same_value(geo.dot(a, b), _old_dot(a, b))
    assert _same_value(geo.dist2(a, b), _old_dot(u, u))
    assert _same_value(geo.box_area((*a, *b)), cr.mul(u[0], u[1]))
    for p in (c, on_line, square):
        pa = geo.sub2(p, a)
        assert geo.collinear(a, b, p) == (geo.sign(_old_cross(u, pa)) == 0)
        assert geo.angle_sign(a, b, p) == geo.sign(_old_dot(u, pa))
        assert geo.right_angle(a, b, p) == (geo.sign(_old_dot(u, pa)) == 0)
        assert geo.equal_length(a, b, a, p) == (geo.cmp(_old_dot(u, u), _old_dot(pa, pa)) == 0)
    _meets_alike(c, a, b, on_line, square)
    if not geo.pts_equal(a, b):
        assert _same_point(geo.along(c, a, b, t), _old_along(c, a, b, t))
        assert _same_point(geo.along(c, a, b, t, geo.length(a, b)), _old_along(c, a, b, t))


def _circles_alike(p, q, center, radius2):
    for above in (True, False):
        try:
            old = _old_line_circle(p, q, center, radius2, above)
        except NoIntersection:
            with pytest.raises(NoIntersection, match="^line misses the circle$"):
                geo.line_circle(p, q, center, radius2, above)
            continue
        assert _same_point(geo.line_circle(p, q, center, radius2, above), old)


@settings(max_examples=200, deadline=None)
@given(st.lists(_fpoints, min_size=4, max_size=4), st.sampled_from(["through", "tangent", "any"]))
def test_line_circle_equals_the_composition_on_rationals(pts, kind):
    # the line pq through a point m of the circle about c, or tangent to it
    # there, or any line and radius
    p, q, c, m = [_pt(x) for x in pts]
    if geo.pts_equal(p, q):
        return
    radius2 = geo.dist2(c, m)
    if kind != "any":
        p = m
        if kind == "tangent":
            w = geo.sub2(m, c)
            q = (cr.sub(m[0], w[1]), cr.add(m[1], w[0]))
        if geo.pts_equal(p, q):
            return
    _circles_alike(p, q, c, radius2)
    # a horizontal line, whose two points have one y
    _circles_alike(p, (cr.add(p[0], cr.ONE), p[1]), c, radius2)


@settings(max_examples=100, deadline=None)
@given(st.lists(_MIXED, min_size=4, max_size=4))
def test_line_circle_equals_the_composition_on_any_field(pts):
    p, q, c, m = pts
    for a in (p, m):
        if not geo.pts_equal(a, q):
            _circles_alike(a, q, c, geo.dist2(c, m))


def test_two_fields_and_towers_take_the_composed_path():
    """Values of one field under two radicands, values of two fields, and
    tower values are no one-field input: `_field` reads none of them, and
    the kernels, composing `Expr` arithmetic, still equal the composition."""
    # 1031 and 1033 are primes above the trial bound, so the radicand of
    # sqrt(1031^2 * 1033) keeps its square factor
    s2, s3, q, q2 = (cr.sqrt(cr.const(n)) for n in (2, 3, 1033, 1031**2 * 1033))
    assert (q.q[3], q2.q[3]) == (1033, 1031**2 * 1033)
    tower = cr.sqrt(cr.add(cr.ONE, s2))
    cases = [
        ((cr.add(cr.ONE, q), cr.ZERO), (q2, cr.ONE), (cr.ONE, cr.ZERO)),
        ((s2, cr.rational(1, 2)), (cr.ZERO, s3), (s3, s2)),
        ((tower, cr.ONE), (cr.ZERO, cr.ONE), (cr.ONE, cr.ZERO)),
    ]
    for a, b, c in cases:
        assert geo._field(*a, *b, *c) is None
        u, w = geo.sub2(b, a), geo.sub2(c, a)
        assert geo.cmp(a[0], b[0]) == geo.sign(cr.sub(a[0], b[0]))
        assert _same_value(geo.dot(a, b), _old_dot(a, b))
        assert _same_value(geo.dist2(a, b), _old_dot(u, u))
        assert _same_value(geo.box_area((*a, *b)), cr.mul(u[0], u[1]))
        assert geo.collinear(a, b, c) == (geo.sign(_old_cross(u, w)) == 0)
        assert geo.right_angle(a, b, c) == (geo.sign(_old_dot(u, w)) == 0)
        assert not geo.equal_length(a, b, a, c)
        _lengths_alike(a, b, cr.ONE)
        _meets_alike(c, a, b, b, c)
        assert _same_point(geo.along(c, a, b, cr.ONE), _old_along(c, a, b, cr.ONE))
        _circles_alike(a, b, c, cr.const(9))


def test_one_field_kernels_build_only_their_results(monkeypatch):
    """On one-field input a predicate builds no value and a construction
    builds only its result: neither through `Expr.__init__` nor by
    `cr.rational`.  The line-circle meet also builds its discriminant and
    that root."""
    made = []
    init, rational = cr.Expr.__init__, cr.rational

    def counted_init(self, *args):
        made.append(args[0])
        init(self, *args)

    def counted_rational(n, d):
        made.append("rat")
        return rational(n, d)

    s5 = cr.sqrt(cr.const(5))
    a = (cr.add(cr.ONE, s5), cr.rational(1, 2))
    b = (cr.rational(-2, 3), cr.mul(s5, cr.rational(3, 4)))
    c = (cr.add(cr.rational(1, 2), s5), cr.mul(cr.const(2), s5))
    axis = (a[0], cr.add(s5, cr.const(3)))
    rat = [(cr.rational(n, 7), cr.rational(m, 5)) for n, m in ((1, 2), (-3, 4), (2, -1))]
    four, pq = cr.const(4), geo.length(a, axis)
    monkeypatch.setattr(cr.Expr, "__init__", counted_init)
    monkeypatch.setattr(cr, "rational", counted_rational)
    built = {}
    for name, run in [
        ("cmp", lambda: geo.cmp(a[0], c[1])),
        ("pts_equal", lambda: geo.pts_equal(a, c)),
        ("equal_length", lambda: geo.equal_length(a, b, a, c)),
        ("collinear", lambda: geo.collinear(a, b, c)),
        ("right_angle", lambda: geo.right_angle(a, b, c)),
        ("dot", lambda: geo.dot(a, b)),
        ("dist2", lambda: geo.dist2(a, b)),
        ("box_area", lambda: geo.box_area((*a, *c))),
        ("length", lambda: geo.length(a, axis)),
        ("meet", lambda: geo.meet(c, a, b, axis, (cr.ZERO, cr.ZERO))),
        ("along", lambda: geo.along(c, a, axis, b[1], pq)),
        ("line_circle", lambda: geo.line_circle(*rat[:2], rat[2], four, True)),
    ]:
        made.clear()
        run()
        built[name] = len(made)
    assert built == {"cmp": 0, "pts_equal": 0, "equal_length": 0, "collinear": 0,
                     "right_angle": 0, "dot": 1, "dist2": 1, "box_area": 1, "length": 1,
                     "meet": 2, "along": 2, "line_circle": 4}
