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


@settings(max_examples=200, deadline=None)
@given(_ONE_FIELD, _ONE_FIELD, _ONE_FIELD, _small)
def test_predicate_kernels_equal_the_expr_composition(a, b, c, t):
    # one quadratic field, so every sign below is decided exactly; besides
    # c, a point on the line ab and one on the perpendicular to ab at a
    t = cr.const(t)
    u = geo.sub2(b, a)
    on_line = (cr.add(a[0], cr.mul(t, u[0])), cr.add(a[1], cr.mul(t, u[1])))
    square = (cr.sub(a[0], cr.mul(t, u[1])), cr.add(a[1], cr.mul(t, u[0])))
    for p in (c, on_line, square):
        pa = geo.sub2(p, a)
        assert geo.collinear(a, b, p) == (geo.sign(_old_cross(u, pa)) == 0)
        assert geo.right_angle(a, b, p) == (geo.sign(_old_dot(u, pa)) == 0)


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
