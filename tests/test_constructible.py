import decimal
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from euclid2 import constructible as cr
from euclid2 import corpusdata, rules
from euclid2 import geometry as geo
from euclid2 import oracle as orc
from euclid2 import script as sc
from helpers import all_entries, negative_entries, refine_to_width, run_without_fractions


def golden():
    return cr.div(cr.sub(cr.sqrt(cr.const(5)), cr.ONE), cr.const(2))


def test_golden_is_exact_quadratic():
    f = golden()
    assert f.quad == (Fraction(-1, 2), Fraction(1, 2), 5)


def test_golden_polynomial_zero_is_symbolic():
    f = golden()
    z = cr.sub(cr.add(cr.mul(f, f), f), cr.ONE)
    assert z.rat == 0
    assert cr.refine_sign(z) == 0


def test_sqrt2_squared_minus_two_is_zero():
    s2 = cr.sqrt(cr.const(2))
    assert cr.refine_sign(cr.sub(cr.mul(s2, s2), cr.const(2))) == 0


def test_exact_rational_zero():
    third = cr.const(Fraction(1, 3))
    assert cr.refine_sign(cr.sub(third, third)) == 0


def test_golden_minus_three_fifths_positive():
    assert cr.refine_sign(cr.sub(golden(), cr.const(Fraction(3, 5)))) == 1


def test_interval_width_target():
    lo, hi = refine_to_width(golden(), Fraction(1, 10**20))
    assert hi - lo <= Fraction(1, 10**20)
    target = Fraction(61803398874989484820, 10**20)
    assert lo - Fraction(1, 10**20) <= target <= hi + Fraction(1, 10**20)


def test_radicand_normalization_shares_field():
    # sqrt(20) = 2*sqrt(5): the difference folds to an exact zero
    d = cr.sub(cr.sqrt(cr.const(20)), cr.mul(cr.const(2), cr.sqrt(cr.const(5))))
    assert cr.refine_sign(d) == 0


def test_nested_radical_falls_back_to_intervals():
    # a tower element at height 2, 0 + 1*sqrt(1 + sqrt 2); its interval is
    # for display only
    n = cr.sqrt(cr.add(cr.ONE, cr.sqrt(cr.const(2))))
    assert n.den == 0 and n.quad is None and n.q is None
    assert cr.refine_sign(cr.sub(n, cr.ONE)) == 1
    lo, hi = n.interval(128)
    assert lo < hi < lo + Fraction(1, 2**120)
    assert cr.refine_sign(cr.sub(n, cr.const(lo))) == cr.refine_sign(cr.sub(cr.const(hi), n)) == 1


def test_equal_radical_constructions_share_one_node():
    def nested():
        return cr.sqrt(cr.add(cr.const(1), cr.sqrt(cr.const(2))))

    a, b = nested(), nested()
    assert cr.refine_sign(cr.sub(a, b)) == 0
    assert cr.exact_key(a) == cr.exact_key(b)


def test_commuted_operands_share_one_node():
    s2, s3 = cr.sqrt(cr.const(2)), cr.sqrt(cr.const(3))
    for op in (cr.add, cr.mul):
        assert cr.exact_key(op(s2, s3)) == cr.exact_key(op(s3, s2))
    # |pq| for p = (sqrt2, sqrt3), q = (1, 1), and the same segment turned a
    # quarter about r = (0, 0): (1-sqrt2)^2 + (1-sqrt3)^2 against
    # (sqrt3-1)^2 + (1-sqrt2)^2, summed in the other order
    p, q, r = (s2, s3), (cr.ONE, cr.ONE), (cr.ZERO, cr.ZERO)
    s = (cr.sub(s3, cr.ONE), cr.sub(cr.ONE, s2))
    assert geo.cmp(geo.dist2(p, q), geo.dist2(r, s)) == 0
    assert geo.equal_length(p, q, r, s)


def test_no_global_state_survives_check_and_oracle():
    for entry in all_entries() + negative_entries():
        script = sc.parse_script(corpusdata.read_script_text(entry["file"]))
        rules.check_proof(script, profile=entry["profile"])
        orc.check_numeric_detailed(script.diorismos, script, samples=3)
    held = cr.sqrt(cr.add(cr.const(2), cr.sqrt(cr.const(3))))
    assert held.den == 0 and held.q is None
    # no value is interned: the table the benchmark reads stays empty
    assert len(cr.Expr._table) == 0


def test_shared_order_separates_values_a_double_cannot():
    eps = Fraction(1, 2**60)
    one, above = cr.ONE, cr.const(1 + eps)
    assert float(above.rat) == float(one.rat)
    assert [v.rat for v in sorted([above, one], key=geo.by_value)] == [1, 1 + eps]
    assert min([above, one], key=geo.by_value) is one
    assert max([one, above], key=geo.by_value) is above


def test_undecidable_at_budget():
    # sqrt(2+sqrt2)*sqrt(2-sqrt2) equals sqrt(2), which intervals could never
    # separate from it; the sign recursion finds the exact zero
    s2 = cr.sqrt(cr.const(2))
    prod = cr.mul(
        cr.sqrt(cr.add(cr.const(2), s2)), cr.sqrt(cr.sub(cr.const(2), s2))
    )
    z = cr.sub(prod, s2)
    assert z.den == 0 and z.quad is None
    assert cr.refine_sign(z) == 0


def test_radical_in_the_field_below_divides_exactly():
    # sqrt(3 + 2*sqrt2) is 1 + sqrt2, a radical that lies in the field
    # below it, so c + d*sqrt(r) has the norm c*c - d*d*r = 0
    s2 = cr.sqrt(cr.const(2))
    c, root = cr.add(cr.ONE, s2), cr.sqrt(cr.add(cr.const(3), cr.mul(cr.const(2), s2)))
    assert root.den == 0 and root.q is None
    x = cr.add(cr.const(5), cr.sqrt(cr.const(3)))
    with pytest.raises(ZeroDivisionError, match="division by exact zero"):
        cr.div(x, cr.sub(root, c))
    with pytest.raises(ZeroDivisionError, match="division by exact zero"):
        cr.div(x, cr.sub(c, root))
    q = cr.div(x, cr.add(root, c))  # y = 2c
    assert cr.refine_sign(cr.sub(q, cr.div(x, cr.add(c, c)))) == 0
    assert cr.exact_key(cr.sqrt(cr.sub(root, c))) == cr.exact_key(cr.ZERO)


def test_division_by_exact_zero_raises():
    with pytest.raises(ZeroDivisionError):
        cr.div(cr.ONE, cr.sub(cr.const(2), cr.const(2)))


_big = st.integers(-(10**30), 10**30)
_rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(max_denominator=10**12),
    st.builds(Fraction, _big, st.integers(1, 10**30)),
    _big.map(Fraction),
)


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals)
def test_rational_arithmetic_is_fraction_arithmetic(p, q):
    a, b = cr.const(p), cr.const(q)
    assert cr.add(a, b).rat == p + q
    assert cr.sub(a, b).rat == p - q
    assert cr.mul(a, b).rat == p * q
    if q == 0:
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            cr.div(a, b)
    else:
        assert cr.div(a, b).rat == p / q


def _canonical(e) -> bool:
    """num/den in lowest terms with den > 0, so zero is 0/1."""
    return e.den > 0 and math.gcd(e.num, e.den) == 1


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals)
def test_integer_pair_core_is_canonical_and_agrees_with_fraction(p, q):
    a, b = cr.const(p), cr.const(q)
    results = [a, b, cr.add(a, b), cr.sub(a, b), cr.mul(a, b), cr.neg(a)]
    if q != 0:
        results.append(cr.div(a, b))
    assert all(_canonical(e) for e in results)
    assert (cr.exact_key(a) == cr.exact_key(b)) == (p == q)
    assert geo.cmp(a, b) == (p > q) - (p < q)
    assert cr.refine_sign(a) == (p > 0) - (p < 0)
    # the same value built by another route has the same key
    assert cr.exact_key(cr.sub(cr.add(a, b), b)) == cr.exact_key(a)
    if q != 0:
        assert cr.exact_key(cr.mul(cr.div(a, b), b)) == cr.exact_key(a)


def test_exact_key_is_the_value_whatever_the_route():
    half = cr.const(Fraction(1, 2))
    assert cr.exact_key(cr.add(half, half)) == cr.exact_key(cr.ONE)
    assert cr.exact_key(cr.div(cr.const(-2), cr.const(-4))) == cr.exact_key(half)
    assert cr.exact_key(cr.sub(half, half)) == cr.exact_key(cr.ZERO) == ("r", 0, 1)
    assert cr.exact_key(cr.div(cr.const(3), cr.const(-6))) == ("r", -1, 2)


def _in_q2(e, a, b):
    """e carries the value a + b*sqrt(2): as a quadratic form, or as a
    rational when b = 0."""
    return (e.quad, e.rat) == (((a, b, 2), None) if b != 0 else (None, a))


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, _rationals.filter(lambda b: b != 0))
def test_mixed_rational_and_quadratic_arithmetic_matches_fraction(p, a, b):
    r, w = cr.const(p), cr.add(cr.const(a), cr.mul(cr.const(b), cr.sqrt(cr.const(2))))
    assert _in_q2(w, a, b)
    assert _in_q2(cr.add(r, w), p + a, b) and _in_q2(cr.add(w, r), a + p, b)
    assert _in_q2(cr.sub(r, w), p - a, -b) and _in_q2(cr.sub(w, r), a - p, b)
    assert _in_q2(cr.mul(r, w), p * a, p * b) and _in_q2(cr.mul(w, r), a * p, b * p)
    norm = a * a - 2 * b * b  # nonzero: sqrt(2) is irrational
    assert _in_q2(cr.div(r, w), p * a / norm, -p * b / norm)
    if p != 0:
        assert _in_q2(cr.div(w, r), a / p, b / p)


def _canonical_quad(e) -> bool:
    """(an + bn*sqrt(r))/d with d > 0, bn != 0, gcd(an, bn, d) = 1 and r not
    a perfect square; or a canonical rational."""
    if e.den:
        return e.q is None and _canonical(e)
    an, bn, d, r = e.q
    return d > 0 and bn != 0 and math.gcd(an, bn, d) == 1 and math.isqrt(r) ** 2 != r


def _reference(kind, x, y):
    """x op y on (a, b, r) `Fraction` triples, by the formulas of the
    `Fraction`-coefficient field: None for mixed radicands."""
    a1, b1, r1 = x
    a2, b2, r2 = y
    r = r1 or r2
    if r1 and r2 and r1 != r2:
        t = math.isqrt(r1 * r2)
        if t * t != r1 * r2:
            return None
        if r1 < r2:
            b2 = b2 * Fraction(t, r1)
        else:
            r, b1 = r2, b1 * Fraction(t, r2)
    if kind == "add":
        return a1 + a2, b1 + b2, r
    if kind == "sub":
        return a1 - a2, b1 - b2, r
    if kind == "mul":
        return a1 * a2 + b1 * b2 * r, a1 * b2 + a2 * b1, r
    norm = a2 * a2 - b2 * b2 * r
    return (a1 * a2 - b1 * b2 * r) / norm, (b1 * a2 - a1 * b2) / norm, r


def _triple(e):
    return e.quad or (e.rat, Fraction(0), 0)


# 2, 8, 18 and 50 share the field of sqrt(2) and 3 does not; 65537 and
# 1031**2 * 65537 (whose square factor trial division leaves) share one
# field through the rescale of the larger radicand
_radicands = st.sampled_from([2, 8, 18, 50, 3, 65537, 1031 * 1031 * 65537])
_small = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@st.composite
def _field_values(draw):
    """A rational or a + b*sqrt(R) for one of `_radicands`."""
    a = cr.const(draw(_small))
    if draw(st.booleans()):
        return a
    b, root = draw(_small), cr.sqrt(cr.const(draw(_radicands)))
    return cr.add(a, cr.mul(cr.const(b), root))


@settings(max_examples=300, deadline=None)
@given(_field_values(), _field_values())
def test_quadratic_arithmetic_is_canonical_and_matches_fraction_formulas(x, y):
    assert _canonical_quad(x) and _canonical_quad(y)
    zero = _reference("sub", _triple(x), _triple(y))
    equal = zero is not None and zero[0] == zero[1] == 0
    assert (cr.exact_key(x) == cr.exact_key(y)) == equal
    for kind in ("add", "sub", "mul", "div"):
        if kind == "div" and _is_exact_zero(y):
            with pytest.raises(ZeroDivisionError, match="division by exact zero"):
                cr.div(x, y)
            continue
        z = getattr(cr, kind)(x, y)
        ref = _reference(kind, _triple(x), _triple(y))
        if ref is None:  # mixed radicands: a tower element
            assert z.den == 0 and z.q is None
            continue
        assert _canonical_quad(z)
        a, b, r = ref
        assert (z.quad, z.rat) == (((a, b, r), None) if b != 0 else (None, a))
    if zero is not None:  # one field: the same value by another route has one key
        assert cr.exact_key(cr.sub(cr.add(x, y), y)) == cr.exact_key(x)
        if not _is_exact_zero(y):
            assert cr.exact_key(cr.mul(cr.div(x, y), y)) == cr.exact_key(x)
    with pytest.raises(ZeroDivisionError, match="division by exact zero"):
        cr.div(x, cr.sub(y, y))


@settings(max_examples=200, deadline=None)
@given(_field_values())
def test_quadratic_interval_encloses_the_value(x):
    for bits in (64, 128):
        lo, hi = x.interval(bits)
        assert hi - lo <= Fraction(3, 2**bits)
        assert cr.refine_sign(cr.sub(x, cr.const(lo))) >= 0
        assert cr.refine_sign(cr.sub(cr.const(hi), x)) >= 0


def test_radicands_of_one_field_share_keys():
    s2 = cr.sqrt(cr.const(2))
    for n, k in ((8, 2), (18, 3), (50, 5)):
        assert cr.sqrt(cr.const(n)).q == (0, k, 1, 2)
        assert cr.exact_key(cr.sqrt(cr.const(n))) == cr.exact_key(cr.mul(cr.const(k), s2))
    big = cr.sqrt(cr.const(1031 * 1031 * 65537))
    assert big.q == (0, 1, 1, 1031 * 1031 * 65537)
    small = cr.sqrt(cr.const(65537))
    # the larger radicand is rewritten in terms of the smaller one
    assert cr.add(big, small).q == cr.add(small, big).q == (0, 1032, 1, 65537)


def test_quadratic_path_builds_no_fraction():
    run_without_fractions("""
        values = [
            cr.add(cr.rational(1, 3), cr.sqrt(cr.const(2))),
            cr.mul(cr.rational(-5, 7), cr.sqrt(cr.const(8))),
            cr.sub(cr.rational(9, 4), cr.sqrt(cr.const(18))),
            cr.rational(2, 9),
        ]
        values.append(cr.sqrt(cr.const(50)))
        for x in values:
            for y in values:
                for op in (cr.add, cr.sub, cr.mul, cr.div):
                    z = op(x, y)
                    cr.refine_sign(z)
                    cr.exact_key(z)
                geo.cmp(x, y)
        try:  # the views are where a Fraction is built
            values[0].quad
        except ImportError:
            pass
        else:
            raise AssertionError("the quad view built no Fraction")
    """)


# primes above the trial-division bound: the square of one stays inside a
# radicand whose cofactor is not a perfect square
_large_primes = st.sampled_from([1031, 65537, 1000003, 1000000007])
_cofactors = st.one_of(_large_primes, st.integers(1, 60))


def _is_exact_zero(e) -> bool:
    return e.den != 0 and e.num == 0


def test_radicand_keeps_a_large_square_factor():
    n = 1031 * 1031 * 65537 * 1000003
    assert cr.sqrt(cr.const(n)).quad == (0, 1, n)
    assert cr.sqrt(cr.const(1031 * 1031)).rat == 1031
    assert cr.sqrt(cr.const(Fraction(7, 1031 * 1031))).quad == (0, Fraction(1, 1031), 7)


@settings(max_examples=200, deadline=None)
@given(_large_primes, _cofactors, _cofactors)
def test_equal_values_share_a_key_whatever_square_the_radicand_keeps(p, q, s):
    big = cr.sqrt(cr.const(p * p * q * s))
    small = cr.sqrt(cr.const(q * s))
    pairs = [
        (big, cr.mul(cr.const(p), small)),
        (cr.div(big, cr.const(p)), small),  # keys reduce b*b*r by gcd(r, den(b)**2)
    ]
    for x, y in pairs:
        assert cr.exact_key(x) == cr.exact_key(y)
        assert _is_exact_zero(cr.sub(x, y)) and _is_exact_zero(cr.sub(y, x))
        assert cr.exact_key(cr.add(x, cr.ONE)) == cr.exact_key(cr.add(cr.ONE, y))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        _rationals.map(abs),
        st.builds(lambda p, q, s: Fraction(p * p * q, s), _large_primes, _cofactors, _cofactors),
    )
)
def test_square_of_a_square_root_is_the_rational(x):
    root = cr.sqrt(cr.const(x))
    assert cr.exact_key(cr.mul(root, root)) == cr.exact_key(cr.const(x))


def _sign_reference(a: Fraction, b: Fraction, r: int) -> int:
    """sign(a + b*sqrt(r)) from one integer square root: scaled by the
    denominators it is A + B*sqrt(r), and isqrt(B*B*r) brackets |B|*sqrt(r)."""
    A, B = a.numerator * b.denominator, b.numerator * a.denominator
    m = math.isqrt(B * B * r)
    if m * m == B * B * r:
        v = A + (m if B > 0 else -m)
        return (v > 0) - (v < 0)
    if B > 0:  # m < B*sqrt(r) < m + 1
        return 1 if m >= -A else -1
    return 1 if m < A else -1


@settings(max_examples=300, deadline=None)
@given(_rationals, _rationals, _large_primes, _cofactors, _cofactors)
def test_refine_sign_agrees_with_an_isqrt_reference(a, b, p, q, s):
    r = p * p * q * s
    v = cr.add(cr.const(a), cr.mul(cr.const(b), cr.sqrt(cr.const(r))))
    assert v.den != 0 or v.quad is not None
    assert cr.refine_sign(v) == _sign_reference(a, b, r)
    # a value next to a + b*sqrt(r): the rational floor of b*sqrt(r) * 2**40
    if b != 0:
        near = Fraction(math.isqrt(int(b * b * r * 2**80)), 2**40) * (1 if b > 0 else -1)
        w = cr.sub(v, cr.const(a + near))
        assert cr.refine_sign(w) == _sign_reference(-near, b, r)


@settings(max_examples=200, deadline=None)
@given(_large_primes, st.sampled_from([2, 3, 6, 1031, 65537]), _large_primes)
def test_radicands_of_different_fields_still_give_a_radical_node(p, q, s):
    # p*p*q and q*s share a field only when their product p*p*q*q*s is a
    # square, and a prime s never makes it one
    assume(q != s)
    x, y = cr.sqrt(cr.const(p * p * q)), cr.sqrt(cr.const(q * s))
    for z in (cr.add(x, y), cr.sub(x, y), cr.mul(x, y), cr.div(x, y)):
        assert z.den == 0 and z.quad is None and z.q is None
    # a tower value back in one quadratic field takes its four-int form
    assert cr.sub(cr.add(x, y), x).q == y.q


@st.composite
def _values(draw):
    """A rational, a Q(sqrt r) value, or a tower element (degree 4 over Q)."""
    q = draw(st.fractions(min_value=-5, max_value=5, max_denominator=10**6))
    kind = draw(st.sampled_from(["rat", "quad", "node"]))
    if kind == "rat":
        return cr.const(q)
    r = cr.sqrt(cr.const(draw(st.sampled_from([2, 3, 5]))))
    if kind == "quad":
        return cr.add(cr.const(q), cr.mul(cr.const(draw(st.integers(-3, 3))), r))
    k = draw(st.integers(2, 5))
    return cr.add(cr.const(q), cr.sqrt(cr.add(cr.const(k), r)))


@settings(max_examples=200, deadline=None)
@given(_values(), _values())
def test_cmp_is_the_sign_of_the_difference(a, b):
    assert geo.cmp(a, b) == geo.sign(cr.sub(a, b))
    assert geo.cmp(b, a) == -geo.cmp(a, b)
    assert geo.cmp(a, a) == 0


_REF = decimal.Context(prec=150)


@st.composite
def _tower_values(draw, depth=4):
    """A value built from small rationals by add, sub, mul, div and sqrt,
    nested at most `depth` deep (so up to height 4), and a 150-digit
    `decimal` reference for it."""
    ops = ["rat", "add", "sub", "mul", "div", "sqrt"] if depth else ["rat"]
    op = draw(st.sampled_from(ops))
    if op == "rat":
        n, d = draw(st.integers(-9, 9)), draw(st.integers(1, 9))
        return cr.rational(n, d), _REF.divide(n, d)
    x, vx = draw(_tower_values(depth - 1))
    if op == "sqrt":
        if vx < 0:
            x, vx = cr.neg(x), _REF.minus(vx)
        return cr.sqrt(x), _REF.sqrt(vx)
    y, vy = draw(_tower_values(depth - 1))
    if op == "div":
        if cr.refine_sign(y) == 0:
            return x, vx
        return cr.div(x, y), _REF.divide(vx, vy)
    ref = {"add": _REF.add, "sub": _REF.subtract, "mul": _REF.multiply}[op]
    return getattr(cr, op)(x, y), ref(vx, vy)


@settings(max_examples=200, deadline=None)
@given(_tower_values(), _tower_values())
def test_tower_signs_are_exact_and_identities_decide_to_zero(xv, yv):
    (x, vx), (y, vy) = xv, yv
    ref = _REF.subtract(vx, vy)
    if abs(ref) > decimal.Decimal("1e-120"):
        assert cr.refine_sign(cr.sub(x, y)) == (1 if ref > 0 else -1)
    assert cr.refine_sign(cr.sub(cr.sub(cr.add(x, y), y), x)) == 0
    if cr.refine_sign(y) != 0:
        assert cr.refine_sign(cr.sub(cr.mul(cr.div(x, y), y), x)) == 0
    if cr.refine_sign(x) < 0:
        x = cr.neg(x)
    root = cr.sqrt(x)
    assert cr.refine_sign(cr.sub(cr.mul(root, root), x)) == 0


def _text_value(text: str) -> decimal.Decimal:
    """The value an `exact_text` spells, evaluated to 150 digits."""
    with decimal.localcontext(_REF):
        spelled = re.sub(r"(\d+)", r"D(\1)", text)
        return eval(spelled, {"D": decimal.Decimal, "sqrt": _REF.sqrt})


@settings(max_examples=200, deadline=None)
@given(_tower_values(depth=3))
def test_exact_text_spells_a_tower_value_exactly(xv):
    x, vx = xv
    text = cr.exact_text(x)
    assert "." not in text
    assert abs(_text_value(text) - vx) < decimal.Decimal("1e-120")


def _random_expr(rng: random.Random, depth: int):
    """Random DAG over small rationals, tracking the exact value."""
    if depth == 0 or rng.random() < 0.3:
        q = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        return cr.const(q), q
    op = rng.choice(["add", "sub", "mul", "div", "sqrt"])
    a, va = _random_expr(rng, depth - 1)
    if op == "sqrt":
        if va is None or va < 0:
            return a, va
        node = cr.sqrt(a)
        return node, None  # exact value no longer tracked as a rational
    b, vb = _random_expr(rng, depth - 1)
    if op == "div":
        if vb is None or vb == 0:
            return a, va
        node = cr.div(a, b)
        return node, (va / vb if va is not None else None)
    node = getattr(cr, op)(a, b)
    if va is None or vb is None:
        return node, None
    return node, {"add": va + vb, "sub": va - vb, "mul": va * vb}[op]


def test_interval_soundness_on_random_dags():
    rng = random.Random(20260811)
    checked = 0
    for _ in range(1000):
        node, value = _random_expr(rng, 4)
        for bits in (64, 128):
            lo, hi = node.interval(bits)
            assert lo <= hi
            if value is not None:
                assert lo <= value <= hi
                checked += 1
        # nested enclosures shrink or stay equal
        l1, h1 = node.interval(64)
        l2, h2 = node.interval(256)
        assert h2 - l2 <= h1 - l1 + Fraction(1, 2**60)
    assert checked > 400


def test_decimal_text_deterministic():
    f = golden()
    assert cr.decimal_text(f, 6) == "0.618034"
    assert cr.decimal_text(cr.const(Fraction(-3, 2)), 4) == "-1.5"
    assert cr.decimal_text(cr.const(2), 4) == "2"


def test_exact_text_writes_each_coefficient_in_lowest_terms():
    assert cr.exact_text(cr.const(Fraction(-3, 2))) == "-3/2"
    assert cr.exact_text(cr.const(2)) == "2"
    assert cr.exact_text(golden()) == "-1/2+1/2*sqrt(5)"
    x = cr.add(cr.const(Fraction(1, 2)), cr.mul(cr.const(Fraction(3, 4)), cr.sqrt(cr.const(2))))
    assert x.q == (2, 3, 4, 2)
    assert cr.exact_text(x) == "1/2+3/4*sqrt(2)"
    tower = cr.sqrt(cr.add(cr.ONE, cr.sqrt(cr.const(2))))
    assert cr.exact_text(tower) == "(0)+(1)*sqrt(1+1*sqrt(2))"
