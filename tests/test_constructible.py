import gc
import random
from fractions import Fraction

import pytest

from euclid2 import constructible as cr
from euclid2 import corpusdata, rules
from euclid2 import geometry as geo
from euclid2 import oracle as orc
from euclid2 import script as sc
from euclid2.errors import Undecidable


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
    lo, hi = cr.refine_to_width(golden(), Fraction(1, 10**20))
    assert hi - lo <= Fraction(1, 10**20)
    target = Fraction(61803398874989484820, 10**20)
    assert lo - Fraction(1, 10**20) <= target <= hi + Fraction(1, 10**20)


def test_radicand_normalization_shares_field():
    # sqrt(20) = 2*sqrt(5): the difference folds to an exact zero
    d = cr.sub(cr.sqrt(cr.const(20)), cr.mul(cr.const(2), cr.sqrt(cr.const(5))))
    assert cr.refine_sign(d) == 0


def test_nested_radical_falls_back_to_intervals():
    n = cr.sqrt(cr.add(cr.ONE, cr.sqrt(cr.const(2))))
    assert not n.is_exact
    assert cr.refine_sign(cr.sub(n, cr.ONE)) == 1
    lo, hi = n.interval(128)
    assert lo < hi


def test_equal_radical_constructions_share_one_node():
    def nested():
        return cr.sqrt(cr.add(cr.const(1), cr.sqrt(cr.const(2))))

    a, b = nested(), nested()
    assert a is b
    assert cr.refine_sign(cr.sub(a, b)) == 0
    assert cr.exact_key(a) == cr.exact_key(b)


def test_no_global_state_survives_check_and_oracle():
    for entry in corpusdata.all_entries() + corpusdata.negative_entries():
        script = sc.parse_script(corpusdata.read_script_text(entry["file"]))
        rules.check_proof(script, profile=entry["profile"])
        orc.check_numeric_detailed(script.diorismos, script, samples=3)
    held = cr.sqrt(cr.add(cr.const(2), cr.sqrt(cr.const(3))))
    assert len(cr.Expr._table) >= 1
    del held
    gc.collect()
    assert len(cr.Expr._table) == 0


def test_shared_order_separates_values_a_double_cannot():
    eps = Fraction(1, 2**60)
    one, above = cr.ONE, cr.const(1 + eps)
    assert float(above.rat) == float(one.rat)
    assert [v.rat for v in sorted([above, one], key=geo.by_value)] == [1, 1 + eps]
    assert min([above, one], key=geo.by_value) is one
    assert max([one, above], key=geo.by_value) is above


def test_undecidable_at_budget():
    # sqrt(2+sqrt2)*sqrt(2-sqrt2) equals sqrt(2), but the DAGs differ and
    # no symbolic rule applies, so the zero is honestly undecidable
    s2 = cr.sqrt(cr.const(2))
    prod = cr.mul(
        cr.sqrt(cr.add(cr.const(2), s2)), cr.sqrt(cr.sub(cr.const(2), s2))
    )
    z = cr.sub(prod, s2)
    assert not z.is_exact
    with pytest.raises(Undecidable):
        cr.refine_sign(z, max_bits=256)


def test_division_by_exact_zero_raises():
    with pytest.raises(ZeroDivisionError):
        cr.div(cr.ONE, cr.sub(cr.const(2), cr.const(2)))


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
            try:
                lo, hi = node.interval(bits)
            except Exception:
                continue
            assert lo <= hi
            if value is not None:
                assert lo <= value <= hi
                checked += 1
            # nested enclosures shrink or stay equal
        try:
            l1, h1 = node.interval(64)
            l2, h2 = node.interval(256)
            assert h2 - l2 <= h1 - l1 + Fraction(1, 2**60)
        except Exception:
            pass
    assert checked > 400


def test_decimal_text_deterministic():
    f = golden()
    assert cr.decimal_text(f, 6) == "0.618034"
    assert cr.decimal_text(cr.const(Fraction(-3, 2)), 4) == "-1.5"
    assert cr.decimal_text(cr.const(2), 4) == "2"
