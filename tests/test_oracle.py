import random
from fractions import Fraction

import pytest

from euclid2 import corpusdata
from euclid2 import oracle as orc
from euclid2 import script as sc
from euclid2 import terms as T
from euclid2.errors import UnmappedTerm
from euclid2.oracle import Poly, check_identity_exact
from euclid2.terms import parse_statement as ps


def load(name):
    return sc.parse_script(corpusdata.read_script_text(name))


def holds_numeric(stmt, script, **kwargs):
    return all(r["ok"] for r in orc.check_numeric_detailed(stmt, script, **kwargs))


# ---------------------------------------------------------------------------
# cited identity forms, built directly


def test_identity_ii1_distributivity():
    a, b, c, d = (Poly.var(v) for v in "abcd")
    assert check_identity_exact(a * (b + c + d), a * b + a * c + a * d)


def test_identity_ii4_binomial_square():
    a, b = Poly.var("a"), Poly.var("b")
    assert check_identity_exact((a + b) * (a + b), a * a + b * b + Poly.const(2) * a * b)
    assert not check_identity_exact((a + b) * (a + b), a * a + b * b)


def test_identity_ii5_half_difference():
    x, y = Poly.var("x"), Poly.var("y")
    half = Poly.const(Fraction(1, 2))
    lhs = (half * (x + y)) * (half * (x + y))
    rhs = x * y + (half * (x - y)) * (half * (x - y))
    assert check_identity_exact(lhs, rhs)


def test_identity_ii7():
    a, b = Poly.var("a"), Poly.var("b")
    lhs = (a + b) * (a + b) + a * a
    rhs = Poly.const(2) * (a + b) * a + b * b
    assert check_identity_exact(lhs, rhs)


def test_identity_ii13_footnote():
    # BC^2 + DC^2 = BD^2 + 2 BC x DC with BC = BD + DC
    bd, dc = Poly.var("p"), Poly.var("q")
    bc = bd + dc
    assert check_identity_exact(bc * bc + dc * dc, bd * bd + Poly.const(2) * bc * dc)


# ---------------------------------------------------------------------------
# translate on corpus scripts


def test_translate_ii1_diorismos():
    script = load("II_1.e2p")
    coord = orc.Coordinatization(script)
    lhs, rhs = orc.translate(script.diorismos, coord)
    assert orc.check_identity_exact(lhs, rhs)


@pytest.mark.parametrize(
    "name", ["II_1.e2p", "II_2.e2p", "II_3.e2p", "II_4.e2p", "II_5.e2p",
             "II_6.e2p", "II_7.e2p", "II_8.e2p"]
)
def test_translate_collinear_diorismoses(name):
    """The invisible-figure diorismoses of II.1-II.8 are polynomial
    identities in the free gap lengths (II.8's involves the bound figures,
    which have no polynomial reading, so it is checked numerically)."""
    script = load(name)
    coord = orc.Coordinatization(script)
    try:
        lhs, rhs = orc.translate(script.diorismos, coord)
    except UnmappedTerm:
        assert name == "II_8.e2p"
        assert holds_numeric(script.diorismos, script, samples=5, seed=3)
        return
    assert orc.check_identity_exact(lhs, rhs), name


def test_translate_linearity():
    script = load("II_4.e2p")
    coord = orc.Coordinatization(script)
    rng = random.Random(11)
    segs = [("A", "C"), ("C", "B"), ("A", "B")]

    def rand_terms(n):
        out = []
        for _ in range(n):
            a, b = rng.choice(segs)
            if rng.random() < 0.5:
                out.append(T.SquareOn(T.mk_segment(a, b)))
            else:
                c, d = rng.choice(segs)
                out.append(T.RectBy(T.mk_segment(a, b), T.mk_segment(c, d)))
        return out

    for _ in range(50):
        xs = rand_terms(rng.randint(1, 3))
        ys = rand_terms(rng.randint(1, 3))
        both = T.term_sum(xs + ys)
        lhs, _ = orc.translate(T.Eq(both, both), coord)
        l1, _ = orc.translate(T.Eq(T.term_sum(xs), T.term_sum(xs)), coord)
        l2, _ = orc.translate(T.Eq(T.term_sum(ys), T.term_sum(ys)), coord)
        assert check_identity_exact(lhs, l1 + l2)


def test_unmapped_term():
    script = load("II_2.e2p")
    coord = orc.Coordinatization(script)
    with pytest.raises(UnmappedTerm):
        coord.term_length(T.Fig(T.FigureName("AE")))
    with pytest.raises(UnmappedTerm):
        coord.seg_length(T.mk_segment("A", "D"))  # off the base line


# ---------------------------------------------------------------------------
# numeric checking


def test_check_numeric_ii12():
    script = load("II_12.e2p")
    assert holds_numeric(script.diorismos, script, samples=20, seed=0)


def test_check_numeric_ii10():
    script = load("II_10.e2p")
    assert holds_numeric(script.diorismos, script, samples=10, seed=1)


def test_check_numeric_rejects_corrupted():
    script = load("II_12.e2p")
    corrupted = ps("sq(CB) = sq(CA) + sq(AB)")  # dropped summand
    assert not holds_numeric(corrupted, script, samples=3, seed=0)


def test_check_numeric_seeded_determinism():
    script = load("II_13.e2p")
    a = orc.check_numeric_detailed(script.diorismos, script, samples=6, seed=42)
    b = orc.check_numeric_detailed(script.diorismos, script, samples=6, seed=42)
    assert a == b
    c = orc.check_numeric_detailed(script.diorismos, script, samples=6, seed=43)
    assert [r["params"] for r in a] != [r["params"] for r in c]


def test_exact_numeric_agreement_ii1_to_ii8():
    """Where the polynomial identity holds, 20 numeric draws agree (and the
    corrupted variants fail both ways)."""
    for name in ["II_1.e2p", "II_2.e2p", "II_3.e2p", "II_4.e2p", "II_5.e2p",
                 "II_6.e2p", "II_7.e2p"]:
        script = load(name)
        coord = orc.Coordinatization(script)
        lhs, rhs = orc.translate(script.diorismos, coord)
        exact = orc.check_identity_exact(lhs, rhs)
        numeric = holds_numeric(
            script.diorismos, script, samples=20, tol=Fraction(1, 10**12), seed=5
        )
        assert exact and numeric, name
