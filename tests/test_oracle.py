from fractions import Fraction

import pytest

from euclid2 import corpusdata
from euclid2 import oracle as orc
from euclid2 import script as sc
from euclid2.terms import parse_statement as ps
from helpers import diorismos_holds_on_grid, holds_on_grid


def load(name):
    return sc.parse_script(corpusdata.read_script_text(name))


def holds_numeric(stmt, script, **kwargs):
    return all(r["ok"] for r in orc.check_numeric_detailed(stmt, script, **kwargs))


# ---------------------------------------------------------------------------
# cited identity forms, evaluated exactly on a grid


def test_identity_ii1_distributivity():
    assert holds_on_grid(lambda a, b, c, d: a * (b + c + d) == a * b + a * c + a * d, 4)


def test_identity_ii4_binomial_square():
    assert holds_on_grid(lambda a, b: (a + b) * (a + b) == a * a + b * b + 2 * a * b, 2)
    assert not holds_on_grid(lambda a, b: (a + b) * (a + b) == a * a + b * b, 2)


def test_identity_ii5_half_difference():
    half = Fraction(1, 2)
    assert holds_on_grid(
        lambda x, y: (half * (x + y)) ** 2 == x * y + (half * (x - y)) ** 2, 2
    )


def test_identity_ii7():
    assert holds_on_grid(lambda a, b: (a + b) ** 2 + a * a == 2 * (a + b) * a + b * b, 2)


def test_identity_ii13_footnote():
    # BC^2 + DC^2 = BD^2 + 2 BC x DC with BC = BD + DC
    def footnote(bd, dc):
        bc = bd + dc
        return bc * bc + dc * dc == bd * bd + 2 * bc * dc

    assert holds_on_grid(footnote, 2)


# ---------------------------------------------------------------------------
# corpus diorismoses, realized exactly on a parameter grid


def test_translate_ii1_diorismos():
    script = load("II_1.e2p")
    assert len(script.params) == 3
    assert diorismos_holds_on_grid(script)


@pytest.mark.parametrize(
    "name", ["II_1.e2p", "II_2.e2p", "II_3.e2p", "II_4.e2p", "II_5.e2p",
             "II_6.e2p", "II_7.e2p", "II_8.e2p"]
)
def test_translate_collinear_diorismoses(name):
    """The invisible-figure diorismoses of II.1-II.8 hold for all parameters:
    every coordinate there is affine in each parameter, so an exact check on
    the grid proves them (II.8's involves the bound figures as areas)."""
    assert diorismos_holds_on_grid(load(name)), name


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
    """Where the grid proves the identity, 20 numeric draws agree, and a
    corrupted diorismos fails both ways."""
    for name in ["II_1.e2p", "II_2.e2p", "II_3.e2p", "II_4.e2p", "II_5.e2p",
                 "II_6.e2p", "II_7.e2p"]:
        script = load(name)
        exact = diorismos_holds_on_grid(script)
        numeric = holds_numeric(script.diorismos, script, samples=20, seed=5)
        assert exact and numeric, name
    script = load("II_4.e2p")
    corrupted = ps("sq(AB) = sq(AC) + sq(CB) + rect(AC,CB)")  # 2*rect halved
    assert not diorismos_holds_on_grid(script, corrupted)
    assert not holds_numeric(corrupted, script, samples=3, seed=5)
