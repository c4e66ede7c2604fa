import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid2 import constructible as cr
from euclid2 import corpusdata
from euclid2 import diagram as dg
from euclid2 import geometry as geo
from euclid2 import rules
from euclid2 import script as sc
from euclid2 import terms as T
from euclid2.errors import (
    DistinctTargets,
    NameMismatch,
    NoCommonTerm,
    NoLink,
    NoMatch,
    NoRightAngle,
    NotComplements,
    OverlapWithoutFlag,
    UnknownName,
    VEFailed,
)
from euclid2.terms import parse_statement as ps
from helpers import (
    all_entries,
    default_entries,
    negative_entries,
    reference_expand_multiples,
    reference_i43,
)


def load(name):
    return sc.parse_script(corpusdata.read_script_text(name))


def ctx_for(name):
    script = load(name)
    fb = rules.FactBase(dg.realize(script), script.flags)
    for h in script.hypotheses:
        fb.add(h.stmt, f"h{h.index}")
    return fb


@pytest.fixture(scope="module")
def ii1():
    return ctx_for("II_1.e2p")


@pytest.fixture(scope="module")
def ii2():
    return ctx_for("II_2.e2p")


@pytest.fixture(scope="module")
def ii3():
    return ctx_for("II_3.e2p")


@pytest.fixture(scope="module")
def ii4():
    return ctx_for("II_4.e2p")


@pytest.fixture(scope="module")
def ii5():
    return ctx_for("II_5.e2p")


@pytest.fixture(scope="module")
def ii7():
    return ctx_for("II_7.e2p")


@pytest.fixture(scope="module")
def ii11():
    return ctx_for("II_11.e2p")


@pytest.fixture(scope="module")
def ii14():
    return ctx_for("II_14.e2p")


def dummy_ctx():
    # the substitution rules and common notions never read the fact base
    return None


# ---------------------------------------------------------------------------
# substitution rules


def test_r1_examples():
    c = dummy_ctx()
    rules.rule_R1(c, ps("BH pi A x BC"), [ps("BH pi GB x BC"), ps("BG == A")])
    rules.rule_R1(c, ps("AF pi AB x AC"), [ps("AF pi DA x AC"), ps("AD == AB")])
    with pytest.raises(NoMatch):
        rules.rule_R1(c, ps("BH pi A x BC"), [ps("BH pi GB x BC"), ps("DK == DE")])


def test_r1_preserves_position():
    c = dummy_ctx()
    # the substituted operand keeps its slot: second operand here
    rules.rule_R1(c, ps("HD pi BD x AB"), [ps("HD pi BD x BH"), ps("BH == AB")])
    with pytest.raises(NoMatch):
        rules.rule_R1(c, ps("HD pi AB x BD"), [ps("HD pi BD x BH"), ps("BH == AB")])


def test_r2_examples():
    c = dummy_ctx()
    rules.rule_R2(c, ps("HF on AC"), [ps("HF on HG"), ps("HG == AC")])
    rules.rule_R2(c, ps("HF on HG"), [ps("HF on HG"), ps("HG == HG")])
    with pytest.raises(NoMatch):
        rules.rule_R2(c, ps("HF on AC"), [ps("HF on HG"), ps("AB == CD")])


def test_r2_on_equalities():
    c = dummy_ctx()
    rules.rule_R2(
        c,
        ps("rect(BE,EF) + sq(GE) = sq(GH)"),
        [ps("rect(BE,EF) + sq(GE) = sq(GF)"), ps("GF == GH")],
    )
    # standalone form: sq(X) = sq(Y) from X == Y
    rules.rule_R2(c, ps("sq(GF) = sq(GH)"), [ps("GF == GH")])


def test_r3_examples(ii5, ii4):
    rules.rule_R3(
        ii5,
        ps("rect(AD,DB) = fig(NOP)"),
        [ps("fig(AH) = fig(NOP)"), ps("AH pi AD x DB")],
    )
    rules.rule_R3(
        ii4,
        ps("rect(AC,CB) = fig(GE)"),
        [ps("fig(AG) = fig(GE)"), ps("AG pi AC x CB")],
    )
    with pytest.raises(NoMatch):
        rules.rule_R3(
            ii5,
            ps("rect(AD,DB) = fig(NOP)"),
            [ps("fig(AH) = fig(NOP)"), ps("KH pi AD x DB")],
        )


def test_r3_resolves_diagonal_alias(ii3):
    # the square CE may be renamed by its second diagonal DB
    rules.rule_R3(
        ii3,
        ps("fig(AD) + sq(CB) = rect(AB,BC)"),
        [ps("fig(AD) + fig(CE) = rect(AB,BC)"), ps("DB on CB")],
    )


def test_r3_matches_an_unbound_figure_by_its_letters_only(ii3):
    # AC and CB lie on one line, so neither binds a region
    rules.rule_R3(
        ii3, ps("rect(AB,BC) = sq(CB)"), [ps("fig(AC) = sq(CB)"), ps("AC pi AB x BC")]
    )
    with pytest.raises(NoMatch):
        rules.rule_R3(
            ii3, ps("rect(AB,BC) = sq(CB)"), [ps("fig(AC) = sq(CB)"), ps("CB pi AB x BC")]
        )


def test_inline_equality_premise_matches_up_to_figure_names():
    """A fact matches an equality that names its figures by other names of
    the same regions; a name that binds no region matches its letters only."""
    fb = ctx_for("II_4.e2p")
    fb.add(ps("fig(AC) + fig(AG) = fig(GE)"), "test")
    # CH is AG's second diagonal, FK is GE's
    assert fb.has(ps("fig(AC) + fig(CH) = fig(FK)"))
    assert fb.has(ps("fig(KF) = fig(HC) + fig(AC)"))
    assert not fb.has(ps("fig(CB) + fig(CH) = fig(FK)"))


def test_r4_examples():
    c = dummy_ctx()
    rules.rule_R4(
        c,
        ps("fig(FK) = sq(AB)"),
        [ps("rect(CF,FA) = sq(AB)"), ps("FK pi CF x FA")],
    )
    rules.rule_R4(
        c,
        ps("fig(BD) = sq(HE)"),
        [ps("rect(BE,EF) = sq(HE)"), ps("BD pi BE x EF")],
    )
    with pytest.raises(NoMatch):
        rules.rule_R4(
            c,
            ps("fig(FK) = sq(AB)"),
            [ps("rect(CF,FA) = sq(AB)"), ps("FK pi FA x CF")],
        )


# ---------------------------------------------------------------------------
# common notions


def test_cn1_examples():
    c = dummy_ctx()
    rules.rule_CN1(c, ps("DK == A"), [ps("DK == BG"), ps("BG == A")])
    with pytest.raises(NoLink):
        rules.rule_CN1(c, ps("DK == A"), [ps("DK == BG"), ps("CE == A")])


def test_cn2_example():
    c = dummy_ctx()
    claim = ps("fig(NOP) + fig(LG) = rect(AD,DB) + sq(CD)")
    rules.rule_CN2(
        c, claim, [ps("fig(NOP) = rect(AD,DB)"), ps("fig(LG) = sq(CD)")]
    )


def test_cn3_example():
    c = dummy_ctx()
    rules.rule_CN3(
        c,
        ps("rect(BE,EF) = sq(HE)"),
        [ps("rect(BE,EF) + sq(GE) = sq(HE) + sq(GE)")],
    )
    with pytest.raises(NoCommonTerm):
        rules.rule_CN3(c, ps("sq(A) = sq(B)"), [ps("sq(AB) = sq(CD)")])


def test_cn3_removes_common_terms_with_multiplicity():
    c = dummy_ctx()
    rules.rule_CN3(
        c, ps("sq(A) + sq(B) = sq(C)"), [ps("sq(A) + sq(A) + sq(B) = sq(A) + sq(C)")]
    )


def test_cn2_single_premise_counts_repeated_terms():
    c = dummy_ctx()
    claim = ps("sq(A) + sq(C) + sq(C) = sq(B) + sq(C) + sq(C)")
    rules.rule_CN2(c, claim, [ps("sq(A) = sq(B)")])
    # the premise side sq(A) + sq(A) is not contained in sq(A) + sq(D)
    with pytest.raises(NoMatch):
        rules.rule_CN2(
            c,
            ps("sq(A) + sq(D) = sq(B) + sq(C) + sq(D)"),
            [ps("sq(A) + sq(A) = sq(B) + sq(C)")],
        )
    # two copies of sq(C) added on the left, one on the right
    with pytest.raises(NoMatch):
        rules.rule_CN2(
            c, ps("sq(A) + sq(C) + sq(C) = sq(B) + sq(C)"), [ps("sq(A) = sq(B)")]
        )


# ---------------------------------------------------------------------------
# diagram-backed rules


def test_ve_ii1_accepted(ii1):
    out = rules.rule_VE(ii1, ps("fig(BH) = fig(BK) + fig(DL) + fig(EH)"), [])
    assert out.certificate is not None
    assert out.certificate["exact"] is True


def test_ve_ii7_multiplicity(ii7):
    out = rules.rule_VE(ii7, ps("fig(AF) + fig(CE) = fig(KLM) + fig(CF)"), [])
    assert "multiplicity-2" in out.flags


def test_ve_failure(ii1):
    with pytest.raises(VEFailed):
        rules.rule_VE(ii1, ps("fig(BK) + fig(DL) = fig(BH)"), [])


def test_name_examples(ii2, ii3):
    out = rules.rule_NAME(ii2, ps("ADEB on AB"))
    assert out.certificate is not None
    rules.rule_NAME(ii2, ps("AF pi DA x AC"))
    out = rules.rule_NAME(ii3, ps("fig(CE) = fig(DB)"))
    assert "alias" in out.flags


@pytest.mark.parametrize(
    "claim, cause",
    [
        ("fig(AC) = fig(AE)", "UnknownName: AC does not span a rectangle"),
        ("fig(AE) = fig(AB)", "UnknownName: AB does not span a rectangle"),
        ("fig(AC) = fig(CB)", "UnknownName: AC does not span a rectangle"),
    ],
)
def test_name_alias_of_an_unbound_figure_rejects_with_its_reason(claim, cause):
    text = corpusdata.read_script_text("II_3.e2p").replace(
        "4. DB on CB ; NAME", f"4. {claim} ; NAME"
    )
    report = rules.check_proof(sc.parse_script(text))
    assert (report.reject_step, report.reject_cause) == (4, cause)


def test_i47_examples(ii11, ii14):
    out = rules.rule_I47(
        ii11, ps("sq(AB) + sq(AE) = sq(EB)"), [ps("rangle(A;B,E)")]
    )
    assert out.certificate is not None
    rules.rule_I47(ii14, ps("sq(HE) + sq(GE) = sq(GH)"), [ps("rangle(E;H,G)")])
    with pytest.raises(NoRightAngle):
        rules.rule_I47(ii11, ps("sq(AB) + sq(AE) = sq(EB)"), [])


def test_i43_examples(ii4, ii5):
    out = rules.rule_I43(ii4, ps("fig(AG) = fig(GE)"), [])
    assert out.certificate is not None
    rules.rule_I43(ii5, ps("fig(CH) = fig(HF)"), [])
    with pytest.raises(NotComplements):
        rules.rule_I43(ii4, ps("fig(AG) = fig(HF)"), [])


def _box(x1, y1, x2, y2, start, turn):
    """The box as a polygon from corner `start`, counterclockwise or not."""
    corners = geo.box_polygon(x1, y1, x2, y2)
    corners = corners[start:] + corners[:start]
    return corners if turn else corners[:1] + corners[:0:-1]


@st.composite
def box_pairs(draw):
    """Two boxes on a small rational grid, as I.43's complements (with the
    shared corner on the diameter or off it), nested, overlapping, sharing
    an edge, or stacked on one shared corner; or one of them slanted.  The
    bounding box's diagonals are drawn or not."""
    grid = st.sets(st.integers(0, 9), min_size=4, max_size=4).map(sorted)
    xs = [cr.rational(n, 2) for n in draw(grid)]
    ys = [cr.rational(n, 3) for n in draw(grid)]
    x0, x1, x2, x3 = xs
    y0, y1, y2, y3 = ys
    kind = draw(st.sampled_from(
        ["complements", "nested", "overlapping", "edge", "stacked", "slanted"]
    ))
    slanted = None
    if kind == "complements":
        rising = draw(st.booleans())
        if draw(st.booleans()):  # the shared corner on the diameter
            t = cr.div(cr.sub(x1, x0), cr.sub(x3, x0))
            y1 = cr.add(y0, cr.mul(t if rising else cr.sub(cr.ONE, t), cr.sub(y3, y0)))
        if rising:
            boxes = [(x0, y1, x1, y3), (x1, y0, x3, y1)]
        else:
            boxes = [(x0, y0, x1, y1), (x1, y1, x3, y3)]
    elif kind == "nested":
        inner = (x1, y1, draw(st.sampled_from([x2, x3])), draw(st.sampled_from([y2, y3])))
        boxes = [(x0, y0, x3, y3), inner]
    elif kind == "overlapping":
        boxes = [(x0, y0, x2, y2), (x1, y1, x3, y3)]
    elif kind == "edge":
        lo, hi = sorted(draw(st.sets(st.sampled_from(ys), min_size=2, max_size=2)),
                        key=geo.by_value)
        boxes = [(x0, y0, x1, y2), (x1, lo, x2, hi)]
    elif kind == "stacked":
        boxes = [(x0, y0, x2, y1), (draw(st.sampled_from([x0, x1])), y1, x2, y3)]
    else:
        boxes = [(x0, y0, x1, y1)]
        slanted = ((x1, y1), (x3, y1), (x3, y3), (x2, y3))
    polys = [_box(*b, draw(st.integers(0, 3)), draw(st.booleans())) for b in boxes]
    if slanted is not None:
        polys.append(slanted)
    if draw(st.booleans()):
        polys.reverse()
    X1, Y1 = (min((p[i] for poly in polys for p in poly), key=geo.by_value) for i in (0, 1))
    X2, Y2 = (max((p[i] for poly in polys for p in poly), key=geo.by_value) for i in (0, 1))
    diagonals = [((X1, Y1), (X2, Y2)), ((X2, Y1), (X1, Y2))]
    drawn = [d for d in diagonals if draw(st.booleans())]
    return polys, drawn


def _two_figures(polys, drawn) -> rules.FactBase:
    inst = dg.DiagramInstance(declared={"P": polys[0], "Q": polys[1]}, drawn_list=drawn)
    return rules.FactBase(inst)


@settings(max_examples=300, deadline=None)
@given(box_pairs())
def test_i43_decides_as_the_point_key_reference(case):
    """On rational corners, where equal points have equal keys, I43 gives
    the verdict and the certificate of its point-key reference."""
    fb = _two_figures(*case)
    try:
        want = reference_i43(fb.inst, "P", "Q")
    except NotComplements:
        want = None
    try:
        got = rules.rule_I43(fb, ps("fig(P) = fig(Q)"), []).certificate
    except NotComplements:
        got = None
    assert got == want


def _sqrt6_twice():
    """sqrt(6) as a quadratic value and as the tower sqrt(2)*sqrt(3): one
    value with two keys."""
    quad = cr.sqrt(cr.const(6))
    tower = cr.mul(cr.sqrt(cr.const(2)), cr.sqrt(cr.const(3)))
    assert geo.cmp(quad, tower) == 0 and cr.exact_key(quad) != cr.exact_key(tower)
    return quad, tower


def test_i43_finds_the_shared_corner_by_value():
    """Complements whose shared corner has x = sqrt(6) in one box and
    sqrt(2)*sqrt(3) in the other meet in one corner."""
    quad, tower = _sqrt6_twice()
    two = cr.const(2)
    far = cr.mul(two, quad)
    polys = [geo.box_polygon(cr.ZERO, cr.ZERO, quad, cr.ONE),
             geo.box_polygon(tower, cr.ONE, far, two)]
    fb = _two_figures(polys, [((far, cr.ZERO), (cr.ZERO, two))])
    with pytest.raises(NotComplements):
        reference_i43(fb.inst, "P", "Q")
    out = rules.rule_I43(fb, ps("fig(P) = fig(Q)"), [])
    assert out.certificate["diameter"] == rules._poly_payload([(far, cr.ZERO), (cr.ZERO, two)])


def test_name_finds_the_shared_corner_by_value():
    """B and E are one point, its x spelled sqrt(6) and sqrt(2)*sqrt(3), so
    AB and EC meet in one corner of ABCD."""
    quad, tower = _sqrt6_twice()
    coords = {"A": (cr.ZERO, cr.ZERO), "B": (quad, cr.ZERO), "C": (quad, cr.ONE),
              "D": (cr.ZERO, cr.ONE), "E": (tower, cr.ZERO)}
    inst = dg.DiagramInstance(coords=coords, declared={"ABCD": tuple(coords[p] for p in "ABCD")})
    out = rules.rule_NAME(rules.FactBase(inst), ps("ABCD pi AB x EC"))
    assert out.certificate["corner"] == [cr.exact_text(quad), "0"]
    with pytest.raises(NameMismatch):
        rules.rule_NAME(rules.FactBase(inst), ps("ABCD pi AB x BA"))


def _square_spelled_twice() -> rules.FactBase:
    """The drawn square ABCD of side sqrt(6), and the declared figure P on
    its corners with the x of B and C spelled sqrt(2)*sqrt(3): one region
    whose corners have other keys."""
    quad, tower = _sqrt6_twice()
    coords = {"A": (cr.ZERO, cr.ZERO), "B": (quad, cr.ZERO), "C": (quad, quad),
              "D": (cr.ZERO, quad)}
    corners = [coords[p] for p in "ABCD"]
    inst = dg.DiagramInstance(
        coords=coords,
        declared={"P": ((cr.ZERO, cr.ZERO), (tower, cr.ZERO), (tower, quad), (cr.ZERO, quad))},
        drawn_list=list(zip(corners, corners[1:] + corners[:1])),
    )
    return rules.FactBase(inst)


@pytest.mark.parametrize("claim", ["fig(ABCD) = fig(P)", "fig(AC) = fig(P)"])
def test_name_aliases_one_region_by_value(claim):
    out = rules.rule_NAME(_square_spelled_twice(), ps(claim))
    assert out.flags == ("alias",)


def test_r3_matches_a_figure_by_value():
    fb = _square_spelled_twice()
    premises = [ps("fig(P) = rect(AB,AD)"), ps("ABCD on AB")]
    rules.rule_R3(fb, ps("sq(AB) = rect(AB,AD)"), premises)


def test_fact_base_matches_an_equality_by_value():
    fb = _square_spelled_twice()
    fb.add(ps("fig(P) = sq(AB)"), "hypothesis")
    assert fb.has(ps("fig(AC) = sq(AB)")) and fb.has(ps("sq(AB) = fig(ABCD)"))
    assert not fb.has(ps("fig(AC) = sq(AD)"))


_TERMS = [T.Fig(T.FigureName("A")), T.Fig(T.FigureName("B")), T.SquareOn(T.Segment("A", "B"))]
_SIDES = st.lists(st.sampled_from(_TERMS), min_size=1, max_size=3).map(T.term_sum)


@st.composite
def additions(draw):
    """Equalities over three terms, repeats allowed, and a claim: their
    sides added up in a drawn orientation, or any equality."""
    eqs = draw(st.lists(st.builds(T.Eq, _SIDES, _SIDES), min_size=1, max_size=3))
    if draw(st.booleans()):
        return eqs, T.Eq(draw(_SIDES), draw(_SIDES))
    flips = [draw(st.booleans()) for _ in eqs]
    sides = [(e.rhs, e.lhs) if f else (e.lhs, e.rhs) for e, f in zip(eqs, flips)]
    return eqs, T.Eq(*(T.term_sum(t for s in side for t in s.terms) for side in zip(*sides)))


@settings(max_examples=300, deadline=None)
@given(additions())
def test_adds_up_over_the_orientations_is_whether_one_adds_up(case):
    """CN2's reading: `_adds_up` over `_orientations` holds exactly when some
    orientation of the equalities, added side by side, gives the claim's two
    sides; MERGE's reading, `_adds_up` on the sides as written, holds when
    they or all of them turned round add up."""
    eqs, claim = case
    want = Counter(claim.lhs.terms), Counter(claim.rhs.terms)
    found = []
    for mask in range(2 ** len(eqs)):
        flips = [mask >> (len(eqs) - 1 - i) & 1 for i in range(len(eqs))]
        left = [t for e, f in zip(eqs, flips) for t in (e.rhs if f else e.lhs).terms]
        right = [t for e, f in zip(eqs, flips) for t in (e.lhs if f else e.rhs).terms]
        found.append((Counter(left), Counter(right)) == want)
    assert any(rules._adds_up(chosen, claim) for chosen in rules._orientations(eqs)) == any(found)
    as_written = [(e.lhs, e.rhs) for e in eqs]
    assert rules._adds_up(as_written, claim) == (found[0] or found[-1])


_ATOMS = [T.SquareOn(T.Segment("A", "B")), T.SquareOn(T.Segment("C", "D")),
          T.RectBy(T.Segment("A", "B"), T.Segment("C", "D"))]


@st.composite
def regrouped(draw, atoms):
    """A sum of `atoms` (each atom a count of copies), with each atom's
    copies grouped into parts, a part of two or more written as a multiple."""
    out = []
    for atom, count in atoms.items():
        while count:
            part = draw(st.integers(1, count))
            out.append(atom if part == 1 else T.Multiple(part, atom))
            count -= part
    return T.term_sum(out)


@st.composite
def regroupings(draw):
    """An equality over three terms and a claim: its sides regrouped, in a
    drawn order, or regroupings of any two sums."""
    counts = st.dictionaries(st.sampled_from(_ATOMS), st.integers(1, 3), min_size=1)
    left, right = draw(counts), draw(counts)
    premise = T.Eq(draw(regrouped(left)), draw(regrouped(right)))
    if draw(st.booleans()):
        left, right = draw(counts), draw(counts)
    sides = draw(regrouped(left)), draw(regrouped(right))
    return premise, T.Eq(*(sides[::-1] if draw(st.booleans()) else sides))


@settings(max_examples=300, deadline=None)
@given(regroupings())
def test_double_regroups_as_the_expanded_keys_say(case):
    """DOUBLE with one premise that equates no two figures accepts a claim
    exactly when the string keys of the sides, multiples expanded, are the
    premise's in either order."""
    premise, claim = case
    keys = [sorted(map(reference_expand_multiples, (e.lhs, e.rhs))) for e in (premise, claim)]
    try:
        rules.rule_DOUBLE(dummy_ctx(), claim, [premise])
        accepted = True
    except NoMatch:
        accepted = False
    assert accepted == (keys[0] == keys[1])


def test_double_examples(ii4):
    out = rules.rule_DOUBLE(
        ii4,
        ps("fig(AG) + fig(GE) = 2*rect(AC,CB)"),
        [ps("AG pi AC x CB"), ps("fig(GE) = rect(AC,CB)")],
    )
    assert "unjustified-in-paper" in out.flags
    rules.rule_DOUBLE(
        dummy_ctx(), ps("fig(AF) + fig(CE) = 2*fig(AF)"), [ps("fig(AF) = fig(CE)")]
    )
    # regrouping: a multiple spelled out, the sides in either order
    premise = ps("sq(AC) + sq(AC) + sq(CD) = sq(AD) + sq(DB)")
    for claim in ("2*sq(AC) + sq(CD) = sq(AD) + sq(DB)", "sq(AD) + sq(DB) = 2*sq(AC) + sq(CD)"):
        rules.rule_DOUBLE(dummy_ctx(), ps(claim), [premise])
    with pytest.raises(NoMatch):
        rules.rule_DOUBLE(dummy_ctx(), ps("2*sq(AC) + sq(AD) = sq(CD) + sq(DB)"), [premise])
    with pytest.raises(DistinctTargets):
        rules.rule_DOUBLE(
            ii4,
            ps("fig(AG) + fig(GE) = 2*rect(AC,CB)"),
            [ps("AG pi AC x CB"), ps("fig(GE) = rect(CB,AC)")],
        )


def test_merge_single_premise(ii4):
    claim = ps("fig(HF) + fig(CK) = sq(AC) + sq(CB)")
    rules.rule_MERGE(ii4, claim, [claim])


def test_merge_unbound_figure_is_not_skipped(ii4):
    """A left-hand figure that binds no region fails the step rather than
    skipping the overlap test."""
    with pytest.raises(UnknownName):
        rules.rule_MERGE(
            ii4,
            ps("fig(XY) + fig(XZ) = sq(AC) + sq(CB)"),
            [ps("XY on AC"), ps("XZ on CB")],
        )


def test_merge_with_one_left_figure_resolves_no_region(ii4):
    """One left-hand figure cannot overlap another, so MERGE asks no
    coverage question and an unbound name there does not fail the step."""
    claim = ps("fig(XY) + sq(CB) = sq(AC) + sq(CB)")
    out = rules.rule_MERGE(ii4, claim, [ps("XY on AC"), ps("sq(CB) = sq(CB)")])
    assert out.flags == ("aggregation",)


def test_merge_rejects_a_figure_aggregated_twice(ii4):
    with pytest.raises(OverlapWithoutFlag, match="HF aggregated twice"):
        rules.rule_MERGE(
            ii4,
            ps("fig(HF) + fig(HF) = sq(AC) + sq(AC)"),
            [ps("fig(HF) = sq(AC)"), ps("fig(HF) = sq(AC)")],
        )


def test_merge_adds_its_premises_as_written(ii4):
    """The claim may read either way round; a premise is never turned."""
    premises = [ps("HF on AC"), ps("CK on CB")]
    for claim in ("fig(HF) + fig(CK) = sq(AC) + sq(CB)", "sq(AC) + sq(CB) = fig(HF) + fig(CK)"):
        assert rules.rule_MERGE(ii4, ps(claim), premises).flags == ("aggregation",)
    with pytest.raises(NoMatch, match="added as written"):
        rules.rule_MERGE(
            ii4,
            ps("fig(HF) + fig(CK) = sq(AC) + sq(CB)"),
            [ps("HF on AC"), ps("sq(CB) = fig(CK)")],
        )


def test_merge_work_does_not_grow_with_its_premise_count(monkeypatch):
    """II.11 plus a MERGE step citing s8 forty times: one pass rejects it,
    and the orientation search never sees more than CN1's two equalities."""
    seen = []
    orientations = rules._orientations

    def bounded(eqs):
        # fails at once, where 2^40 orientations would run for hours
        assert len(eqs) <= 2, f"{len(eqs)} equalities to orient"
        seen.append(len(eqs))
        return orientations(eqs)

    monkeypatch.setattr(rules, "_orientations", bounded)
    step = "  17. fig(FK) + fig(AD) = fig(AD) + fig(FK) ; MERGE " + " ".join(["s8"] * 40)
    text = corpusdata.read_script_text("II_11.e2p").replace("\nqed", f"\n{step}\nqed", 1)
    report = rules.check_proof(sc.parse_script(text))
    assert (report.reject_step, report.reject_cause) == (17, "NoMatch")
    assert max(seen) == 2


# ---------------------------------------------------------------------------
# checker-level invariants


@pytest.mark.parametrize(
    "hypothesis, verdict",
    [
        ("BH pi GB x BC", None),
        ("BH pi GB x BD", "HypothesisFalse: h1"),
        ("BK on BD", "HypothesisFalse: h1"),
    ],
)
def test_naming_hypothesis_is_checked_as_its_equality(hypothesis, verdict):
    """A naming-form hypothesis holds when the area equality it states does."""
    text = corpusdata.read_script_text("II_1.e2p").replace(
        "claim:", f"hypothesis {hypothesis} ; flag x\nclaim:", 1
    )
    report = rules.check_proof(sc.parse_script(text))
    assert report.reject_cause == verdict
    assert report.accepted == (verdict is None)


def test_internal_fault_in_a_rule_is_not_a_calculus_rejection(monkeypatch):
    """An untyped exception inside a rule handler is a fault of the checker:
    it propagates, and is never turned into a rejection of the proof."""

    def broken(ctx, claim, premises):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(rules._HANDLERS, rules.Rule.R1, broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        rules.check_proof(load("II_4.e2p"))


def test_color_mapping_total():
    for rule in rules.Rule:
        assert isinstance(rules.color_of(rule), rules.ColorClass)
    assert rules.color_of(rules.Rule.VE) is rules.ColorClass.RED
    assert rules.color_of(rules.Rule.NAME) is rules.ColorClass.BLUE
    assert rules.color_of(rules.Rule.R1) is rules.ColorClass.VIOLET
    assert rules.color_of(rules.Rule.R2) is rules.ColorClass.VIOLET
    assert rules.color_of(rules.Rule.R3) is rules.ColorClass.MAGENTA
    assert rules.color_of(rules.Rule.R4) is rules.ColorClass.MAGENTA
    for other in (rules.Rule.CN1, rules.Rule.VE, rules.Rule.I43, rules.Rule.I47,
                  rules.Rule.DOUBLE, rules.Rule.MERGE):
        assert rules.color_of(other) in rules.ColorClass


def test_report_schema_enums_follow_the_vocabulary():
    props = corpusdata.report_schema()["properties"]
    step = props["steps"]["items"]["properties"]
    assert step["rule"]["enum"] == [r.value for r in rules.Rule]
    assert step["color"]["enum"] == [c.value for c in rules.ColorClass]
    assert props["profile"]["enum"] == list(rules.PROFILES)


@pytest.mark.parametrize("entry", default_entries(), ids=lambda e: e["prop"])
def test_factbase_monotone_and_replay(entry):
    """Replaying each step of an accepted proof by its rule against the base
    accepts it; the base only grows, and holds each claim once added."""
    script = load(entry["file"])
    assert rules.check_proof(script).accepted
    fb = ctx_for(entry["file"])
    hyps = {h.index: h.stmt for h in script.hypotheses}
    prior = {}
    for step in script.steps:
        before = dict(fb._stmts)
        premises = [stmt for stmt, _ in rules._resolve_premises(fb, hyps, step, prior)]
        rules._HANDLERS[rules.Rule(step.rule)](fb, step.claim, premises)
        prior[step.index] = step.claim
        fb.add(step.claim, f"step:{step.index}")
        assert before.items() <= fb._stmts.items()
        assert fb.has(step.claim)


def _flip_first_rect(stmt):
    flipped = [False]

    def flip_term(t):
        if isinstance(t, T.RectBy) and not flipped[0]:
            flipped[0] = True
            return T.RectBy(t.second, t.first)
        if isinstance(t, T.Multiple):
            inner = flip_term(t.inner)
            return T.Multiple(t.count, inner)
        return t

    if isinstance(stmt, T.Eq):
        lhs = T.term_sum(flip_term(t) for t in stmt.lhs.terms)
        rhs = T.term_sum(flip_term(t) for t in stmt.rhs.terms)
        return (T.Eq(lhs, rhs), flipped[0])
    if isinstance(stmt, T.Pi):
        return (T.Pi(stmt.figure, stmt.second, stmt.first), True)
    return (stmt, False)


@pytest.mark.parametrize("entry", default_entries(), ids=lambda e: e["prop"])
def test_no_implicit_commutativity_mutations(entry):
    """Flipping the operand order inside any one step claim's rectangle (or
    contained-by fact) makes the checker reject at or after that step."""
    script = load(entry["file"])
    mutated_any = False
    for k, step in enumerate(script.steps):
        mutated, did = _flip_first_rect(step.claim)
        if not did or T.stmt_equal(mutated, step.claim):
            continue
        mutated_any = True
        steps = list(script.steps)
        steps[k] = sc.ProofStep(step.index, mutated, step.rule, step.premises)
        bad = sc.Script(
            prop_id=script.prop_id,
            points=script.points,
            base_lines=script.base_lines,
            params=script.params,
            flags=script.flags,
            construction=script.construction,
            hypotheses=script.hypotheses,
            diorismos=script.diorismos,
            steps=tuple(steps),
        )
        report = rules.check_proof(bad)
        assert not report.accepted, (entry["prop"], step.index)
        assert report.reject_step >= step.index
    if entry["prop"] in ("II.1", "II.2", "II.3", "II.4", "II.5", "II.6", "II.7",
                         "II.11", "II.12", "II.13", "II.14"):
        assert mutated_any


# II.10 step 1 citing a second right angle, at F, before the one at C where
# the legs meet: I47 takes the premise at the vertex of the legs
_TWO_RANGLES = ("I47 [rangle(C;A,E)]", "I47 [rangle(F;E,G)] [rangle(C;A,E)]")
_PERMUTED = [(e["file"], e["profile"], None) for e in all_entries() + negative_entries()]
_PERMUTED.append(("II_10.e2p", "default", _TWO_RANGLES))


@pytest.mark.parametrize(
    "name, profile, edit", _PERMUTED,
    ids=[f"{n}-{p}" + ("-two-rangles" if e else "") for n, p, e in _PERMUTED],
)
def test_premise_order_never_changes_a_verdict(name, profile, edit):
    """Every reordering of the premises of any one step leaves the verdict,
    the rejected step and the cause as they are."""
    text = corpusdata.read_script_text(name)
    if edit is not None:
        assert text.count(edit[0]) == 1
        text = text.replace(*edit)
    script = sc.parse_script(text)
    inst = dg.realize(script)
    report = rules.check_proof(script, instance=inst, profile=profile)
    want = (report.verdict, report.reject_step, report.reject_cause)
    if edit is not None:
        assert report.accepted, want
    fields = {f: getattr(script, f) for f in script._fields}
    for k, step in enumerate(script.steps):
        for order in itertools.permutations(step.premises):
            if order == step.premises:
                continue
            steps = list(script.steps)
            steps[k] = sc.ProofStep(step.index, step.claim, step.rule, order)
            report = rules.check_proof(
                sc.Script(**{**fields, "steps": tuple(steps)}), instance=inst, profile=profile
            )
            assert (report.verdict, report.reject_step, report.reject_cause) == want, (
                step.index, [p.text() for p in order]
            )
