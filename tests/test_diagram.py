import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from euclid2 import constructible as cr
from euclid2 import corpusdata
from euclid2 import diagram as dg
from euclid2 import geometry as geo
from euclid2 import oracle as orc
from euclid2 import rules
from euclid2 import script as sc
from euclid2 import terms as T
from euclid2.errors import (
    Euclid2Error,
    FactVerificationFailed,
    InvalidParam,
    ParseError,
    Undecidable,
    UnknownName,
)
from helpers import (
    GRID,
    all_entries,
    coverage_multiplicity,
    equal_content,
    negative_entries,
    pt,
    reference_box_facts,
    refine_to_width,
    verify_decomposition,
)


def load(name):
    return sc.parse_script(corpusdata.read_script_text(name))


def realize(name, params=None):
    return dg.realize(load(name), params)


def frac_pt(inst, label):
    x, y = inst.point(label)
    return (x.rat, y.rat)


def test_realize_ii2_coordinates():
    inst = realize("II_2.e2p")
    assert frac_pt(inst, "A") == (0, 0)
    assert frac_pt(inst, "B") == (1, 0)
    assert frac_pt(inst, "C") == (Fraction(2, 5), 0)
    assert frac_pt(inst, "D") == (0, -1)
    assert frac_pt(inst, "E") == (1, -1)
    assert frac_pt(inst, "F") == (Fraction(2, 5), -1)


def test_realize_deterministic():
    a = realize("II_5.e2p")
    b = realize("II_5.e2p")
    for label in a.coords:
        assert geo.pts_equal(a.point(label), b.point(label))
    assert len(a.facts) == len(b.facts)


def test_realize_ii5_cut_exact():
    inst = realize("II_5.e2p", {"d": cr.rational(1, 5)})
    c = frac_pt(inst, "C")
    d = frac_pt(inst, "D")
    assert d[0] - c[0] == Fraction(1, 5)
    # CD is an exact rational length
    assert geo.length(*inst.seg_endpoints(T.mk_segment("C", "D"))).rat == Fraction(1, 5)


def test_realize_ii11_golden_interval():
    inst = realize("II_11.e2p")
    ah = geo.length(*inst.seg_endpoints(T.mk_segment("A", "H")))
    lo, hi = refine_to_width(ah, Fraction(1, 10**20))
    assert hi - lo <= Fraction(1, 10**20)
    target = Fraction(61803398874989484820, 10**20)
    assert abs((lo + hi) / 2 - target) <= Fraction(1, 10**20)
    # and exactly: AH = (sqrt 5 - 1)/2
    assert ah.quad == (Fraction(-1, 2), Fraction(1, 2), 5)


def test_cut_outside_segment_rejected():
    with pytest.raises(InvalidParam):
        realize("II_5.e2p", {"d": cr.rational(3, 5)})  # beyond B


def _hand_built(points, construction) -> sc.Script:
    return sc.Script(
        prop_id="T",
        points=points,
        base_lines=(),
        params={},
        flags=frozenset(),
        construction=construction,
        hypotheses=(),
        diorismos=T.parse_statement("sq(AB) = sq(AB)"),
        steps=(),
    )


def test_realize_checks_a_script_built_by_hand():
    """The parser stops a construction letter outside the roster and an
    undeclared `torect` source; a `Script` built through the API reaches
    realize's own checks, which raise typed errors."""
    place = sc.PlaceSegment("A", "B", sc.LenLit(1, 1))
    stray = _hand_built(("A", "B"), (place, sc.CutHalf("Z", ("A", "B"))))
    with pytest.raises(InvalidParam, match="^point 'Z' missing from roster$"):
        dg.realize(stray)
    torect = _hand_built(("A", "B", "C", "D"), (place, sc.TriangulateToRect("ABCD", "A")))
    with pytest.raises(UnknownName, match="^figure 'A' not declared$"):
        dg.realize(torect)
    for script in (stray, torect):
        with pytest.raises(ParseError):
            sc.parse_script(sc.format_script(script))


def test_construction_facts_ii2():
    inst = realize("II_2.e2p")
    fb = rules.FactBase(inst)
    # square side equalities, directly or through the transitive closure
    assert fb.has_segeq(T.mk_segment("A", "D"), T.mk_segment("A", "B"))
    assert fb.has_segeq(T.mk_segment("B", "E"), T.mk_segment("A", "B"))
    assert fb.has_rangle(T.RightAngle("A", "B", "D"))
    # the square is a box of the diagram, not a command fact
    assert ("A", "D", "E", "B", True) in inst.boxes()
    assert not any(f.kind == "rangle" for f in inst.facts)


def test_construction_facts_ii14_radius():
    inst = realize("II_14.e2p")
    segeqs = [f for f in inst.facts if f.reason == "Radius"]
    want = T.SegEq(T.mk_segment("G", "F"), T.mk_segment("G", "H"))
    assert any(T.stmt_equal(f.statement, want) for f in segeqs)


def test_construction_facts_ii5_midpoint():
    inst = realize("II_5.e2p")
    want = T.SegEq(T.mk_segment("A", "C"), T.mk_segment("C", "B"))
    assert any(
        f.reason == "Midpoint" and T.stmt_equal(f.statement, want) for f in inst.facts
    )


def test_oracle_realize_builds_no_fact_statement(monkeypatch):
    """Command facts are decided on labels: realizing at oracle draws
    builds no segment, segment equality or right angle record."""
    scripts = [load(name) for name in sorted({e["file"] for e in all_entries()})]
    built = []

    def counted(init):
        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        return counting_init

    for cls in (T.Segment, T.SegEq, T.RightAngle):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    facts = []
    for script in scripts:
        for seed in range(3):
            inst, _params = orc.sample_instance(script, random.Random(seed))
            facts += inst.facts
    assert facts and built == []
    # a reader that asks for the statements gets them built
    assert {type(f.statement).__name__ for f in facts} == {"SegEq", "RightAngle", "Eq"}
    assert {"Segment", "SegEq", "RightAngle"} <= set(built)


@pytest.mark.parametrize(
    "name, kernel, effect, message",
    [
        ("II_5.e2p", "equal_length", False, "construction fact AC == BC is numerically false"),
        ("II_5.e2p", "equal_length", Undecidable("x"), "AC == BC could not be verified: x"),
        ("II_1.e2p", "right_angle", False, "construction fact rangle(B;G,C) is numerically false"),
        # a length cited as written keeps its spelling, a standalone one its letter
        ("II_8.e2p", "equal_length", False, "construction fact BD == CB is numerically false"),
        ("II_1.e2p", "equal_length", False, "construction fact BG == A is numerically false"),
    ],
)
def test_false_command_fact_message(monkeypatch, name, kernel, effect, message):
    """A command fact that fails its check names itself as its statement
    prints; here the first fact of each kind fails."""

    def kernel_result(*_points):
        if isinstance(effect, Exception):
            raise effect
        return effect

    monkeypatch.setattr(geo, kernel, kernel_result)
    with pytest.raises(FactVerificationFailed) as err:
        realize(name)
    assert str(err.value) == message


def _count_cell_listings(monkeypatch) -> list:
    calls = []
    listing = dg._labelled_cells

    def counted(inst):
        calls.append(inst)
        return listing(inst)

    monkeypatch.setattr(dg, "_labelled_cells", counted)
    return calls


@pytest.mark.parametrize("name", ["II_2.e2p", "II_14.e2p"])
def test_oracle_derives_no_cell_facts(monkeypatch, name):
    calls = _count_cell_listings(monkeypatch)
    script = load(name)
    records = orc.check_numeric_detailed(script.diorismos, script, samples=3)
    assert records and all(r["ok"] for r in records)
    assert calls == []


@pytest.mark.parametrize("name", ["II_2.e2p", "II_14.e2p"])
def test_check_derives_cell_facts_once_per_instance(monkeypatch, name):
    calls = _count_cell_listings(monkeypatch)
    script = load(name)
    assert rules.check_proof(script).verdict == "accepted"
    assert len(calls) == 1
    inst = dg.realize(script)
    assert len(calls) == 1
    # an instance passed in, as `render` and the corpus check pass it
    for _ in range(2):
        assert rules.check_proof(script, instance=inst).verdict == "accepted"
    assert calls[1:] == [inst]
    assert inst.boxes() is inst.boxes()


def _partition(fb: rules.FactBase) -> set:
    groups: dict = {}
    for k in list(fb._parent):
        groups.setdefault(fb._find(k), set()).add(k)
    return {frozenset(g) for g in groups.values()}


def _assert_seeded_as_reference(inst: dg.DiagramInstance, construction=()):
    """The base seeded from `inst.facts` and `inst.boxes()` holds exactly
    what adding the statement of each command fact, then each reference
    box fact, gives, and each such fact holds in the diagram."""
    facts = [(f.statement, f.reason) for f in inst.facts]
    facts += reference_box_facts(inst, construction)
    for stmt, _ in facts:
        assert dg.statement_holds(inst, stmt), stmt.text()
    seeded = rules.FactBase(inst)
    ref = rules.FactBase(dg.DiagramInstance(coords=inst.coords))
    for stmt, reason in facts:
        ref.add(stmt, f"construction:{reason}")
    assert list(seeded._stmts.items()) == list(ref._stmts.items())
    assert seeded._rangles == ref._rangles
    assert _partition(seeded) == _partition(ref)


CORPUS_FILES = sorted({e["file"] for e in all_entries() + negative_entries()})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS_FILES), st.sampled_from(GRID))
def test_seeded_cells_match_reference_on_corpus(name, scale):
    script = load(name)
    params = {n: cr.mul(cr.const(v), cr.const(scale))
              for n, v in script.params.items() if v is not None}
    try:
        inst = dg.realize(script, params)
    except Euclid2Error:
        assume(False)
    _assert_seeded_as_reference(inst, script.construction)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CORPUS_FILES), st.integers(0, 2**32 - 1))
def test_seeded_facts_match_reference_at_oracle_draws(name, seed):
    script = load(name)
    try:
        inst, _params = orc.sample_instance(script, random.Random(seed))
    except Euclid2Error:
        assume(False)
    _assert_seeded_as_reference(inst, script.construction)


def test_every_corpus_diagram_seeds_as_reference():
    boxes, built = [], []
    for name in CORPUS_FILES:
        script = load(name)
        inst = dg.realize(script)
        _assert_seeded_as_reference(inst, script.construction)
        boxes += inst.boxes()
        built += inst.built_boxes
    # both kinds occur: squares and other rectangles, built and found as cells
    assert {square for *_, square in boxes} == {True, False}
    assert {square for *_, square in built} == {True, False}
    assert len(boxes) > len(built)


DATA_SCRIPTS = sorted((Path(__file__).resolve().parent / "data").glob("*.e2p"))


@pytest.mark.parametrize(
    "text",
    [corpusdata.read_script_text(n) for n in CORPUS_FILES]
    + [p.read_text(encoding="utf-8") for p in DATA_SCRIPTS],
    ids=CORPUS_FILES + [p.name for p in DATA_SCRIPTS],
)
def test_boxes_lists_each_box_once(text):
    """An undivided box that `square` or `torect` built is also a labelled
    grid cell; it is listed once, as built."""
    inst = dg.realize(sc.parse_script(text))
    label_sets = [frozenset(box[:4]) for box in inst.boxes()]
    assert len(set(label_sets)) == len(label_sets)
    assert inst.boxes()[: len(inst.built_boxes)] == inst.built_boxes


def _axis(draw) -> list[int]:
    start = draw(st.integers(-3, 3))
    gaps = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4))
    return [start + sum(gaps[:k]) for k in range(len(gaps) + 1)]


@st.composite
def rectangle_grids(draw):
    """A grid of axis lines, some of whose cells are drawn (half of them
    with a diagonal), and labels on most of its points.  Gaps of 1 or 2 make
    many cells square; the x coordinates are shifted by a multiple of
    sqrt 2 now and then, so they are not always rational."""
    shift = cr.mul(cr.const(draw(st.integers(0, 2))), cr.sqrt(cr.const(2)))
    gx = [cr.add(cr.const(x), shift) for x in _axis(draw)]
    gy = [cr.const(y) for y in _axis(draw)]
    drawn = []
    for i in range(len(gx) - 1):
        for j in range(len(gy) - 1):
            if draw(st.integers(0, 3)):
                box = geo.box_polygon(gx[i], gy[j], gx[i + 1], gy[j + 1])
                drawn += [(box[k], box[(k + 1) % 4]) for k in range(4)]
                if draw(st.booleans()):
                    drawn.append(draw(st.sampled_from([(box[0], box[2]), (box[3], box[1])])))
    coords = {}
    for i, x in enumerate(gx):
        for j, y in enumerate(gy):
            if draw(st.integers(0, 9)):
                coords[f"P{i}{j}"] = (x, y)
    return dg.DiagramInstance(coords=coords, drawn_list=drawn)


@settings(max_examples=150, deadline=None)
@given(rectangle_grids())
def test_seeded_cells_match_reference_on_fuzzed_grids(inst):
    _assert_seeded_as_reference(inst)


def test_figure_region_names():
    inst = realize("II_2.e2p")
    adeb = inst.region("ADEB")
    assert geo.area(adeb).rat == 1
    af = inst.region("AF")
    assert geo.area(af).rat == Fraction(2, 5)
    # AE names the full square by its diagonal: same region as ADEB
    assert inst.same_region("AE", "ADEB") and inst.same_region("ADEB", "AE")
    assert not inst.same_region("AF", "ADEB")
    with pytest.raises(UnknownName):
        inst.region("AC")  # collinear corners span no rectangle
    # a name that binds no region is the same region as none, itself included
    assert not inst.same_region("AC", "AC") and not inst.same_region("ADEB", "AC")


_OPEN_BOX = """prop open box
points A B C D E
construct:
  place AB = 1
  perp D from A on AB below len 1
  perp C from B on AB below len 1
  join D C
  cut E on DC at 1/2
  join B E
claim: fig(AC) = fig(AC)
proof:
qed
"""


def test_a_box_binds_once_its_last_side_is_drawn():
    """The binding of a two-letter name lasts until the next segment is
    drawn: before DC is joined AC binds nothing, after it AC binds its box."""
    script = sc.parse_script(_OPEN_BOX)
    builder = dg._Builder(script, {})
    inst = builder.inst
    for cmd in script.construction[:3]:
        builder.dispatch(cmd)
    for query in (inst.box, inst.region):
        with pytest.raises(UnknownName, match="^rectangle AC has undrawn sides$"):
            query("AC")
    builder.dispatch(script.construction[3])  # join D C
    assert [v.rat for v in inst.box("AC")] == [0, -1, 1, 0]
    assert geo.same_region(inst.region("AC"), geo.box_polygon(*inst.box("AC")))
    assert dg.term_value(inst, T.Fig(T.FigureName("AC"))).rat == 1


def test_a_slanted_figure_has_no_box_and_takes_the_shoelace(monkeypatch):
    inst = dg.realize(sc.parse_script(_OPEN_BOX))
    assert inst.box("ABED") is None and inst.box("ABCD") is not None
    shoelace = []
    area = geo.area
    monkeypatch.setattr(geo, "area", lambda poly: shoelace.append(poly) or area(poly))
    assert dg.term_value(inst, T.Fig(T.FigureName("ABED"))).rat == Fraction(3, 4)
    assert shoelace == [inst.region("ABED")]
    assert dg.term_value(inst, T.Fig(T.FigureName("ABCD"))).rat == 1
    assert len(shoelace) == 1  # a box is width times height


def test_verify_decomposition_ii1():
    inst = realize("II_1.e2p")
    res = verify_decomposition(inst, [("BH", 1)], [("BK", 1), ("DL", 1), ("EH", 1)])
    assert res.equal and res.exact
    # areas agree exactly: a(b+c+d) = ab+ac+ad
    lhs = geo.area(inst.region("BH")).rat
    parts = sum(
        geo.area(inst.region(nm)).rat for nm in ("BK", "DL", "EH")
    )
    assert lhs == parts


def test_verify_decomposition_false_case():
    inst = realize("II_2.e2p")
    res = verify_decomposition(inst, [("AE", 1)], [("AF", 1)])
    assert not res.equal
    assert geo.area(inst.region("AE")).rat == 1
    assert geo.area(inst.region("AF")).rat == Fraction(2, 5)


def test_verify_decomposition_ii7_multiplicity():
    inst = realize("II_7.e2p")
    res = verify_decomposition(
        inst, [("AF", 1), ("CE", 1)], [("KLM", 1), ("CF", 1)]
    )
    assert res.equal and res.exact and res.max_multiplicity == 2


def test_equal_content():
    inst = realize("II_5.e2p")
    assert equal_content(inst, ["AH"], ["NOP"])
    assert equal_content(inst, ["AH"], ["AH"])
    assert not equal_content(inst, ["CEFB"], ["CH"])


def test_brute_force_grid_agreement_ii1_to_ii6():
    """Multiplicity-1 equivalence: decomposition verdicts agree with dense
    point sampling on the corpus dissections."""
    cases = {
        "II_1.e2p": ([("BH", 1)], [("BK", 1), ("DL", 1), ("EH", 1)]),
        "II_2.e2p": ([("AE", 1)], [("AF", 1), ("CE", 1)]),
        "II_3.e2p": ([("AE", 1)], [("AD", 1), ("CE", 1)]),
        "II_4.e2p": ([("ADEB", 1)], [("HF", 1), ("CK", 1), ("AG", 1), ("GE", 1)]),
        "II_5.e2p": ([("CEFB", 1)], [("NOP", 1), ("LG", 1)]),
        "II_6.e2p": ([("CEFD", 1)], [("NOP", 1), ("LG", 1)]),
    }
    for name, (lhs, rhs) in cases.items():
        inst = realize(name)
        res = verify_decomposition(inst, lhs, rhs)
        assert res.equal and res.exact, name
        left = [(inst.region(n), m) for n, m in lhs]
        right = [(inst.region(n), m) for n, m in rhs]
        xs = [p[0].rat for poly, _ in left + right for p in poly]
        ys = [p[1].rat for poly, _ in left + right for p in poly]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        n = 17
        for i in range(n):
            for j in range(n):
                px = x0 + (x1 - x0) * Fraction(2 * i + 1, 2 * n)
                py = y0 + (y1 - y0) * Fraction(2 * j + 1, 2 * n)
                p = pt(px, py)
                assert coverage_multiplicity(left, p) == coverage_multiplicity(right, p), (
                    name, px, py)


def test_refine_sign_examples():
    f = cr.div(cr.sub(cr.sqrt(cr.const(5)), cr.ONE), cr.const(2))
    assert cr.refine_sign(cr.sub(f, cr.const(Fraction(3, 5)))) == 1
    s2 = cr.sqrt(cr.const(2))
    assert cr.refine_sign(cr.sub(cr.mul(s2, s2), cr.const(2))) == 0
    assert cr.refine_sign(cr.sub(cr.const(Fraction(1, 3)), cr.const(Fraction(1, 3)))) == 0
