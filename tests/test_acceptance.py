"""Acceptance criteria, one test per criterion, each printing a pass line.

The expected color sequences in criterion 2 are the step-by-step
transcriptions of the proof schemes that the corpus headers document; where
a compressed scheme line expands into several steps (the paired
visual-evidence splittings in II.5-II.7 and II.11, the transitivity steps),
the expansion is part of the transcription and the colored steps appear in
the scheme's order.
"""

import random
import time
from fractions import Fraction

from euclid2 import constructible as cr
from euclid2 import corpusdata
from euclid2 import diagram as dg
from euclid2 import geometry as geo
from euclid2 import oracle as orc
from euclid2 import rules
from euclid2 import script as sc
from euclid2 import svgout
from euclid2 import terms as T
from helpers import (
    coverage_multiplicity,
    diorismos_holds_on_grid,
    holds_on_grid,
    negative_entries,
    pt,
    refine_to_width,
    verify_decomposition,
)


def load(name):
    return sc.parse_script(corpusdata.read_script_text(name))


def holds_numeric(stmt, script, **kwargs):
    return all(r["ok"] for r in orc.check_numeric_detailed(stmt, script, **kwargs))


def ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


# ---------------------------------------------------------------------------
# 1. corpus acceptance


def test_criterion_1_corpus_accepted_under_5s():
    t0 = time.perf_counter()
    for k in range(1, 15):
        script = load(f"II_{k}.e2p")
        report = rules.check_proof(script, profile="default")
        assert report.accepted, (k, report.reject_step, report.reject_cause)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"corpus took {elapsed:.2f}s"
    ok(1, f"II.1-II.14 all accepted in {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. scheme fidelity

R, B, V, M, P = "red", "blue", "violet", "magenta", "plain"

TRANSCRIBED = {
    # one red start, four violet substitutions, one magenta conclusion
    "II_1.e2p": [R, V, V, V, V, M],
    # red start, blue renaming, two violets, magenta
    "II_2.e2p": [R, B, V, V, M],
    # red start, two violets, blue second-diagonal renaming, magenta
    "II_3.e2p": [R, V, V, B, M],
    # blue, violet, aggregation, violet, complement, magenta, doubling,
    # aggregation, red whole-square evidence, transitivity, magenta
    "II_4.e2p": [B, V, P, V, P, M, P, P, R, P, M],
    # complement chain with paired red splittings, then violet/magenta
    # naming substitutions, violet square renaming, red gnomon evidence,
    # magenta conclusion
    "II_5.e2p": [P, P, R, R, P, P, R, R, P, P, P, V, M, V, P, R, P, M],
    # as II.5 but the added square is invisible: the late red step is the
    # extended visual evidence
    "II_6.e2p": [P, P, P, R, R, P, P, V, M, V, P, R, P, M],
    # overlapping figures: two multiplicity-2 red steps
    "II_7.e2p": [P, P, R, R, P, P, P, R, P, V, M, V, P, R, P, M],
    # reversal rule (magenta) twice, paired red splittings, closing magenta
    "II_11.e2p": [V, P, P, P, V, M, B, M, R, R, P, P, P, V, B, M],
    # the source scheme for II.12 carries no colored formulas
    "II_12.e2p": [P, P, P, P, P, P],
    # violet radius substitution, plain Pythagorean/subtraction steps,
    # violet naming, magenta reversal, plain closing transitivity
    "II_14.e2p": [V, P, P, P, V, M, P],
}


def test_criterion_2_scheme_fidelity():
    mismatches = []
    for name, expected in TRANSCRIBED.items():
        report = rules.check_proof(load(name))
        assert report.accepted, name
        if report.colors() != expected:
            mismatches.append((name, expected, report.colors()))
    assert not mismatches, mismatches
    ok(2, f"color sequences match transcriptions for {len(TRANSCRIBED)} schemes")


# ---------------------------------------------------------------------------
# 3. negative suite


def test_criterion_3_negative_suite():
    negs = negative_entries()
    assert len(negs) >= 10
    causes = {}
    for entry in negs:
        report = rules.check_proof(load(entry["file"]), profile=entry["profile"])
        assert not report.accepted, entry["file"]
        assert report.reject_step == entry["step"]
        assert report.reject_cause == entry["cause"]
        causes[(entry["file"], entry["profile"])] = report.reject_cause
    assert causes[("neg/II_4_commuted.e2p", "default")] == "NoMatch"
    assert causes[("neg/II_1_false_ve.e2p", "default")] == "VEFailed"
    assert causes[("neg/II_11_no_rangle.e2p", "default")] == "NoRightAngle"
    assert causes[("II_5_bm.e2p", "default")] == "RuleNotInProfile"
    ok(3, f"{len(negs)} rejection cases, all with the expected causes")


# ---------------------------------------------------------------------------
# 4. VE exactness over random rational draws


def _frac(e):
    """The exact rational value of `e`; fails unless `e` is rational."""
    assert e.den, f"not an exact rational: {e!r}"
    return e.rat


def test_criterion_4_ve_exactness():
    rng = random.Random(20260811)
    total_ve = 0
    for k in range(1, 7):
        script = load(f"II_{k}.e2p")
        for _ in range(20):
            inst, _params = orc.sample_instance(script, rng)
            report = rules.check_proof(script, instance=inst)
            assert report.accepted, (k, report.reject_cause)
            ve_steps = [s for s in report.steps if s.rule == "VE"]
            assert ve_steps
            certs = {c["digest"]: c for c in report.certificates}
            for step in ve_steps:
                cert = certs[step.certificate]
                assert cert["exact"] is True, (k, step.index)
                claim = T.parse_statement(step.statement)
                lhs = dg.sum_value(inst, claim.lhs)
                rhs = dg.sum_value(inst, claim.rhs)
                assert _frac(lhs) == _frac(rhs), (k, step.index)
                total_ve += 1
    ok(4, f"{total_ve} VE verifications on the exact-rational path, areas equal exactly")


# ---------------------------------------------------------------------------
# 5. overlap correctness (II.7)


def _frac_polygon(poly):
    return [(_frac(p[0]), _frac(p[1])) for p in poly]


def _frac_inside(px, py, poly):
    inside = False
    n = len(poly)
    for i in range(n):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xi = x1 + (x2 - x1) * (py - y1) / (y2 - y1)
            if xi > px:
                inside = not inside
    return inside


def test_criterion_5_overlap_multiplicity_and_grid_oracle():
    script = load("II_7.e2p")
    inst = dg.realize(script)
    res = verify_decomposition(inst, [("AF", 1), ("CE", 1)], [("KLM", 1), ("CF", 1)])
    assert res.equal and res.exact and res.max_multiplicity == 2
    cf = inst.region("CF")
    mid = pt(
        (_frac(cf[0][0]) + _frac(cf[2][0])) / 2,
        (_frac(cf[0][1]) + _frac(cf[2][1])) / 2,
    )
    lhs_regions = [(inst.region(n), 1) for n in ("AF", "CE")]
    rhs_regions = [(inst.region(n), 1) for n in ("KLM", "CF")]
    assert coverage_multiplicity(lhs_regions, mid) == 2
    assert coverage_multiplicity(rhs_regions, mid) == 2

    lhs = [_frac_polygon(p) for p, _ in lhs_regions]
    rhs = [_frac_polygon(p) for p, _ in rhs_regions]
    xs = [x for poly in lhs + rhs for x, _ in poly]
    ys = [y for poly in lhs + rhs for _, y in poly]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    n = 101  # 101 x 101 > 10^4 rational sample points
    samples = 0
    for i in range(n):
        for j in range(n):
            px = x0 + (x1 - x0) * Fraction(2 * i + 1, 2 * n)
            py = y0 + (y1 - y0) * Fraction(2 * j + 1, 2 * n)
            ml = sum(_frac_inside(px, py, poly) for poly in lhs)
            mr = sum(_frac_inside(px, py, poly) for poly in rhs)
            assert ml == mr, (px, py)
            samples += 1
    assert samples >= 10**4
    ok(5, f"II.7 verifies with multiplicity 2 over CF; {samples} grid points agree")


# ---------------------------------------------------------------------------
# 6. oracle identities


def test_criterion_6_oracle_identities():
    # each side has degree <= 2 in each variable, so the grid proves it
    assert holds_on_grid(lambda a, b, c, d: a * (b + c + d) == a * b + a * c + a * d, 4)  # II.1
    assert holds_on_grid(lambda a, b: (a + b) ** 2 == a * a + b * b + 2 * a * b, 2)  # II.4
    half = Fraction(1, 2)
    assert holds_on_grid(
        lambda x, y: (half * (x + y)) ** 2 == x * y + (half * (x - y)) ** 2, 2
    )  # II.5
    assert holds_on_grid(lambda a, b: (a + b) ** 2 + a * a == 2 * (a + b) * a + b * b, 2)  # II.7
    # the same identities as the corpus diorismoses, realized on the grid
    for name in ("II_1.e2p", "II_4.e2p", "II_5.e2p", "II_7.e2p"):
        assert diorismos_holds_on_grid(load(name)), name
    # numeric oracle for II.9-II.14, 20 draws, each compared exactly
    for k in range(9, 15):
        script = load(f"II_{k}.e2p")
        assert holds_numeric(script.diorismos, script, samples=20, seed=k), k
    ok(6, "cited identities exact; numeric oracle passes II.9-II.14 (20 draws)")


# ---------------------------------------------------------------------------
# 7. golden ratio


def test_criterion_7_golden_ratio():
    script = load("II_11.e2p")
    inst = dg.realize(script)
    # the golden cut of AB = 1 at H: AH carries (sqrt 5 - 1)/2 and BH the
    # complementary piece consumed by the checked claim AB x BH = HA^2
    ah = geo.length(*inst.seg_endpoints(T.mk_segment("A", "H")))
    lo, hi = refine_to_width(ah, Fraction(1, 10**20))
    assert hi - lo <= Fraction(1, 10**20)
    target = Fraction(61803398874989484820, 10**20)
    assert abs((lo + hi) / 2 - target) <= Fraction(1, 10**20)
    bh = geo.length(*inst.seg_endpoints(T.mk_segment("B", "H")))
    assert cr.refine_sign(cr.sub(cr.add(ah, bh), cr.ONE)) == 0
    assert holds_numeric(script.diorismos, script, samples=20, seed=7)
    ok(7, "golden cut in a width<=1e-20 interval at 0.61803398874989484820; oracle passes")


# ---------------------------------------------------------------------------
# 8. quadrature


def test_criterion_8_quadrature():
    script = load("II_14.e2p")
    inst = dg.realize(script)
    eh2 = geo.dist2(*inst.seg_endpoints(T.mk_segment("E", "H")))
    assert cr.refine_sign(cr.sub(eh2, cr.ONE)) == 0
    area = geo.area(inst.region("A"))
    assert cr.refine_sign(cr.sub(eh2, area)) == 0
    ok(8, "II.14 with a 2 x 1/2 rectangle: EH^2 - 1 is Zero on the exact path")


# ---------------------------------------------------------------------------
# 9. properties


def test_criterion_9_properties():
    # parser round-trip on 100 generated scripts
    from test_parser import _gen_script

    rng = random.Random(424242)
    for _ in range(100):
        script = _gen_script(rng)
        assert sc.parse_script(sc.format_script(script)) == script

    # stmt_equal equivalence laws on 1000 random statements
    stmts = [_rand_statement(rng) for _ in range(1000)]
    for s in stmts:
        assert T.stmt_equal(s, s)
    for i in range(0, 998, 2):
        a, b = stmts[i], stmts[i + 1]
        assert T.stmt_equal(a, b) == T.stmt_equal(b, a)
    for i in range(0, 997, 3):
        a, b, c = stmts[i], stmts[i + 1], stmts[i + 2]
        if T.stmt_equal(a, b) and T.stmt_equal(b, c):
            assert T.stmt_equal(a, c)

    # interval soundness on 1000 random DAGs
    from test_constructible import _random_expr

    rng2 = random.Random(5150)
    for _ in range(1000):
        node, value = _random_expr(rng2, 4)
        lo, hi = node.interval(96)
        assert lo <= hi
        if value is not None:
            assert lo <= value <= hi

    # determinism: reports and SVGs byte-identical across runs
    for name in ("II_1.e2p", "II_7.e2p", "II_11.e2p", "II_14.e2p"):
        script = load(name)
        r1 = sc.emit_report(rules.check_proof(script), "json")
        r2 = sc.emit_report(rules.check_proof(script), "json")
        assert r1 == r2
        i1 = dg.realize(script)
        i2 = dg.realize(script)
        s1 = svgout.render_svg(script, i1, rules.check_proof(script, instance=i1))
        s2 = svgout.render_svg(script, i2, rules.check_proof(script, instance=i2))
        assert s1 == s2
    ok(9, "round-trip x100, stmt_equal laws x1000, interval soundness x1000, determinism")


def _rand_statement(rng: random.Random):
    letters = "ABCDEFGH"

    def seg():
        if rng.random() < 0.2:
            return T.segment_named(rng.choice(letters))
        a = rng.choice(letters)
        b = rng.choice([c for c in letters if c != a])
        return T.Segment(a, b, display=a + b)

    def term(depth=0):
        k = rng.randrange(4 if depth == 0 else 3)
        if k == 0:
            return T.SquareOn(seg())
        if k == 1:
            return T.RectBy(seg(), seg())
        if k == 2:
            return T.Fig(T.FigureName("".join(rng.sample(letters, rng.randint(1, 4)))))
        return T.Multiple(rng.randint(2, 4), term(1))

    def tsum():
        return T.term_sum([term() for _ in range(rng.randint(1, 3))])

    k = rng.randrange(5)
    if k == 0:
        return T.Eq(tsum(), tsum())
    if k == 1:
        return T.Pi(T.FigureName("".join(rng.sample(letters, 2))), seg(), seg())
    if k == 2:
        return T.IsSq(T.FigureName("".join(rng.sample(letters, 2))), seg())
    if k == 3:
        return T.SegEq(seg(), seg())
    v = rng.choice(letters)
    arms = [c for c in letters if c != v]
    return T.RightAngle(v, rng.choice(arms), rng.choice(arms))
