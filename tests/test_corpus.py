import hashlib
import random
from fractions import Fraction

import pytest

from euclid2 import constructible as cr
from euclid2 import corpusdata
from euclid2 import diagram as dg
from euclid2 import oracle as orc
from euclid2 import rules
from euclid2 import script as sc
from euclid2 import svgout
from euclid2 import terms as T

ENTRIES = corpusdata.all_entries()
NEGATIVES = corpusdata.negative_entries()


def load(name):
    return sc.parse_script(corpusdata.read_script_text(name))


def test_corpus_completeness():
    default = corpusdata.default_entries()
    assert len(default) == 14
    props = {e["prop"] for e in default}
    assert props == {f"II.{k}" for k in range(1, 15)}
    assert len(NEGATIVES) >= 10


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["prop"])
def test_entry_accepted_with_expected_colors(entry):
    script = load(entry["file"])
    report = rules.check_proof(script, profile=entry["profile"])
    assert report.accepted, (report.reject_step, report.reject_cause)
    assert report.colors() == entry["colors"]
    got_flags = {str(s.index): list(s.flags) for s in report.steps if s.flags}
    assert got_flags == entry["step_flags"]
    assert [h[2] for h in report.hypotheses] == entry["hypothesis_flags"]


@pytest.mark.parametrize(
    "entry", NEGATIVES, ids=lambda e: f"{e['file']}@{e['profile']}"
)
def test_negative_rejected_with_expected_cause(entry):
    script = load(entry["file"])
    report = rules.check_proof(script, profile=entry["profile"])
    assert not report.accepted
    assert report.reject_step == entry["step"]
    assert report.reject_cause == entry["cause"]


def test_bm_variant_gated_by_profile():
    script = load("II_5_bm.e2p")
    default = rules.check_proof(script, profile="default")
    assert not default.accepted and default.reject_cause == "RuleNotInProfile"
    bm = rules.check_proof(script, profile="bm-dissection")
    assert bm.accepted


def test_double_steps_flagged():
    for entry in ENTRIES:
        script = load(entry["file"])
        report = rules.check_proof(script, profile=entry["profile"])
        for step in report.steps:
            if step.rule == "DOUBLE":
                assert "unjustified-in-paper" in step.flags
            if step.rule == "MERGE":
                assert "aggregation" in step.flags


def test_extended_ve_flag_in_ii6():
    report = rules.check_proof(load("II_6.e2p"))
    flagged = [s for s in report.steps if "extended-VE" in s.flags]
    assert [s.index for s in flagged] == [12]


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["prop"])
def test_oracle_soundness_of_accepted_equalities(entry):
    """Every equality accepted in a corpus proof holds numerically on 20
    seeded random instances within 1e-9 relative tolerance (the accepted
    hypotheses are included)."""
    script = load(entry["file"])
    report = rules.check_proof(script, profile=entry["profile"])
    assert report.accepted
    eqs = [h.stmt for h in script.hypotheses if isinstance(h.stmt, T.Eq)]
    eqs += [s.claim for s in script.steps if isinstance(s.claim, T.Eq)]
    rng = random.Random(917)
    tol = Fraction(1, 10**9)
    for _ in range(20):
        inst, _params = orc.sample_instance(script, rng)
        for stmt in eqs:
            ok, _lhs, _rhs = orc._evaluate_sample(inst, stmt, tol)
            assert ok, (entry["prop"], stmt.text())


def test_reports_are_deterministic():
    script = load("II_7.e2p")
    a = sc.emit_report(rules.check_proof(script), "json")
    b = sc.emit_report(rules.check_proof(script), "json")
    assert a == b
    assert "timing" not in a


# sha256 of each entry's SVG (realized at its defaults, overlaid with its
# report); any change to a coordinate, an id or the element order shows here
SVG_SHA256 = {
    "II_1.e2p": "1f3df5d2d96ee73261a5d79b1ba8bd56893b69cafc74ff8950c51335228c693d",
    "II_2.e2p": "872f6439ded60aae1f06ae240a3302ea2d1ae0652fd75f36b75425ebad64160c",
    "II_3.e2p": "6011e517f194fd7082d26a4114e1df6e7f36a97af1b37add70c656967104309d",
    "II_4.e2p": "770572ca1d19fbb5d972bda3cd183ff6831a02f04c991dcdb27457387f131cf6",
    "II_5.e2p": "5e8520dc601f1bc9ed829c42a84603e201ee10b50bd76a058f8115e4c39e1023",
    "II_6.e2p": "2d090b4fd50ecc5b283d1f3a1920104019cfac799999664d2aad02ca84d53db6",
    "II_7.e2p": "374f0946325f62ae7b65e7232d512ba95043b3ccbe9eaedc9b61e9e14b734585",
    "II_8.e2p": "f6769032fb26cfb0209e3682fe4522684f4323d46c43c62f009646235e587d44",
    "II_9.e2p": "0f3539d54530c834e16ffa673021c643209fccd531e1033cedc07f40913fc752",
    "II_10.e2p": "26ea870d60c310cd5b44a15d3a6a4b4c7cab019fb07ffc626df279bcfb15b294",
    "II_11.e2p": "f39536fed5d59872e86a5580e9b7ff91d41193917ee5d274c1ce718e8c05f7f8",
    "II_12.e2p": "21b2b95e30177028d06976371a34c2250b56fe7e42ebaef32dde6375c245d1e1",
    "II_13.e2p": "07fb0eede335de8f7d0d772feb25a563f100bf17a17a1c26fea1fa32ba48443b",
    "II_14.e2p": "ecc9c31facdd07e2d2d6657f74d17f2fd8b4ca4612b13adf750aad58b28b359c",
    "II_5_bm.e2p": "e01cea61ae90153450fea550d4d0efc2d552746e7f298ef8af30295928ef84bd",
    "II_14_bm.e2p": "d55b8e41e3671bc037cf25d461a3a98c240f4d75ede54759445fe54d93059537",
}


def test_render_svg_matches_golden_digests():
    assert sorted(SVG_SHA256) == sorted(e["file"] for e in ENTRIES)
    for entry in ENTRIES:
        script = load(entry["file"])
        inst = dg.realize(script)
        report = rules.check_proof(script, instance=inst, profile=entry["profile"])
        svg = svgout.render_svg(script, inst, report)
        assert hashlib.sha256(svg.encode()).hexdigest() == SVG_SHA256[entry["file"]], entry["file"]


def test_certificates_present_for_geometry_rules():
    report = rules.check_proof(load("II_4.e2p"))
    by_rule = {}
    for step in report.steps:
        by_rule.setdefault(step.rule, []).append(step)
    for rule in ("VE", "NAME", "I43"):
        assert all(s.certificate for s in by_rule.get(rule, [])), rule
    digests = {c["digest"] for c in report.certificates}
    cited = {s.certificate for s in report.steps if s.certificate}
    assert cited <= digests


def test_ve_area_identity_every_corpus_ve_step():
    """Whenever a decomposition verifies, the two sides have equal areas:
    exactly on the rational path, and exactly in the quadratic field for the
    radical diagrams (II.11)."""
    rng = random.Random(2718)
    for entry in ENTRIES:
        script = load(entry["file"])
        for _ in range(5):
            inst, _params = orc.sample_instance(script, rng)
            report = rules.check_proof(script, instance=inst, profile=entry["profile"])
            assert report.accepted, (entry["prop"], report.reject_cause)
            for step in report.steps:
                if step.rule != "VE":
                    continue
                claim = T.parse_statement(step.statement)
                diff = cr.sub(
                    dg.sum_value(inst, claim.lhs), dg.sum_value(inst, claim.rhs)
                )
                assert cr.refine_sign(diff) == 0, (entry["prop"], step.index)


def test_max_bits_env_override(monkeypatch):
    monkeypatch.setenv("EUCLID2_MAX_BITS", "8192")
    assert cr.max_bits_budget() == 8192
    monkeypatch.delenv("EUCLID2_MAX_BITS")
    assert cr.max_bits_budget() == cr.DEFAULT_MAX_BITS
