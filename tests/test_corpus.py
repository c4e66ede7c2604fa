import random
from fractions import Fraction

import pytest

from euclid2 import constructible as cr
from euclid2 import corpusdata
from euclid2 import diagram as dg
from euclid2 import oracle as orc
from euclid2 import rules
from euclid2 import script as sc
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
