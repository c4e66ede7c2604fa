import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid2 import cli
from euclid2 import constructible as cr
from euclid2 import corpusdata
from euclid2 import diagram as dg
from euclid2 import oracle as orc
from euclid2 import rules
from euclid2 import script as sc
from euclid2 import svgout
from euclid2 import terms as T
from helpers import all_entries, default_entries, negative_entries, reference_report_json

ENTRIES = all_entries()
NEGATIVES = negative_entries()


def load(name):
    return sc.parse_script(corpusdata.read_script_text(name))


def test_corpus_completeness():
    default = default_entries()
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
    """Every equality accepted in a corpus proof holds exactly on 20 seeded
    random instances (the accepted hypotheses are included)."""
    script = load(entry["file"])
    report = rules.check_proof(script, profile=entry["profile"])
    assert report.accepted
    eqs = [h.stmt for h in script.hypotheses if isinstance(h.stmt, T.Eq)]
    eqs += [s.claim for s in script.steps if isinstance(s.claim, T.Eq)]
    rng = random.Random(917)
    draws = [orc.sample_instance(script, rng) for _ in range(20)]
    for stmt in eqs:
        assert all(r["ok"] for r in orc.evaluate_draws(stmt, draws)), (entry["prop"], stmt.text())


def test_reports_are_deterministic():
    script = load("II_7.e2p")
    a = sc.emit_report(rules.check_proof(script), "json")
    b = sc.emit_report(rules.check_proof(script), "json")
    assert a == b
    assert "timing" not in a


# strings that stress JSON quoting: non-ASCII, quote, backslash, control and
# non-BMP characters, mixed with any others
_REPORT_TEXT = st.text(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9\u2212\u30a2\U0001f600') | st.characters(),
    max_size=12,
)
_DIGEST = st.binary(min_size=32, max_size=32).map(bytes.hex)


@st.composite
def check_reports(draw):
    steps = [
        sc.StepRecord(
            index=draw(st.integers(0, 10**6)),
            statement=draw(_REPORT_TEXT),
            rule=draw(_REPORT_TEXT),
            color=draw(_REPORT_TEXT),
            flags=tuple(draw(st.lists(_REPORT_TEXT, max_size=3))),
            certificate=draw(st.none() | _DIGEST | _REPORT_TEXT),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    hypotheses = draw(st.lists(st.tuples(_REPORT_TEXT, _REPORT_TEXT, _REPORT_TEXT), max_size=3))
    if draw(st.booleans()):
        verdict, step, cause = "accepted", None, None
    else:
        verdict = "rejected"
        step = draw(st.none() | st.just(0) | st.integers(0, 10**6))
        cause = draw(st.none() | _REPORT_TEXT)
    timing_ms = draw(
        st.sampled_from([0.0, -0.0, 1e-05, 12345.678, float("inf"), float("nan")]) | st.floats()
    )
    return sc.CheckReport(
        draw(_REPORT_TEXT), draw(_REPORT_TEXT), verdict, step, cause,
        steps, hypotheses, draw(_REPORT_TEXT), timing_ms,
    )


@given(check_reports(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_report_json_is_the_json_dumps_document(report, timing):
    """The report writer lays out exactly what `json.dumps(..., indent=2,
    sort_keys=True)` writes for the report's dict."""
    assert sc.emit_report(report, "json", timing) == reference_report_json(report, timing)


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


# sha256 of each case's `check --json --emit-certs` stdout followed by its
# certificate sidecar, run from the corpus directory so that the sidecar is
# keyed by the relative file name, with the exit code; certificates print
# exact coordinates, so any change to how a value is written shows here.
# Without `--timing` the report carries no timing to mask.
CHECK_SHA256 = {
    "II_1.e2p@default": (0, "b288c6993f68f8acfbe6caebdf0bff84194d04a0b3f78f5cde5f43d754824170"),
    "II_2.e2p@default": (0, "e0a7240f456913586ba3e7dd3095904a2a07d5305f9cf531c6e25ea03302758e"),
    "II_3.e2p@default": (0, "7858ac666deff50184d23afde022dcb720cf803e853ed2604587be3d94615e54"),
    "II_4.e2p@default": (0, "49708913bbdb5850a9603259cf3ecbde82d26d138721f42194e335f5a55f274b"),
    "II_5.e2p@default": (0, "74535897b2674ac543f64125779296dfcda7676243f74b12ceb7c406a0f3a5ff"),
    "II_6.e2p@default": (0, "4e1ef9b582a0d5d9e6af063e5fb397ddcc7e13d5b2aff9d396cb67a2e54c7abe"),
    "II_7.e2p@default": (0, "13043efb9dee4cde92c31ac0bd05d676b78b1a30026b937083f385c7894cfce8"),
    "II_8.e2p@default": (0, "dc8f70941d7520507265e38a25fc7b2e2c3a244ac87236f7d871e1371e12466a"),
    "II_9.e2p@default": (0, "6e84deb0c595be4dbb19e7629568d0724fb3d45232fec830abf324e824a0565a"),
    "II_10.e2p@default": (0, "8265b7cf305aa799d81434cf4e616aca3ff5233433d5b1aafac7100326c63c02"),
    "II_11.e2p@default": (0, "1fc3abceaaf7c964acf6908dc795100e9eedc06ec434f8a04d42aee1fd242ebc"),
    "II_12.e2p@default": (0, "716779458e715857e89ca838aeade3623e05bf93064ccb3607d44d809ba19db3"),
    "II_13.e2p@default": (0, "a78bf6f0644db492d204de0a07a26003eca8dca18bb8fbd30728528e3eec84de"),
    "II_14.e2p@default": (0, "fa989b64fe11ab2b87dc54834da77e896c72428365448aa956729c0ae8c08d28"),
    "II_5_bm.e2p@bm-dissection": (0, "060be43d73a3e838ff0ac1a7747d84c1cf0c46a69643c4c53bd2f6e07449f9a6"),
    "II_14_bm.e2p@bm-dissection": (0, "01ae0e64b064288d09f8bf0c258a4ca1d99cc6a0254b8b038c1714f8318875ef"),
    "neg/II_4_commuted.e2p@default": (1, "087f494fa414b044aa6ff384ea79311e8b76ec8d2fbb38627e55d81f9ed0a9ae"),
    "neg/II_1_false_ve.e2p@default": (1, "3433439cf2f9827d24785120c3a4c501c972cae2acc1415079d06ba6bdf6c657"),
    "neg/II_11_no_rangle.e2p@default": (1, "ee17d4c2054d75e88d89114eeefd874dbf15d7588fd0ecfd907bb1ad739975a9"),
    "neg/mueller_congruence.e2p@default": (1, "8e8630faa7cb2232e870b487bcb5b0bae7f9898a3bbbbcf6c9c5ba5005bf7c44"),
    "neg/II_2_claim_mismatch.e2p@default": (1, "6114abde317f0b74ae901a81981c95610afd904496604b574234a532535b1d0a"),
    "neg/II_14_wrong_radius.e2p@default": (1, "a7c97a5fa5491742beafda92e1cd56ef863ae00a37a8968eee4886f92fc0e718"),
    "neg/II_7_merge_overlap.e2p@default": (1, "1bcf896427a48872bbeb56bb1093eb8c82a714f06e6964e37c426adb91ab7656"),
    "neg/II_4_double_distinct.e2p@default": (1, "babf7b1bbbf2880f52806934e4cdeb84c4fd465f153eb961f0f0d87149277985"),
    "neg/II_14_no_common.e2p@default": (1, "b8c3c68719758a1005d4666cd6e8a171ef4f6aef010945e3afbd169d7f203275"),
    "neg/II_5_bad_i43.e2p@default": (1, "98a0eb0285d1e8b3a4843b010533297b444ae04f5074e1304917c8fc219822ea"),
    "neg/II_9_missing_hyp.e2p@default": (1, "f4d41db8f9a34f3884add44292f885229c78cb684c8ea158d0543f68d6959ad2"),
    "II_5_bm.e2p@default": (1, "a705e847b31a3507c5cb181ab6a15f6ae2291ec48be5714ae780aa23ec00714a"),
}

# sha256 of each entry's `oracle --json --samples 3` stdout (seed 0)
ORACLE_SHA256 = {
    "II_1.e2p": "3b0e072dff4899ea4cb4b9383b8271cdc06f51429b7f2768755289a068210c59",
    "II_2.e2p": "afdf5fab3d111aa17bcfed253d7067386bcc2daa0d8fd1177e0f5c1271a5d9f1",
    "II_3.e2p": "dd519c529f1b3377cb736191a5ce5def9f15c44b427529ed1280ef6457d51666",
    "II_4.e2p": "76fbc70d47701142f896c980b4618946bd39945227172ed89e68b4b64336e3df",
    "II_5.e2p": "4290d96ae1ec831221154d0b386b213067d7cbb3bbbf9eaab233b00379c22ce3",
    "II_6.e2p": "4446fd4492f0010ce65b1c7391925f70bfdf7711f6feaac30b80c91bdebf6ffa",
    "II_7.e2p": "145f048eef647ec59821eafef24c96d8ba1f78c64933b4c5cdcf92dcd5ad8a8c",
    "II_8.e2p": "93f635ce963fb6b39a317d3c95b9a8a12b80172f7fced6a99b153146ba4f09e3",
    "II_9.e2p": "cc8c363cb2a5af7045ae6bd0178b6d6a70f83cc10e6e477189b4e6639c406e38",
    "II_10.e2p": "d918d7c961e1f7efc4be95d4ff9856f9d9b9e1496b1ea45547d0250ae32deaf4",
    "II_11.e2p": "15c942f447c3d00019cd60be242ee87d5e5d3c3059ddd6b3311b8dd53b36a5c1",
    "II_12.e2p": "32d58b76328cc0dd0a84a979f737dc88534b685ad54a2de06842f0b8c33577da",
    "II_13.e2p": "a5de51b9364a6c4981ce7d5f0aebb751aed16cdb7af5792600f81ffe25ae2323",
    "II_14.e2p": "b95f9361ee8295a80dc84678198a3fbdd6fc47403f82e8c9feefc820e317f919",
    "II_5_bm.e2p": "55f20998a99a452d303d5c6062629a407c56fe77c5b418bacbdef7cfd53f8f42",
    "II_14_bm.e2p": "6a8002e3f8002fa03473a7e5fb1cfa38f01c4a77cef65dbdf09c9df39405ff60",
}


# exit code and sha256 of `oracle --json --samples 3` (seed 0) for each
# script under tests/data: slanted rational sides and tower values, which
# the corpus entries do not realize; `slanted_split_twice` prints FAILED
DATA = Path(__file__).resolve().parent / "data"
DATA_ORACLE_SHA256 = {
    "II_14_chained.e2p": (0, "4672de842ed06f3ce79c83eb80601042712a6abbabf181a1687d4cf42ce35b45"),
    "rect_extended_ve.e2p": (0, "e141f6b816c091f8759b03a4a863c178901ecbdbd91d5882b60d103af37f39b5"),
    "slanted_split.e2p": (0, "4e2f86b8dd661b7c3a0bed37ccee0591ab7ddd65fc35de2d4a65b5fe98bed273"),
    "slanted_split_twice.e2p": (1, "7273a8e7feb1b82e4a33b6ee77d7e662d7efc710d63e5c9dd0cbfd47cb58030b"),
}


# exit code and sha256 of `check --json --emit-certs` stdout followed by its
# sidecar under each profile, run from tests/data, and of `render` stdout,
# for each script under tests/data; II_14_chained is the one script with
# tower coordinates and CN1 steps
DATA_CHECK_SHA256 = {
    "II_14_chained.e2p@default": (0, "54fac17cfb242db08a348fe0e75c77b3e3c8a63cfe28923411bd0869c1ead188"),
    "II_14_chained.e2p@bm-dissection": (0, "33b624ab50305f6270ad1753846d3f17e2e3aa8f177717e6d37cf885378ab9a6"),
    "rect_extended_ve.e2p@default": (0, "5f16e8bf16a35ff7a38d458058e86e2ecbc5f38f273db8c57dc5ad71e7e2045d"),
    "rect_extended_ve.e2p@bm-dissection": (0, "5cb73601b3ba1d9ce90cf00e05c2461500abb6fdfefc9f0635832b500c3b30bc"),
    "slanted_split.e2p@default": (0, "fe87bea9a3d2ffc4bffacbe0cc153860f78d9abfcf5ac0201feed7efecdc1f41"),
    "slanted_split.e2p@bm-dissection": (0, "75cdb8277309d15517c3f95a22d939a91b3d918c9d910556c99fab68264eb8cd"),
    "slanted_split_twice.e2p@default": (1, "961a30c4e04d7a79cfbe316811f03a5f22d32a299338b8d83078fd2cb0acbd93"),
    "slanted_split_twice.e2p@bm-dissection": (1, "5ba4fe410bd44602ff9f4b5ebecbd7d19ac7924359f819ad228b0e266a59e2be"),
}
DATA_SVG_SHA256 = {
    "II_14_chained.e2p": (0, "651dc89f9d34cb992fd6f99bf99a2793149aaa2ba71a01dcb578c768520b0ff0"),
    "rect_extended_ve.e2p": (0, "c2d012c7f40a76c24a204be89ce0ba8c4426e503cd0aeed9dfac85b853cb7bf7"),
    "slanted_split.e2p": (0, "ed3c0d51a49f2c2e73801aedde7741eeb2054332cfe8fb7ba488a2a4ea34a214"),
    "slanted_split_twice.e2p": (0, "69a91480b16cd9e320c96988fc103eb1e64bfef8ce4aeff79809cfd5316a1681"),
}


# exit codes of `check` and of `annotate`, and sha256 of their two stdouts
# joined, both in text form under one profile, for every corpus, `neg/` and
# tests/data script, run from its own directory; the text reports carry the
# verdicts, colors, flags and blue premises a reader sees
TEXT_SHA256 = {
    "II_1.e2p@default": (0, 0, "c8f3eabaa96247b1e17976d74735e07b14e78fbb024891d3b019960e30d52762"),
    "II_1.e2p@bm-dissection": (0, 0, "7246b4a72a6b081560dc0fdffba7bdeed5bb126a2f20ac9f93b212d19a7c7fb7"),
    "II_10.e2p@default": (0, 0, "4f314efdcb32cb7aa1b941c7683231ee65d6b71527a47f0e1ee715758f5b367c"),
    "II_10.e2p@bm-dissection": (0, 0, "770eec30f177fb22c051fd5655ada8a881111ca9c6384af05c4bff4bae4b8b27"),
    "II_11.e2p@default": (0, 0, "f9e703f4a19e50ad318171ebe3bf039e5b20693f06199a7243a581d1a06f598f"),
    "II_11.e2p@bm-dissection": (0, 0, "48fd90ab0d2c6a3650ba06f77e4056188da924e30cd5145552f53f3a7e3c7fcb"),
    "II_12.e2p@default": (0, 0, "5c8da72b3b8840f8614008565318c9153f5a30c3ec057a7b3c4b425eabab84b6"),
    "II_12.e2p@bm-dissection": (0, 0, "1f49a4a62b0a57277c1642cf575afe33e40061e7482965655385901e2e06af59"),
    "II_13.e2p@default": (0, 0, "fba937b94e6ddfdf4b7f6be2bd9d65aae57a3dc2e1491f06784f1c294ac48f30"),
    "II_13.e2p@bm-dissection": (0, 0, "649971d7554214389571b8c05f855114ed6e2224278921b42248089a59e4c57e"),
    "II_14.e2p@default": (0, 0, "d06a5d2b42ff051eb7997892651b72e3f4ea71a369aa9a533ae6bdbf823e09ea"),
    "II_14.e2p@bm-dissection": (0, 0, "a380463ee666402d3e7f056011180d730e319f60a49ba790936329459fbb4ab5"),
    "II_14_bm.e2p@default": (1, 1, "a7806191ee19b0078f263c19daee80ff5430086dd61b1e80f59a240220b70657"),
    "II_14_bm.e2p@bm-dissection": (0, 0, "3e8ccc3fd0e9777654f8d981991d5fb154f2709c41d1d399f2180f26f7d7fb59"),
    "II_2.e2p@default": (0, 0, "429c6122684735de4385da234f3bd31389d034014f9b2219a595d2544a302c16"),
    "II_2.e2p@bm-dissection": (0, 0, "2af699fa03244e5ab60fdc4cc6900c3ad132497b881b46563ad8b9a85d2538e2"),
    "II_3.e2p@default": (0, 0, "3fc20a9a8c124f98af35bd6eb43596d4de6f9a733bd21ff9c2e15fa216950cde"),
    "II_3.e2p@bm-dissection": (0, 0, "8e963371bd50fa307819ae0527b664b6286a15826af58392c75c6cdd7b7ca585"),
    "II_4.e2p@default": (0, 0, "1116e0b2116bebb1044a5948c9941c22b0f2540bcf7a46669bc3cc8705885b1f"),
    "II_4.e2p@bm-dissection": (0, 0, "fd8afd141365877219133a3e3c7ab23de034d663e6d1beb517dd6c3faf6f8ad2"),
    "II_5.e2p@default": (0, 0, "37b6d2cd7029f3689337cbff9aeaeed2f8a171b0f895af8b6ea10d27fac38ba5"),
    "II_5.e2p@bm-dissection": (0, 0, "6389d4200ea5c333c4b025205baf0674acb75b637de3b4ba38eef74469fe8c01"),
    "II_5_bm.e2p@default": (1, 1, "e5a6132148579437b73e3c46652fb981d0075687577f4e371954bc3bd42ed2f1"),
    "II_5_bm.e2p@bm-dissection": (0, 0, "3d59beb36ca2de5b79d01780c4d9b2a84a9b94bdddb79775a1e0780bed551865"),
    "II_6.e2p@default": (0, 0, "3e08f155752d8d5db9a3bbfa9d246048160519125e2246abb8a65e2720381b96"),
    "II_6.e2p@bm-dissection": (0, 0, "a14bcab3d9579cd1d5150c8127ab756370ba1fd2f0060fccbde857c4d3dbcdd1"),
    "II_7.e2p@default": (0, 0, "da65ff789868463598cb2848efc4294ae34d38104d12e5f464630dfff4118db4"),
    "II_7.e2p@bm-dissection": (0, 0, "6ee1e1e11a814b0cd5c82c9f3bb18ff065956b40c81d507a9c8138c8dab08936"),
    "II_8.e2p@default": (0, 0, "e6ad5e581828c85d44fd83faff27c54c015d1977d303d2219ae5fc0c31cf6139"),
    "II_8.e2p@bm-dissection": (0, 0, "f46df90240ab6fc8f85bc35c2f86aeef307361ed87db0e1d7469855cdff707f6"),
    "II_9.e2p@default": (0, 0, "c85fd6227a8a46969fe1b195d13a8bcea342d39a881b3b3d28c67105e22a8268"),
    "II_9.e2p@bm-dissection": (0, 0, "202882ac5ac20d9105659abfeb816a91e8cd1a861fa7a92b8badf2565c1e022d"),
    "neg/II_11_no_rangle.e2p@default": (1, 1, "ea67858410a95068c67cee25551bdea52af87433b7fa3e86053d2a0b6cd61f63"),
    "neg/II_11_no_rangle.e2p@bm-dissection": (1, 1, "495ed0be66a4b7d8df6eb1f94b0308d0b80796e68058dad7962d3c0ca19bed32"),
    "neg/II_14_no_common.e2p@default": (1, 1, "31bbfeed62a6670683000e0bd11a90663a41719f10184a38e6a515813257ace3"),
    "neg/II_14_no_common.e2p@bm-dissection": (1, 1, "b920b662f2b95f378bd02bd6fe740dff7cfe203d57ed91326424e96b96a39686"),
    "neg/II_14_wrong_radius.e2p@default": (1, 1, "bebc0362d6c2dee40f299426a8ff0e2ba2c82abf10b252148501b042bd87daf0"),
    "neg/II_14_wrong_radius.e2p@bm-dissection": (1, 1, "554fa6c37d03d985ac26444172b56758cf07a9a32793dff118f4be55a9583f56"),
    "neg/II_1_false_ve.e2p@default": (1, 1, "4853dce7a1c6c0869c25f7ead3f09dfba893b3d391461beb3c7d0789f56dfbbe"),
    "neg/II_1_false_ve.e2p@bm-dissection": (1, 1, "f3af72c7899762760f96aa59ff91c32773c5196535a1e90b20a99cceefec86c9"),
    "neg/II_2_claim_mismatch.e2p@default": (1, 1, "06719003ebbd34fa68462e1ce81e3ec121d56d2d674af6ca39ca26886ab40943"),
    "neg/II_2_claim_mismatch.e2p@bm-dissection": (1, 1, "22ee3bff0470a404f5672134bedb4d53e4ced3342f76d691efaef3361581b63e"),
    "neg/II_4_commuted.e2p@default": (1, 1, "050d22519403a78bddf30b64f9286d8880909c8ef22080e0aca3d61cb3195d1e"),
    "neg/II_4_commuted.e2p@bm-dissection": (1, 1, "f94426abdd74fe67289e938ba31f35a575ac3f9af021cc4245ee3980e04ed8d7"),
    "neg/II_4_double_distinct.e2p@default": (1, 1, "a1c239b98488389dc11919ebcc9f3bd1124abfa627617b96c10b19502d88cc6c"),
    "neg/II_4_double_distinct.e2p@bm-dissection": (1, 1, "5517febf06279d94e3f0f4cc5975d9d3df4d95e0e47462b76c19b6b04dd2fcc6"),
    "neg/II_5_bad_i43.e2p@default": (1, 1, "a697a0de2db75919c99da64348838984fadc080e3aeed3c0097c768fb5b34929"),
    "neg/II_5_bad_i43.e2p@bm-dissection": (1, 1, "3c723aa6e110c194bf8687d50bde9ad21c15e88870ab63ddf6867c7aa5e9d309"),
    "neg/II_7_merge_overlap.e2p@default": (1, 1, "c709c416726b9b14e1e30221941c4f658d9d38b5b906c8ff9d0615eb38b78ab4"),
    "neg/II_7_merge_overlap.e2p@bm-dissection": (1, 1, "acf717aa5a44f217f80b9a0e1e16eeaae79a0370a1895a68df7cd1c15e689077"),
    "neg/II_9_missing_hyp.e2p@default": (1, 1, "0e18450b049f030795edf670d09cd0b290fa18d3ec3a358a888cd891f1010362"),
    "neg/II_9_missing_hyp.e2p@bm-dissection": (1, 1, "112159e4a677dc401e4db1b66f750e0276140cfba1873f795bbb1f09a0f35baf"),
    "neg/mueller_congruence.e2p@default": (1, 1, "28ebbb90ba0bec3910c35b591a1edac75ba94997ffe7ba9891276b3afd7e785e"),
    "neg/mueller_congruence.e2p@bm-dissection": (1, 1, "6de5a2aea3ad585f6b3c56c1041f31cefc479b05d730b6bdc370907e291333c1"),
    "II_14_chained.e2p@default": (0, 0, "273ef3ac317f12ad88ffd41a3b2d1e0bacb2cb7a7e722a927c10fb75954f0550"),
    "II_14_chained.e2p@bm-dissection": (0, 0, "71e596aa3b213b171c0da6b55ac53f87e101f63ae5fbb4ee4d3d05d32aeedd08"),
    "rect_extended_ve.e2p@default": (0, 0, "54fc4a4fe290aee95d7b080ab9f5001d1e320867a12888cda07d013d256ee3b5"),
    "rect_extended_ve.e2p@bm-dissection": (0, 0, "487f74bea96b08979cc660466795ee419ea29646af1eb68c245c0d2d75f30504"),
    "slanted_split.e2p@default": (0, 0, "6def9ea34846f61a20cdf9b5501381eaa2d99ea57434ee73a504bc62bd415665"),
    "slanted_split.e2p@bm-dissection": (0, 0, "66af352b1f9dd8999d6d7060d988fdc43dcec912ac6cc60e6ad62d9229b94ef9"),
    "slanted_split_twice.e2p@default": (1, 1, "47172bd48d78402933492827a839d4f73fb95cb3c2885e2c05a82b0119a2c689"),
    "slanted_split_twice.e2p@bm-dissection": (1, 1, "f8026713fb8de986646dc5ec984e15dd8e8141d58cce58b8b5a23d13a24c0211"),
}


def _cli_stdout(args, capsys) -> tuple[int, str]:
    code = cli.main(args)
    return code, capsys.readouterr().out


def test_check_json_and_certificates_match_golden_digests(tmp_path, monkeypatch, capsys):
    cases = ENTRIES + NEGATIVES
    assert sorted(CHECK_SHA256) == sorted(f"{e['file']}@{e['profile']}" for e in cases)
    monkeypatch.chdir(Path(str(corpusdata.corpus_root())))
    sidecar = tmp_path / "certs.json"
    for entry in cases:
        key = f"{entry['file']}@{entry['profile']}"
        code, out = _cli_stdout(
            ["check", "--json", "--profile", entry["profile"],
             "--emit-certs", str(sidecar), entry["file"]],
            capsys,
        )
        digest = hashlib.sha256((out + sidecar.read_text()).encode()).hexdigest()
        assert (code, digest) == CHECK_SHA256[key], key


def test_oracle_json_matches_golden_digests(monkeypatch, capsys):
    assert sorted(ORACLE_SHA256) == sorted(e["file"] for e in ENTRIES)
    monkeypatch.chdir(Path(str(corpusdata.corpus_root())))
    for entry in ENTRIES:
        code, out = _cli_stdout(["oracle", "--json", "--samples", "3", entry["file"]], capsys)
        assert code == 0, entry["file"]
        assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256[entry["file"]], entry["file"]


def test_data_oracle_json_matches_golden_digests(capsys):
    assert sorted(DATA_ORACLE_SHA256) == sorted(p.name for p in DATA.glob("*.e2p"))
    for name, want in DATA_ORACLE_SHA256.items():
        code, out = _cli_stdout(["oracle", "--json", "--samples", "3", str(DATA / name)], capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == want, name


def test_data_check_json_and_render_match_golden_digests(tmp_path, monkeypatch, capsys):
    names = sorted(p.name for p in DATA.glob("*.e2p"))
    assert sorted(DATA_CHECK_SHA256) == sorted(f"{n}@{p}" for n in names for p in rules.PROFILES)
    assert sorted(DATA_SVG_SHA256) == names
    monkeypatch.chdir(DATA)
    sidecar = tmp_path / "certs.json"
    for key, want in DATA_CHECK_SHA256.items():
        name, profile = key.split("@")
        code, out = _cli_stdout(
            ["check", "--json", "--profile", profile, "--emit-certs", str(sidecar), name], capsys
        )
        assert (code, hashlib.sha256((out + sidecar.read_text()).encode()).hexdigest()) == want, key
    for name, want in DATA_SVG_SHA256.items():
        code, out = _cli_stdout(["render", name], capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == want, name


def test_certificate_digest_is_sha256_of_the_document(tmp_path, capsys):
    """Every digest `check --emit-certs` writes, for the corpus and
    tests/data under each profile, is hashlib's SHA-256 of the certificate
    without its digest, as sorted-key JSON, cut to 16 hex digits."""
    root = Path(str(corpusdata.corpus_root()))
    files = sorted({str(root / e["file"]) for e in ENTRIES + NEGATIVES})
    files += sorted(str(p) for p in DATA.glob("*.e2p"))
    sidecar = tmp_path / "certs.json"
    count = 0
    for profile in rules.PROFILES:
        _cli_stdout(["check", "--json", "--profile", profile, "--emit-certs", str(sidecar),
                     *files], capsys)
        certificates = json.loads(sidecar.read_text())
        assert sorted(certificates) == sorted(files)
        for path, certs in certificates.items():
            for cert in certs:
                doc = {k: v for k, v in cert.items() if k != "digest"}
                want = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
                assert cert["digest"] == want[:16], (path, profile, cert["kind"])
                count += 1
    assert count == 56 + 59  # default, then bm-dissection


def test_a_check_builds_only_the_certificates_its_reports_carry(monkeypatch):
    """An inline naming premise is decided without a certificate, so a
    check of every corpus case builds as many certificates as its reports
    carry, and some of those premises are blue."""
    built = []
    make = rules.make_certificate
    monkeypatch.setattr(rules, "make_certificate",
                        lambda kind, payload: built.append(kind) or make(kind, payload))
    carried = blue = 0
    for entry in ENTRIES + NEGATIVES:
        report = rules.check_proof(load(entry["file"]), profile=entry["profile"])
        carried += len(report.certificates)
        blue += sum(len(step.blue_premises) for step in report.steps)
    assert len(built) == carried > 0
    assert blue > 0


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


def test_check_text_and_annotate_match_golden_digests(monkeypatch, capsys):
    corpus = sorted({e["file"] for e in ENTRIES + NEGATIVES})
    cases = [(Path(str(corpusdata.corpus_root())), n) for n in corpus]
    cases += [(DATA, p.name) for p in sorted(DATA.glob("*.e2p"))]
    assert sorted(TEXT_SHA256) == sorted(f"{n}@{p}" for _, n in cases for p in rules.PROFILES)
    for where, name in cases:
        monkeypatch.chdir(where)
        for profile in rules.PROFILES:
            check, text = _cli_stdout(["check", "--profile", profile, name], capsys)
            annotate, listing = _cli_stdout(["annotate", "--profile", profile, name], capsys)
            digest = hashlib.sha256((text + listing).encode()).hexdigest()
            assert (check, annotate, digest) == TEXT_SHA256[f"{name}@{profile}"], (name, profile)
