import hashlib
import random
from pathlib import Path

import pytest

from euclid2 import cli
from euclid2 import constructible as cr
from euclid2 import corpusdata
from euclid2 import diagram as dg
from euclid2 import oracle as orc
from euclid2 import rules
from euclid2 import script as sc
from euclid2 import svgout
from euclid2 import terms as T
from helpers import all_entries, default_entries, negative_entries

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
