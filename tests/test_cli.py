import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from euclid2 import cli, corpusdata
from euclid2 import constructible as cr
from euclid2 import diagram as dg
from euclid2 import geometry as geo
from euclid2 import oracle as orc
from euclid2 import rules
from euclid2 import script as sc
from euclid2 import svgout
from euclid2.errors import Euclid2Error, RealizeFailed, UnknownName
from euclid2.terms import Eq
from helpers import all_entries, arrangement_coverage, negative_entries

CORPUS = Path(__file__).resolve().parent.parent / "src" / "euclid2" / "corpus"
DATA = Path(__file__).resolve().parent / "data"


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_accepted_exit_zero(capsys):
    code, out, _ = run_cli(["check", str(CORPUS / "II_5.e2p")], capsys)
    assert code == 0
    assert "Accepted" in out


def test_check_rejected_exit_one(capsys):
    code, out, _ = run_cli(
        ["check", str(CORPUS / "neg" / "II_4_commuted.e2p")], capsys
    )
    assert code == 1
    assert "Rejected" in out


def test_check_missing_file_exit_two(capsys):
    code, out, _ = run_cli(["check", "missing.e2p"], capsys)
    assert code == 2


def test_check_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.e2p"
    bad.write_text(
        "prop X\npoints A B\nclaim: sq(AB) = sq(AB)\nproof:\n  1. sq(AB) = sq(AB) ; R9\nqed\n"
    )
    code, out, _ = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert "line 5, col 24: unknown rule 'R9'" in out
    # a segment or a length named by one point twice is a parse error at its
    # token, and the batch goes on to the next file
    text = corpusdata.read_script_text("II_1.e2p")
    bad.write_text(text.replace("claim: rect(A,BC)", "claim: rect(A,BB)"))
    length = tmp_path / "length.e2p"
    length.write_text(text.replace("below len |A|", "below len |GG|"))
    code, out, _ = run_cli(["check", str(bad), str(length), str(CORPUS / "II_1.e2p")], capsys)
    assert code == 2
    assert f"{bad}: parse error: line 24, col 15: segment BB is degenerate\n" in out
    assert f"{length}: parse error: line 19, col 34: segment GG is degenerate\n" in out
    assert "verdict: Accepted (6 steps)" in out
    # so is a right angle with an arm at its vertex, which would hold on
    # any diagram
    text11 = corpusdata.read_script_text("II_11.e2p")
    degenerate = "hypothesis rangle(A;A,B) ; flag degenerate\nhypothesis "
    bad.write_text(text11.replace("hypothesis ", degenerate, 1))
    code, out, _ = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert f"{bad}: parse error: line 22, col 12: right angle arm AA is degenerate\n" in out
    # so is a length copied from a segment that is not declared
    bad.write_text(text.replace("below len |A|", "below len |Z|"))
    length.write_text(text.replace("below len |A|", "below len |BZ|"))
    code, out, _ = run_cli(["check", str(bad), str(length), str(CORPUS / "II_1.e2p")], capsys)
    assert code == 2
    assert f"{bad}: parse error: line 19, col 34: segment 'Z' not declared\n" in out
    assert f"{length}: parse error: line 19, col 35: point 'Z' not in roster\n" in out
    assert "verdict: Accepted (6 steps)" in out
    # and so is a construction letter outside the roster: a point the
    # command builds or reads, or a point of a gnomon's part
    cases = [
        ("II_2.e2p", "  cut C on AB at c\n", "  cut Z on AB at c\n", "line 11, col 7", "Z"),
        ("II_7.e2p", "  join B D\n", "  join B Q\n", "line 15, col 10", "Q"),
        ("II_7.e2p", "minus DG\n", "minus DZ\n", "line 20, col 28", "Z"),
    ]
    paths = []
    for k, (name, old, new, where, point) in enumerate(cases):
        source = corpusdata.read_script_text(name)
        assert old in source
        paths.append(tmp_path / f"roster{k}.e2p")
        paths[-1].write_text(source.replace(old, new))
    code, out, _ = run_cli(["check", *map(str, paths), str(CORPUS / "II_1.e2p")], capsys)
    assert code == 2
    for path, (_, _, _, where, point) in zip(paths, cases):
        assert f"{path}: parse error: {where}: point {point!r} not in roster\n" in out
    assert "verdict: Accepted (6 steps)" in out


def test_check_json_keeps_stdout_a_json_stream(tmp_path, capsys):
    missing = str(tmp_path / "missing.e2p")
    code, out, err = run_cli(["check", "--json", str(CORPUS / "II_1.e2p"), missing], capsys)
    assert code == 2
    doc, end = json.JSONDecoder().raw_decode(out)
    assert doc["verdict"]["status"] == "accepted" and out[end:].strip() == ""
    assert f"{missing}: read error: cannot read" in err
    # text mode keeps the line on stdout
    code, out, err = run_cli(["check", missing], capsys)
    assert code == 2 and f"{missing}: read error: cannot read" in out and err == ""


def _modules_loaded_by(args=None) -> set[str]:
    """The modules a fresh interpreter loads for `import euclid2.cli` and,
    given args, for `euclid2.cli.main(args)`; compared with a snapshot taken
    before the import, so whatever `site` loads first does not count."""
    run = "" if args is None else f"euclid2.cli.main({args!r})\n"
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import euclid2.cli\n{run}"
        "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    return set(_python(code).stderr.split())


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports euclid2 from `src`."""
    path = [str(CORPUS.parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30, check=True)


_NUMBER_MODULES = {"fractions", "decimal", "numbers"}
_OPENSSL_MODULES = {"hashlib", "_hashlib"}


def test_cli_import_loads_only_what_check_runs():
    """No command loads OpenSSL: a certificate's digest comes from the
    interpreter's built-in SHA-256, so `check --emit-certs`, `annotate` and
    `render` load neither hashlib nor _hashlib, and neither does `oracle`.
    No command loads `fractions` or the modules it imports: every number is
    an `Expr`, and display rounds integer bounds."""
    loaded = _modules_loaded_by()
    assert "euclid2.rules" in loaded
    assert not loaded & {"dataclasses", "inspect", "euclid2.oracle", "euclid2.svgout",
                         *_OPENSSL_MODULES, *_NUMBER_MODULES}
    oracle = _modules_loaded_by(["oracle", str(CORPUS / "II_11.e2p"), "--samples", "3", "--json"])
    assert "euclid2.oracle" in oracle
    assert not oracle & {*_OPENSSL_MODULES, *_NUMBER_MODULES}
    certs = _modules_loaded_by(["check", "--json", "--emit-certs", os.devnull,
                                str(CORPUS / "II_1.e2p"), str(CORPUS / "II_11.e2p")])
    assert not certs & {*_OPENSSL_MODULES, *_NUMBER_MODULES}
    annotate = _modules_loaded_by(["annotate", str(CORPUS / "II_11.e2p")])
    assert not annotate & {*_OPENSSL_MODULES, *_NUMBER_MODULES}
    render = _modules_loaded_by(["render", str(DATA / "II_14_chained.e2p")])
    assert "euclid2.svgout" in render
    assert not render & {*_OPENSSL_MODULES, *_NUMBER_MODULES}


def test_certificate_digest_falls_back_to_hashlib():
    """Where the interpreter has no built-in SHA-256 module, the digest
    comes from hashlib, and it is the same."""
    payload = {"lhs": ["ABCD"], "rhs": ["AB", "CD"], "n": 3}
    proc = _python(
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from euclid2 import rules\n"
        f"doc = rules.make_certificate('VE', {payload!r})\n"
        "print(json.dumps([doc, 'hashlib' in sys.modules]))\n"
    )
    doc, hashlib_loaded = json.loads(proc.stdout)
    assert hashlib_loaded
    assert doc == rules.make_certificate("VE", payload)
    del doc["digest"]
    assert rules.make_certificate("VE", payload)["digest"] == hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()[:16]


@pytest.mark.parametrize("command", ["annotate", "render", "oracle"])
def test_missing_or_unreadable_file_exit_two(command, tmp_path, capsys):
    binary = tmp_path / "binary.e2p"
    binary.write_bytes(b"\xff\xfe\x00prop")
    for path in (str(tmp_path / "missing.e2p"), str(binary)):
        code, out, err = run_cli([command, path], capsys)
        assert code == 2
        assert "cannot read" in err and out == ""


@pytest.mark.parametrize(
    "command, target",
    [(["render", str(CORPUS / "II_1.e2p"), "-o"], "x.svg"),
     (["check", str(CORPUS / "II_1.e2p"), "--emit-certs"], "c.json")],
)
def test_unwritable_output_exit_two(command, target, tmp_path, capsys):
    path = tmp_path / "missing" / target
    code, out, err = run_cli([*command, str(path)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in out + err
    assert not path.parent.exists()


def test_check_json_validates_schema(capsys):
    code, out, _ = run_cli(["check", "--json", str(CORPUS / "II_1.e2p")], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, corpusdata.report_schema())
    assert doc["steps"][0]["color"] == "red"
    assert doc["steps"][5]["color"] == "magenta"


def test_check_json_rejected_carries_cause(capsys):
    code, out, _ = run_cli(
        ["check", "--json", str(CORPUS / "neg" / "II_1_false_ve.e2p")], capsys
    )
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, corpusdata.report_schema())
    assert doc["verdict"] == {"status": "rejected", "step": 1, "cause": "VEFailed"}


@pytest.mark.parametrize(
    "name, verdict",
    [
        ("slanted_split.e2p", {"status": "accepted"}),
        ("slanted_split_twice.e2p", {"status": "rejected", "step": 1, "cause": "VEFailed"}),
    ],
)
def test_slanted_split_takes_the_arrangement(name, verdict, monkeypatch, capsys):
    """A rectangle cut by a slanted segment: VE compares figures with a
    slanted edge from the CLI, and the one coverage call answers as the
    sampled-arrangement reference does."""
    calls = []
    coverage = geo.coverage_equal

    def recording(*args):
        calls.append((args, coverage(*args)))
        return calls[-1][1]

    monkeypatch.setattr(geo, "coverage_equal", recording)
    code, out, _ = run_cli(["check", "--json", str(DATA / name)], capsys)
    doc = json.loads(out)
    jsonschema.validate(doc, corpusdata.report_schema())
    assert doc["verdict"] == verdict
    assert code == (0 if verdict["status"] == "accepted" else 1)
    [(args, res)] = calls
    reference = arrangement_coverage(*args)
    assert (res.equal, res.exact, res.max_multiplicity) == (
        reference.equal, reference.exact, reference.max_multiplicity)
    assert res.equal is (verdict["status"] == "accepted")


def test_ve_reads_rectangles_through_pi_namings(capsys):
    """VE binds each rect(...) term through a `pi` step: an extended VE."""
    code, out, _ = run_cli(["check", "--json", str(DATA / "rect_extended_ve.e2p")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == {"status": "accepted"}
    assert doc["steps"][2]["flags"] == ["extended-VE"]


def test_chained_quadrature_is_decided_in_a_tower(capsys):
    """II.14 applied twice puts the nested radical 2^(1/4) into the diagram;
    every comparison is decided exactly, so the relettered II.14 proof is
    accepted, the oracle agrees on every target and rendering is stable."""
    path = str(DATA / "II_14_chained.e2p")
    code, out, _ = run_cli(["check", "--json", path], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == {"status": "accepted"}
    assert [s["color"] for s in doc["steps"]] == [
        "violet", "plain", "plain", "plain", "violet", "magenta", "plain"]
    code, out, _ = run_cli(["oracle", path, "--samples", "5"], capsys)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 7
    assert all(line.endswith(": ok (5 samples)") for line in lines)
    first, second = (run_cli(["render", path], capsys) for _ in range(2))
    assert first == second and first[0] == 0 and first[1].startswith("<svg")


def test_check_many_files_ordered_output(capsys):
    files = [str(CORPUS / f"II_{k}.e2p") for k in (3, 1, 2)]
    code, out, _ = run_cli(["check", *files], capsys)
    assert code == 0
    pos = [out.index(f"II.{k} [default]") for k in (1, 2, 3)]
    assert pos == sorted(pos)


def test_annotate_and_compare(tmp_path, capsys):
    code, out, _ = run_cli(["annotate", str(CORPUS / "II_1.e2p")], capsys)
    assert code == 0
    colors = [line.split("[")[1].split("]")[0].strip() for line in out.strip().splitlines()]
    assert colors == ["red", "violet", "violet", "violet", "violet", "magenta"]
    golden = tmp_path / "golden.txt"
    golden.write_text(" ".join(colors) + "\n")
    code, out, _ = run_cli(
        ["annotate", str(CORPUS / "II_1.e2p"), "--compare", str(golden)], capsys
    )
    assert code == 0 and "colors match" in out
    golden.write_text("red red red red red red\n")
    code, out, _ = run_cli(
        ["annotate", str(CORPUS / "II_1.e2p"), "--compare", str(golden)], capsys
    )
    assert code == 1 and "mismatch" in out


def test_render_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run_cli(["render", str(CORPUS / "II_14.e2p"), "-o", str(out1)], capsys)[0] == 0
    assert run_cli(["render", str(CORPUS / "II_14.e2p"), "-o", str(out2)], capsys)[0] == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert "<svg" in text and "arc-G" in text
    for label in "BGEFH":
        assert f'id="pt-{label}"' in text


def test_render_marks_ve_figures(tmp_path, capsys):
    out = tmp_path / "ii1.svg"
    run_cli(["render", str(CORPUS / "II_1.e2p"), "-o", str(out)], capsys)
    text = out.read_text()
    assert 'id="ve-BH"' in text and 'id="ve-BK"' in text


def test_oracle_command(capsys):
    code, out, _ = run_cli(
        ["oracle", str(CORPUS / "II_4.e2p"), "--samples", "5"], capsys
    )
    assert code == 0
    assert "diorismos: ok" in out


def test_oracle_json_records(capsys):
    code, out, _ = run_cli(
        ["oracle", str(CORPUS / "II_12.e2p"), "--samples", "3", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["target"] == "diorismos"
    assert len(doc[0]["samples"]) == 3
    assert all(r["ok"] for r in doc[0]["samples"])


@pytest.mark.parametrize("name", sorted({e["file"] for e in all_entries()}))
def test_oracle_json_is_each_targets_records(name, capsys):
    """Drawing once for all targets gives each target the records that
    `check_numeric_detailed` gives it alone."""
    code, out, err = run_cli(
        ["oracle", str(CORPUS / name), "--json", "--seed", "3", "--samples", "3"], capsys
    )
    assert (code, err) == (0, "")
    script = sc.parse_script(corpusdata.read_script_text(name))
    claims = [script.diorismos] + [s.claim for s in script.steps if isinstance(s.claim, Eq)]
    want = [orc.check_numeric_detailed(c, script, samples=3, seed=3) for c in claims]
    assert [t["samples"] for t in json.loads(out)] == want


def test_oracle_realizes_each_draw_once(monkeypatch, capsys):
    calls = _counting_realize(monkeypatch)
    code, out, _ = run_cli(["oracle", str(CORPUS / "II_8.e2p"), "--samples", "20"], capsys)
    assert code == 0 and out.count("ok (20 samples)") > 1
    assert len(calls) == 20


def test_oracle_corrupted_claim_fails(tmp_path, capsys):
    text = corpusdata.read_script_text("II_12.e2p").replace(
        "claim: sq(CB) = sq(CA) + sq(AB) + 2*rect(CA,AD)",
        "claim: sq(CB) = sq(CA) + sq(AB)",
    )
    bad = tmp_path / "bad.e2p"
    bad.write_text(text)
    code, out, _ = run_cli(["oracle", str(bad), "--samples", "3"], capsys)
    assert code == 1
    assert "FAILED" in out


_NEAR_MISS = """prop near-miss
points A B C
line A C B
construct:
  place AB = 1
  cut C on AB at 999999999999/1000000000000
claim: sq(AB) = sq(AC)
proof:
qed
"""
# AC = sqrt 2 and AE = sqrt 3, so rect(AC,AE) is a tower element over Q(sqrt 2)
_MIXED = """prop mixed-radicands
points A B C D E
construct:
  place AB = 1
  square ABCD on AB below
  perp E from B on AB above len |AC|
claim: {claim}
proof:
qed
"""


@pytest.mark.parametrize(
    "text, code, out, err",
    [
        # one part in 10**12 apart: decided false, however close
        (_NEAR_MISS, 1, "diorismos: FAILED (2 samples)\n", ""),
        # commuted operands, and (x + 1) + 1 against x + 2: exact zeros
        (_MIXED.format(claim="rect(AC,AE) = rect(AE,AC)"), 0, "diorismos: ok (2 samples)\n", ""),
        (
            _MIXED.format(claim="rect(AC,AE) + sq(AB) + sq(AB) = rect(AC,AE) + 2*sq(AB)"),
            0, "diorismos: ok (2 samples)\n", "",
        ),
    ],
    ids=["near-miss", "commuted", "reassociated"],
)
def test_oracle_decides_each_draw_exactly(text, code, out, err, tmp_path, capsys):
    path = tmp_path / "claim.e2p"
    path.write_text(text)
    assert run_cli(["oracle", str(path), "--samples", "2"], capsys) == (code, out, err)


def test_emit_certs_sidecar(tmp_path, capsys):
    sidecar = tmp_path / "ii4.cert.json"
    path = str(CORPUS / "II_4.e2p")
    code, _, _ = run_cli(["check", path, "--emit-certs", str(sidecar)], capsys)
    assert code == 0
    certs = json.loads(sidecar.read_text())[path]
    kinds = {c["kind"] for c in certs}
    assert {"VE", "NAME", "I43"} <= kinds
    ve = [c for c in certs if c["kind"] == "VE"]
    assert all("lhs" in c and "rhs" in c for c in ve)


def test_emit_certs_keyed_by_file(tmp_path, capsys):
    paths = [str(CORPUS / "II_4.e2p"), str(CORPUS / "II_1.e2p")]
    single = {}
    for path in paths:
        sidecar = tmp_path / "one.json"
        assert run_cli(["check", path, "--emit-certs", str(sidecar)], capsys)[0] == 0
        single[path] = json.loads(sidecar.read_text())[path]
    sidecar = tmp_path / "both.json"
    assert run_cli(["check", *paths, "--emit-certs", str(sidecar)], capsys)[0] == 0
    assert json.loads(sidecar.read_text()) == single
    assert all(single.values())


def test_check_multiple_count_below_two_exit_two(tmp_path, capsys):
    text = corpusdata.read_script_text("II_1.e2p").replace(
        "claim: rect(A,BC) =", "claim: 1*rect(A,BC) ="
    )
    bad = tmp_path / "bad.e2p"
    bad.write_text(text)
    code, out, _ = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert "parse error" in out


@pytest.mark.parametrize(
    "param, where",
    [
        ("param e = 1/5", "line 15, col 18: parameter 'd' not declared"),
        ("param Q9 = 1/5", "line 11, col 7: length-parameter name, got 'Q9'"),
    ],
)
def test_undeclared_parameter_is_a_parse_error(param, where, tmp_path, capsys):
    # `cut D on CB at d` names the parameter that the `param` line declared
    text = corpusdata.read_script_text("II_5.e2p")
    assert "param d = 1/5\n" in text
    bad = tmp_path / "bad.e2p"
    bad.write_text(text.replace("param d = 1/5", param))
    code, out, _ = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert f"parse error: {where}" in out


@pytest.mark.parametrize("command", ["check", "render", "oracle"])
def test_malformed_gnomon_is_a_diagram_error(command, tmp_path, capsys):
    lines = corpusdata.read_script_text("II_5.e2p").splitlines(keepends=True)
    assert lines[23] == "  gnomon NOP = CEFB minus LG\n"
    lines[23] = "  gnomon NOP = CEFB minus CEFB\n"
    bad = tmp_path / "bad.e2p"
    bad.write_text("".join(lines))
    code, out, err = run_cli([command, str(bad)], capsys)
    assert code == 1
    reason = "corner box does not sit in a corner of the outer box"
    if command == "check":
        assert f"Rejected at step 0: RealizeFailed: {reason}" in out
    elif command == "render":
        assert err == f"realize failed: {reason}\n"
    else:
        assert err == f"diorismos: oracle error: realize failed: {reason}\n"


NOTHING_DRAWN = """prop X
points A B
construct:
claim: sq(AB) = sq(AB)
proof:
  1. sq(AB) = sq(AB) ; VE
qed
"""


@pytest.mark.parametrize(
    "command, code", [("check", 1), ("annotate", 1), ("render", 0), ("oracle", 1)]
)
def test_a_script_that_draws_nothing(command, code, tmp_path, capsys):
    """A script with no construction parses; `check` rejects it, `render`
    draws the padding alone, and no command ends in a traceback."""
    path = tmp_path / "empty.e2p"
    path.write_text(NOTHING_DRAWN)
    got, out, err = run_cli([command, str(path)], capsys)
    assert got == code
    assert "Traceback" not in out + err
    if command == "check":
        assert "Rejected at step 1: UnboundFigure" in out
    elif command == "render":
        assert 'width="80" height="80" viewBox="0 0 80 80"' in out


# the claim cites the side AD of square ABCD as a figure, so the name binds
# no region and the diagram keeps why
SIDE_AS_FIGURE = """prop X
points A B C D
construct:
  place AB = 1
  square ABCD on AB below
claim: fig(AD) = fig(AD)
proof:
  1. fig(AD) = fig(AD) ; VE
qed
"""


def _check_and_drop(text: str, profile: str, unbound: str | None = None):
    """Parse, realize, check, report and render one script, and look the
    unbound figure name up twice; everything made here is dropped on return."""
    script = sc.parse_script(text)
    try:
        inst = dg.realize(script)
    except Euclid2Error:
        inst = None
    report = rules.check_proof(script, instance=inst, profile=profile)
    sc.emit_report(report, "json", timing=True)
    sc.emit_report(report, "text", timing=True)
    if inst is not None:
        svgout.render_svg(script, inst, report)
    if unbound is not None:
        for _ in range(2):
            with pytest.raises(UnknownName, match="does not span a rectangle"):
                inst.region(unbound)


def test_checking_leaves_no_cyclic_garbage():
    """A check makes no reference cycle, so reference counting frees each
    script's diagram and fact base as soon as its report is written, and
    the collector finds nothing after any script, error paths included."""
    files = sorted({CORPUS / e["file"] for e in all_entries() + negative_entries()})
    cases = [(path.name, path.read_text(), None) for path in files]
    cases += [(path.name, path.read_text(), None) for path in sorted(DATA.glob("*.e2p"))]
    cases += [("nothing drawn", NOTHING_DRAWN, None), ("side as figure", SIDE_AS_FIGURE, "AD")]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for name, text, unbound in cases:
            for profile in rules.PROFILES:
                _check_and_drop(text, profile, unbound)
                assert gc.collect() == 0, (name, profile)
    finally:
        if enabled:
            gc.enable()


ZERO_BASE = """prop zero-base
points A B C D E F G H O
construct:
  place AB = 1
  cuthalf C on AB
  cuthalf D on AB
  cuthalf O on AB
  semicircle on AB center O above
  {construction}
claim: sq(AB) = sq(AB)
proof:
  1. sq(AB) = sq(AB) ; R2 [AB == AB]
qed
"""


@pytest.mark.parametrize("command", ["check", "render", "oracle"])
@pytest.mark.parametrize(
    "construction",
    [
        "extend CD to E by 1",
        "extend CD to E with EB = AB",
        "intersect E = line CD x circle O above",
        "join C D",
        "parallel E through A along CD meet AB",
        "parallel E through A along AB meet CD",
        "parallel E through A along CD",
        "intersect E = line AB x line CD",
        "cut E on CD at 1/2",
        "cuthalf E on CD",
        "extend AB to E with EB = CD",
        "square CGHD on CD below",
        "perp F from C on CD above len 1",
        "semicircle on CD center C above",
    ],
)
def test_zero_length_base_is_a_diagram_error(construction, command, tmp_path, capsys):
    """C and D are both the midpoint of AB, so the line CD has no length to
    join, cut, scale by, copy, intersect along, draw a parallel, square,
    perpendicular or semicircle on."""
    bad = tmp_path / "zero.e2p"
    bad.write_text(ZERO_BASE.format(construction=construction))
    code, out, err = run_cli([command, str(bad)], capsys)
    assert code == 1
    assert "Traceback" not in out + err
    reason = "segment CD has zero length"
    if command == "check":
        assert f"Rejected at step 0: RealizeFailed: {reason}" in out
    elif command == "render":
        assert err == f"realize failed: {reason}\n"
    else:
        assert err == f"diorismos: oracle error: realize failed: {reason}\n"


@pytest.mark.parametrize(
    "flags, where",
    [
        ("flags allow-overlpa", "col 7: unknown flag 'allow-overlpa'"),
        ("flags allow-overlap bogus", "col 21: unknown flag 'bogus'"),
    ],
)
def test_unknown_flag_is_a_parse_error(flags, where, tmp_path, capsys):
    """The checker reads only the flags it declares, so any other word is
    a parse error at its column rather than a flag silently dropped."""
    text = corpusdata.read_script_text("II_7.e2p")
    assert "\nflags allow-overlap\n" in text
    bad = tmp_path / "flags.e2p"
    bad.write_text(text.replace("\nflags allow-overlap\n", f"\n{flags}\n"))
    code, out, _ = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert f"parse error: line 10, {where}" in out


def _counting_realize(monkeypatch) -> list:
    calls = []
    realize = dg.realize
    monkeypatch.setattr(dg, "realize", lambda *args: calls.append(args) or realize(*args))
    return calls


def test_parameter_free_script_is_realized_once(monkeypatch):
    """Without `param` lines every draw gives the same diagram, so the
    oracle's first failed realize is final."""
    script = sc.parse_script(ZERO_BASE.format(construction="extend CD to E by 1"))
    calls = _counting_realize(monkeypatch)
    with pytest.raises(RealizeFailed, match="^realize failed: segment CD has zero length$"):
        orc.sample_instance(script, random.Random(0))
    assert len(calls) == 1


def test_draw_independent_failure_is_final(monkeypatch):
    """The malformed gnomon fails at every draw and at the parameter's
    default, so the oracle stops after one draw and one default realize."""
    text = corpusdata.read_script_text("II_5.e2p")
    script = sc.parse_script(text.replace("minus LG", "minus CEFB"))
    calls = _counting_realize(monkeypatch)
    with pytest.raises(RealizeFailed, match="^realize failed: corner box does not sit"):
        orc.sample_instance(script, random.Random(0))
    assert len(calls) <= 2


def test_draw_dependent_failure_still_retries(monkeypatch):
    """With `param d = 2/5` the cut at d falls outside CB = 1/2 for a quarter
    of the draws but not at the default, so a failed draw is retried."""
    text = corpusdata.read_script_text("II_5.e2p")
    script = sc.parse_script(text.replace("param d = 1/5", "param d = 2/5"))
    half = cr.rational(1, 2)
    seed = next(
        s for s in range(200)
        if geo.cmp(orc._draw_params(orc._base_params(script), random.Random(s))["d"], half) >= 0
    )
    calls = _counting_realize(monkeypatch)
    _inst, params = orc.sample_instance(script, random.Random(seed))
    assert geo.cmp(params["d"], half) < 0
    assert len(calls) >= 3  # the failed draw, the default, a later draw
    realized, default = calls[1]
    assert realized == script and list(default) == ["d"]
    assert geo.cmp(default["d"], cr.rational(2, 5)) == 0


@pytest.mark.parametrize(
    "flags", [["--samples", "0"], ["--samples", "-3"], ["--tol", "1e-9"]]
)
def test_oracle_bad_option_exit_two(flags, capsys):
    code, out, _ = run_cli(["oracle", str(CORPUS / "II_4.e2p"), *flags], capsys)
    assert code == 2
    assert "ok" not in out


def test_console_script_installed():
    exe = shutil.which("euclid2")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "check", str(CORPUS / "II_2.e2p")], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "Accepted" in proc.stdout


def _cli_subprocess(args):
    """Run the CLI in a child with a hard timeout, so a hang fails the test
    instead of stalling the suite; returns (returncode, stdout, seconds)."""
    path = [str(CORPUS.parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "euclid2.cli", *args],
        capture_output=True, text=True, env=env, timeout=30,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - t0


@pytest.mark.parametrize("h", ["1000000007/2", "10000019/2"])
def test_large_prime_parameter_checks_without_hanging(h, tmp_path):
    # EH = sqrt(w*h) with w = 2: its radicand is the prime 1000000007 (or
    # 10000019), and the oracle's draws multiply it by further large
    # factors; trial division up to the square root stalls on both
    text = (CORPUS / "II_14.e2p").read_text(encoding="utf-8")
    assert "param h = 1/2" in text
    path = tmp_path / "II_14_big.e2p"
    path.write_text(text.replace("param h = 1/2", f"param h = {h}"), encoding="utf-8")
    code, out, elapsed = _cli_subprocess(["check", "--json", str(path)])
    assert code == 0 and json.loads(out)["verdict"]["status"] == "accepted"
    code, out, elapsed_oracle = _cli_subprocess(["oracle", "--samples", "3", str(path)])
    assert code == 0 and "diorismos: ok (3 samples)" in out
    # acceptance criterion 1's bound for the whole corpus
    assert elapsed + elapsed_oracle < 5.0, (elapsed, elapsed_oracle)
