import json
import shutil
import subprocess
from pathlib import Path

import jsonschema
import pytest

from euclid2 import cli, corpusdata

CORPUS = Path(__file__).resolve().parent.parent / "src" / "euclid2" / "corpus"


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
    bad.write_text("prop X\nclaim: sq(AB) = sq(AB)\nproof:\n  1. sq(AB) = sq(AB) ; R9\nqed\n")
    code, _, _ = run_cli(["check", str(bad)], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["annotate", "render", "oracle"])
def test_missing_or_unreadable_file_exit_two(command, tmp_path, capsys):
    binary = tmp_path / "binary.e2p"
    binary.write_bytes(b"\xff\xfe\x00prop")
    for path in (str(tmp_path / "missing.e2p"), str(binary)):
        code, out, err = run_cli([command, path], capsys)
        assert code == 2
        assert "cannot read" in err and out == ""


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
        assert err == f"diorismos: oracle error: no valid parameter draw after 50 tries: {reason}\n"


@pytest.mark.parametrize(
    "flags", [["--samples", "0"], ["--samples", "-3"], ["--tol", "abc"]]
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
