"""Pins the functions of src/euclid2 that the commands never run.

`tests/unrun.py` runs every command over the corpus and tests/data/ and
lists each function that never ran.  Each one must be allowed here with its
reason; a function that starts to run, or is deleted, must leave the list.
"""

import subprocess
import sys
from pathlib import Path

UNRUN = Path(__file__).resolve().parent / "unrun.py"

_PARSE_ERROR = "user-reachable: malformed input; tests/test_cli.py::test_check_parse_error_exit_two"
_ROUND_TRIP = "public API: format_script prints it; tests/test_parser.py::test_roundtrip_corpus"
_BENCHMARK = "benchmark-read: perfbench/ imports or rebinds it"
_VIEW = _BENCHMARK + "; a read-only Fraction view, deleted with ROADMAP item 6 stage B"

ALLOWED = {
    "constructible.Expr.__repr__": "public API: repr of a value; tests/test_record.py",
    "constructible.Expr.interval": _VIEW,
    "constructible.Expr.quad": _VIEW,
    "constructible.Expr.rat": _VIEW,
    "constructible.max_bits_budget": _BENCHMARK,
    "corpusdata.expected": _BENCHMARK,
    "corpusdata.read_script_text": _BENCHMARK,
    "corpusdata.report_schema": "public API: the shipped report schema; tests/test_cli.py",
    "errors.ParseError.__init__": _PARSE_ERROR,
    "geometry.point_in_polygon": _BENCHMARK + "; the coverage reference in tests/helpers.py",
    "geometry.signed_area2": "user-reachable: the area of a figure that is no box and has "
    "an irrational corner, which no corpus figure is; tests/test_kernels.py",
    "errors.UndeclaredPoint.__init__": "user-reachable: undeclared point; "
    "tests/test_parser.py::test_undeclared_point",
    "errors.UnknownRule.__init__": _PARSE_ERROR,
    "oracle._realize_error": "user-reachable: a draw that fails to realize; "
    "tests/test_cli.py::test_draw_independent_failure_is_final",
    "oracle.check_numeric_detailed": _BENCHMARK
    + "; `oracle` draws once for all targets instead (tests/test_cli.py)",
    "record.FrozenRecord.__delattr__": "public API: immutability guard; tests/test_record.py",
    "record.FrozenRecord.__setattr__": "public API: immutability guard; tests/test_record.py",
    "record.Record.__repr__": "public API: repr of a record; tests/test_record.py",
    "script.CheckReport.colors": "user-reachable: annotate --compare; "
    "tests/test_cli.py::test_annotate_and_compare",
    "script.HypRef.text": _ROUND_TRIP,
    "script.LenLit.text": _ROUND_TRIP,
    "script.LenParam.text": _ROUND_TRIP,
    "script.StepRef.text": _ROUND_TRIP,
    "script.format_script": _ROUND_TRIP,
    "terms.Reader.check_label": "public API: parse_statement reads with the base Reader; "
    "tests/test_terms.py",
    "terms.Reader.err": _PARSE_ERROR,
    "terms.Reader.fail": _PARSE_ERROR,
    "terms.mk_segment": "public API: in euclid2.__all__; tests/test_terms.py",
    "terms.parse_statement": "public API: parses one statement; tests/test_terms.py",
}


def test_every_unrun_function_is_allowed():
    out = subprocess.run(
        [sys.executable, str(UNRUN)], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    unrun = set(out.split())
    assert sorted(unrun - set(ALLOWED)) == [], "never run and not allowed"
    assert sorted(set(ALLOWED) - unrun) == [], "allowed but runs or is gone"

