"""The benchmark's three workloads and the correctness gate on every op.

Each workload turns the seed into a sequence of passes; a pass is a list
of ops, and every op times only the program's own work, then checks what
the program produced against `expected.json`.  `warmup_ops` ops run
untimed (but checked) before measuring, so that lazy imports and caches
are settled.  The runner in `run.py` drives the passes in a closed loop
with one client.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS_REL = "src/euclid2/corpus"
ORACLE_SAMPLES_PER_TARGET = 3
CLI_TIMEOUT_S = 120


def load_euclid2() -> SimpleNamespace:
    """Import the package from the checkout's `src` (the console script and
    the package are not installed)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = {
        "cr": "constructible", "geo": "geometry", "dg": "diagram", "rules": "rules",
        "sc": "script", "svgout": "svgout", "orc": "oracle", "errors": "errors",
        "terms": "terms", "corpusdata": "corpusdata",
    }
    m = SimpleNamespace(**{k: importlib.import_module("euclid2." + v) for k, v in names.items()})
    if Path(m.rules.__file__).parent != SRC / "euclid2":
        raise ImportError(f"euclid2 was imported from {m.rules.__file__}, not from {SRC}")
    return m


@dataclass(frozen=True)
class Case:
    """One corpus script checked under one profile, with its frozen verdict."""

    file: str
    profile: str
    expect: dict
    text: str


def load_corpus(m) -> list[Case]:
    """The 16 entries then the 12 negatives of `expected.json`."""
    exp = m.corpusdata.expected()
    return [
        Case(e["file"], e["profile"], e, m.corpusdata.read_script_text(e["file"]))
        for e in exp["entries"] + exp["negatives"]
    ]


def report_mismatch(doc: dict, expect: dict) -> str | None:
    """Compare one JSON report (as `emit_report(..., "json")` writes it) with
    its `expected.json` record; None when they agree."""
    verdict = doc["verdict"]
    if verdict["status"] != expect["verdict"]:
        return f"verdict {verdict['status']} (expected {expect['verdict']})"
    if expect["verdict"] == "rejected":
        got = (verdict["step"], verdict["cause"])
        want = (expect["step"], expect["cause"])
    else:
        steps = doc["steps"]
        got = (
            [s["color"] for s in steps],
            {str(s["index"]): s["flags"] for s in steps if s["flags"]},
            [h["flag"] for h in doc["hypotheses"]],
        )
        want = (expect["colors"], expect["step_flags"], expect["hypothesis_flags"])
    return None if got == want else f"got {got!r}, expected {want!r}"


def outcome_text(doc: dict) -> str:
    v = doc["verdict"]
    return "accepted" if v["status"] == "accepted" else f"rejected@{v['step']}:{v['cause']}"


@dataclass
class OpResult:
    label: str
    seconds: float  # the program's own time for this op
    outcome: str  # what the program answered, compared across traced/untraced runs
    error: str | None = None  # a mismatch or exception: the op failed
    stages: dict = field(default_factory=dict)  # seconds per pipeline stage
    t_start: float = 0.0  # perf_counter() when the op began


class CorpusCheck:
    """parse -> realize -> check_proof -> JSON report -> SVG, one script per op."""

    name = "corpus-check"
    units_per_op = 1  # scripts
    in_process = True

    def __init__(self, m, cases: list[Case]):
        self.m = m
        self.cases = cases
        self.warmup_ops = len(cases)

    def make_pass(self, rng):
        order = list(self.cases)
        rng.shuffle(order)
        return [(f"{c.file}@{c.profile}", lambda c=c: self.op(c)) for c in order]

    def op(self, case: Case) -> OpResult:
        m = self.m
        t0 = perf_counter()
        script = m.sc.parse_script(case.text)
        t1 = perf_counter()
        try:
            inst = m.dg.realize(script)
        except m.errors.Euclid2Error:
            inst = None  # check_proof reports RealizeFailed; nothing to render
        t2 = perf_counter()
        report = m.rules.check_proof(script, instance=inst, profile=case.profile)
        t3 = perf_counter()
        text = m.sc.emit_report(report, "json")
        t4 = perf_counter()
        svg = m.svgout.render_svg(script, inst, report) if inst is not None else None
        t5 = perf_counter()
        doc = json.loads(text)
        error = report_mismatch(doc, case.expect)
        if error is None and inst is not None and not (
            svg.startswith("<svg") and svg.endswith("</svg>\n")
        ):
            error = "render_svg returned a malformed document"
        stages = {"parse": t1 - t0, "realize": t2 - t1, "check": t3 - t2,
                  "emit": t4 - t3, "render": t5 - t4}
        return OpResult("", t5 - t0, outcome_text(doc), error, stages)


class OracleSample:
    """One numeric oracle sample per op, over the diorismos and every equality
    step claim of the 16 positive scripts."""

    name = "oracle-sample"
    units_per_op = 1  # samples
    in_process = True

    def __init__(self, m, cases: list[Case]):
        self.m = m
        self.targets = []
        for case in cases:
            if case.expect["verdict"] != "accepted":
                continue
            script = m.sc.parse_script(case.text)
            self.targets.append((f"{case.file}:claim", script.diorismos, script))
            for step in script.steps:
                if isinstance(step.claim, m.terms.Eq):
                    self.targets.append((f"{case.file}:s{step.index}", step.claim, script))
        self.warmup_ops = len(self.targets)

    def make_pass(self, rng):
        ops = [t for t in self.targets for _ in range(ORACLE_SAMPLES_PER_TARGET)]
        rng.shuffle(ops)
        return [
            (label, lambda s=stmt, sc=script, seed=rng.getrandbits(32): self.op(s, sc, seed))
            for label, stmt, script in ops
        ]

    def op(self, stmt, script, seed: int) -> OpResult:
        t0 = perf_counter()
        records = self.m.orc.check_numeric_detailed(stmt, script, samples=1, seed=seed)
        elapsed = perf_counter() - t0
        ok = len(records) == 1 and records[0]["ok"] is True
        return OpResult("", elapsed, "ok" if ok else "not ok",
                        None if ok else f"oracle record not ok: {records!r}")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class CliCold:
    """One cold `python -m euclid2.cli check --json --timing` over the 26
    default-profile corpus files per op."""

    name = "cli-cold"
    in_process = False

    def __init__(self, m, cases: list[Case]):
        self.expect = {
            f"{CORPUS_REL}/{c.file}": c.expect for c in cases if c.profile == "default"
        }
        self.units_per_op = len(self.expect)  # scripts
        self.warmup_ops = 1
        self.env = cli_env()

    def make_pass(self, rng):
        files = sorted(self.expect)
        rng.shuffle(files)
        return [("cli check x%d" % len(files), lambda: self.op(files))]

    def op(self, files: list[str]) -> OpResult:
        cmd = [sys.executable, "-m", "euclid2.cli", "check", "--json", "--timing", *files]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        elapsed = perf_counter() - t0
        docs = split_json_stream(proc.stdout)
        # The CLI prints its reports in sorted file order.
        ordered = sorted(files)
        errors = []
        if len(docs) != len(ordered):
            errors.append(f"{len(docs)} reports for {len(ordered)} files; stderr: {proc.stderr[-300:]}")
        for path, doc in zip(ordered, docs):
            err = report_mismatch(doc, self.expect[path])
            if err:
                errors.append(f"{path}: {err}")
        want_rc = 1 if any(d["verdict"]["status"] == "rejected" for d in docs) else 0
        if proc.returncode != want_rc:
            errors.append(f"exit code {proc.returncode}, reports imply {want_rc}")
        timing_ms = sum(d.get("timing_ms", 0.0) for d in docs)
        outcome = f"rc={proc.returncode} " + " ".join(outcome_text(d) for d in docs)
        return OpResult("", elapsed, outcome, "; ".join(errors) or None,
                        {"report_timing": timing_ms / 1000})


def split_json_stream(text: str) -> list[dict]:
    """The concatenated JSON documents `check --json` prints, in order."""
    dec = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            return docs
        doc, i = dec.raw_decode(text, i)
        docs.append(doc)


WORKLOADS = {w.name: w for w in (CorpusCheck, OracleSample, CliCold)}
