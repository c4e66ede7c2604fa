"""Proof-script file format (`.e2p`): parsing, canonical formatting, and
check-report serialization.

The grammar is line oriented.  A script has the shape

    prop II.5
    points A B C ...
    line A C D B
    param d = 1/5
    flags allow-overlap
    construct:
      place AB = 1
      ...
    hypothesis fig(AL) = fig(CM) ; flag I.36-external
    claim: rect(AD,DB) + sq(CD) = sq(CB)
    proof:
      1. fig(CH) = fig(HF) ; I43
      2. AH pi AD x DB ; R1 [AH pi AD x DH] [DH == DB]
    qed

Statement syntax is the stable text form from the term layer.  Step premises
are earlier steps (`s2`), hypotheses (`h1`), or inline statements in square
brackets, which the checker resolves against construction facts or, for
naming forms, against the diagram.

Each construction command, hypothesis and proof-step line is a form with a
SYNTAX template, read and printed by the term layer's engine
(`terms.Syntax`, `terms.Reader`); `_Parser` adds the section structure and
checks every name against the declarations above it.
"""

from __future__ import annotations

import enum
import json
import math
import typing
from json.encoder import encode_basestring_ascii as _quote

from .errors import ParseError, UndeclaredPoint, UnknownRule
from .record import FrozenRecord, Record
from .terms import Eq, Reader, Statement, Syntax


class Rule(enum.Enum):
    """The rules a proof step may cite.  This is the one list of rule names:
    the parser, the rule engine's handler table and the report schema all
    follow it."""

    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    CN1 = "CN1"
    CN2 = "CN2"
    CN3 = "CN3"
    VE = "VE"
    NAME = "NAME"
    I43 = "I43"
    I47 = "I47"
    DOUBLE = "DOUBLE"
    MERGE = "MERGE"
    BM = "BM"


class Flag(enum.Enum):
    """The words a `flags` header line may set; the parser rejects any
    other word.  `allow-overlap` lets MERGE aggregate overlapping figures."""

    ALLOW_OVERLAP = "allow-overlap"


# ---------------------------------------------------------------------------
# length expressions


class LenLit(FrozenRecord):
    """A rational length n/d in lowest terms, with d > 0."""

    numerator: int
    denominator: int

    def text(self) -> str:
        """`n/d`, or `n` for an integer."""
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


class LenParam(FrozenRecord):
    name: str

    def text(self) -> str:
        return self.name


class LenSeg(Syntax):
    SYNTAX = "|<seg:1-2 seg>|"
    seg: str  # "XY" or "A"


LenExpr = LenLit | LenParam | LenSeg


# ---------------------------------------------------------------------------
# construction commands
#
# Each command's concrete syntax is its SYNTAX template (see `terms.Syntax`);
# `len` reads a length expression.  Letters marked `pt` must be roster
# points and those marked `fig` a declared figure or roster points; the
# name a `segment`, `rectfig` or `gnomon` command declares is not checked.

class PlaceSegment(Syntax):
    SYNTAX = "place <p:1 pt><q:1 pt> = <length:len>"
    p: str
    q: str
    length: LenExpr


class StandaloneSegmentCmd(Syntax):
    SYNTAX = "segment <name:1> = <length:len>"
    name: str
    length: LenExpr


class CutRandom(Syntax):
    SYNTAX = "cut <point:1 pt> on <on:2 pt> at <at:len>"
    point: str
    on: tuple[str, str]
    at: LenExpr


class CutHalf(Syntax):
    SYNTAX = "cuthalf <point:1 pt> on <on:2 pt>"
    point: str
    on: tuple[str, str]


class ExtendBy(Syntax):
    SYNTAX = "extend <on:2 pt> to <to:1 pt> by <by:len>"
    on: tuple[str, str]
    to: str
    by: LenExpr


class ExtendCopy(Syntax):
    SYNTAX = "extend <on:2 pt> to <to:1 pt> with <to:1 pt><anchor:1 pt> = <copy:2 pt>"
    on: tuple[str, str]
    to: str
    anchor: str
    copy: tuple[str, str]


class SquareOnCmd(Syntax):
    SYNTAX = "square <name:4 pt> on <on:2 pt> <side:below|above|left|right>"
    name: str  # boundary order, containing the base edge
    on: tuple[str, str]
    side: str


class RectFig(Syntax):
    SYNTAX = "rectfig <name:1> <width:len> x <height:len>"
    name: str
    width: LenExpr
    height: LenExpr


class TriangulateToRect(Syntax):
    SYNTAX = "torect <name:4 pt> from <source:1 fig>"
    name: str
    source: str  # declared figure


class Perp(Syntax):
    SYNTAX = "perp <new:1 pt> from <frm:1 pt> on <on:2 pt> <side:below|above> len <length:len>"
    new: str
    frm: str
    on: tuple[str, str]
    side: str
    length: LenExpr


class ParallelTranslate(Syntax):
    SYNTAX = "parallel <new:1 pt> through <through:1 pt> along <along:2 pt>"
    new: str
    through: str
    along: tuple[str, str]


class ParallelMeet(Syntax):
    SYNTAX = "parallel <new:1 pt> through <through:1 pt> along <along:2 pt> meet <meet:2 pt>"
    new: str
    through: str
    along: tuple[str, str]
    meet: tuple[str, str]


class Join(Syntax):
    SYNTAX = "join <p:1 pt> <q:1 pt>"
    p: str
    q: str


class SemicircleOn(Syntax):
    SYNTAX = "semicircle on <on:2 pt> center <center:1 pt> <side:above|below>"
    on: tuple[str, str]
    center: str
    side: str


class IntersectLines(Syntax):
    SYNTAX = "intersect <new:1 pt> = line <line:2 pt> x line <other:2 pt>"
    new: str
    line: tuple[str, str]
    other: tuple[str, str]


class IntersectCircle(Syntax):
    SYNTAX = "intersect <new:1 pt> = line <line:2 pt> x circle <center:1 pt> <side:above|below>"
    new: str
    line: tuple[str, str]
    center: str
    side: str  # which of the two crossings


class GnomonDecl(Syntax):
    SYNTAX = "gnomon <name:3> = <outer:1-4 fig> minus <corner:1-4 fig>"
    name: str
    outer: str
    corner: str


ConstructionCmd = (
    PlaceSegment
    | StandaloneSegmentCmd
    | CutRandom
    | CutHalf
    | ExtendBy
    | ExtendCopy
    | SquareOnCmd
    | RectFig
    | TriangulateToRect
    | Perp
    | ParallelMeet  # before ParallelTranslate, whose syntax is its prefix
    | ParallelTranslate
    | Join
    | SemicircleOn
    | IntersectLines
    | IntersectCircle
    | GnomonDecl
)

# the command table: every command class, and the classes sharing a head word
COMMANDS: tuple[type[Syntax], ...] = typing.get_args(ConstructionCmd)
_BY_HEAD: dict[str, list[type[Syntax]]] = {}
for _cls in COMMANDS:
    _BY_HEAD.setdefault(_cls.SYNTAX.split()[0], []).append(_cls)


# ---------------------------------------------------------------------------
# proof steps


class StepRef(FrozenRecord):
    index: int

    def text(self):
        return f"s{self.index}"


class HypRef(FrozenRecord):
    index: int

    def text(self):
        return f"h{self.index}"


class InlinePremise(Syntax):
    SYNTAX = "[<stmt:stmt>]"
    stmt: Statement


PremiseRef = StepRef | HypRef | InlinePremise


class ProofStep(Syntax):
    SYNTAX = "<index:int>. <claim:stmt> ; <rule:rule><premises:premises>"
    index: int
    claim: Statement
    rule: str
    premises: tuple[PremiseRef, ...]


class Hypothesis(Syntax):
    SYNTAX = "hypothesis <stmt:stmt> ; flag <flag:run>"
    index: int
    stmt: Statement
    flag: str


class Script(Record):
    prop_id: str
    points: tuple[str, ...]
    base_lines: tuple[tuple[str, ...], ...]
    params: dict[str, LenLit | None]
    flags: frozenset[str]
    construction: tuple[ConstructionCmd, ...]
    hypotheses: tuple[Hypothesis, ...]
    diorismos: Eq
    steps: tuple[ProofStep, ...]


# ---------------------------------------------------------------------------
# parsing


class _Parser(Reader):
    """Reads a script line by line.  Each name is checked against the
    points, parameters, standalone segments and figures declared above it."""

    def __init__(self):
        super().__init__()
        self.prop_id: str | None = None
        self.points: list[str] = []
        self.base_lines: list[tuple[str, ...]] = []
        self.params: dict[str, LenLit | None] = {}
        self.flags: set[str] = set()
        self.segments: set[str] = set()
        self.figures: set[str] = set()

    def parse(self, text: str) -> Script:
        construction: list[ConstructionCmd] = []
        hypotheses: list[Hypothesis] = []
        diorismos: Eq | None = None
        steps: list[ProofStep] = []
        section = "header"
        saw_qed = False

        lines = text.splitlines()
        for self.line, raw in enumerate(lines, 1):
            self.start(raw.split("#", 1)[0])
            head = self.toks[0]
            if not head:
                continue
            if saw_qed:
                raise self.err("no content allowed after qed")
            if head in ("construct", "claim", "proof") and self.toks[1] == ":":
                self.pos = 2
                if head == "construct":
                    if hypotheses or diorismos is not None:
                        raise self.fail("construct: must come before hypotheses and the claim", 0)
                    section = "construct"
                elif head == "claim":
                    stmt = self.read_stmt()
                    if not isinstance(stmt, Eq):
                        raise self.fail("diorismos must be an equality of sums", 2)
                    diorismos = stmt
                    section = "claim"
                else:
                    if diorismos is None:
                        raise self.fail("claim must precede proof", 0)
                    section = "proof"
                self.end()
            elif head == "qed":
                self.pos = 1
                self.end()
                saw_qed = True
            elif section == "header":
                self._header(head)
            elif section == "construct" and head != "hypothesis":
                construction.append(self._command(head))
            elif section in ("construct", "hypotheses"):
                if head != "hypothesis":
                    raise self.err("hypothesis or claim expected")
                hypotheses.append(self.read(Hypothesis, index=len(hypotheses) + 1))
                self.end()
                section = "hypotheses"
            elif section == "proof":
                step = self.read(ProofStep)
                if step.index != len(steps) + 1:
                    raise self.fail(f"step indices must be dense from 1, got {step.index}", 0)
                steps.append(step)
            else:
                raise self.fail(f"unexpected line in section {section!r}: {self.src.strip()!r}", 0)

        if self.prop_id is None:
            raise ParseError(1, 1, "missing prop header")
        if diorismos is None:
            raise ParseError(len(lines), 1, "missing claim")
        if not saw_qed:
            raise ParseError(len(lines), 1, "missing qed")
        return Script(
            prop_id=self.prop_id,
            points=tuple(self.points),
            base_lines=tuple(self.base_lines),
            params=self.params,
            flags=frozenset(self.flags),
            construction=tuple(construction),
            hypotheses=tuple(hypotheses),
            diorismos=diorismos,
            steps=tuple(steps),
        )

    def _header(self, head: str) -> None:
        self.pos = 1
        if head == "prop":
            if not self.toks[1]:
                raise self.err("proposition id")
            self.prop_id = self.src[self.col(1) - 1 :].rstrip()
        elif head == "points":
            self._list(self._new_point)
        elif head == "line":
            seq = tuple(self._list(self.read_pt))
            if len(seq) < 2:
                raise self.fail("line needs at least two points", 0)
            self.base_lines.append(seq)
        elif head == "param":
            name = self.toks[1]
            if not "a" <= name[:1] <= "z":
                raise self.err("length-parameter name")
            if name in self.params:
                raise self.fail(f"duplicate parameter {name}")
            self.pos = 2
            value = None
            if self.toks[2] == "=":
                self.pos = 3
                value = self.read_rational("rational number")
            elif self.toks[2]:
                raise self.err("'=' or end of line")
            self.end()
            self.params[name] = value
        elif head == "flags":
            self.flags.update(self._list(self._flag))
        else:
            self.pos = 0
            raise self.err("header directive")

    def _new_point(self) -> None:
        if self.toks[self.pos] in self.points:
            raise self.fail(f"duplicate point {self.toks[self.pos]}")
        self.points.append(self.name(1, 1, "single-letter point"))

    def _flag(self) -> str:
        at = self.pos
        word = self.read_run()
        try:
            Flag(word)
        except ValueError:
            raise self.fail(f"unknown flag {word!r}", at) from None
        return word

    def _list(self, read) -> list:
        """One or more items up to the end of the line."""
        items = [read()]
        while self.toks[self.pos]:
            items.append(read())
        return items

    def _command(self, head: str) -> ConstructionCmd:
        if head not in _BY_HEAD:
            raise self.fail(f"unknown construction command {head!r}", 0)
        cmd = self.choose(_BY_HEAD[head], f"{head} command", whole_line=True)
        if isinstance(cmd, StandaloneSegmentCmd):
            self.segments.add(cmd.name)
        elif isinstance(cmd, (RectFig, GnomonDecl)):
            self.figures.add(cmd.name)
        return cmd

    def check_label(self, kind: str, text: str, at: int) -> None:
        # one letter names a standalone segment, one or three letters a
        # declared figure; every other name is spelled with points
        if kind == "seg" and len(text) == 1:
            if text not in self.segments:
                raise self.fail(f"segment {text!r} not declared", at)
        elif kind == "fig" and len(text) in (1, 3):
            if text not in self.figures:
                raise self.fail(f"figure {text!r} not declared", at)
        else:
            for i, p in enumerate(text):
                if p not in self.points:
                    raise UndeclaredPoint(self.line, self.col(at) + i, p)

    def read_rational(self, want: str) -> LenLit:
        num, slash, den = self.toks[self.pos].partition("/")
        if not num.lstrip("-").isdecimal() or slash and not den.isdecimal():
            raise self.err(want)
        n, d = int(num), int(den or 1)
        if d == 0:
            raise self.fail("zero denominator")
        self.pos += 1
        g = math.gcd(n, d)
        return LenLit(n // g, d // g)

    def read_len(self) -> LenExpr:
        text = self.toks[self.pos]
        if text == "|":
            length = self.read(LenSeg)
            self.check_distinct(length.seg, self.pos - 2)
            return length
        if not "a" <= text[:1] <= "z":  # not a word, so not a parameter
            return self.read_rational("length expression")
        if text not in self.params:
            raise self.fail(f"parameter {text!r} not declared")
        self.pos += 1
        return LenParam(text)

    def read_rule(self) -> str:
        text = self.toks[self.pos]
        try:
            Rule(text)
        except ValueError:
            raise UnknownRule(self.line, self.col(), text) from None
        self.pos += 1
        return text

    def read_run(self) -> str:
        """The text up to the next space, such as `I.36-external`."""
        if not self.toks[self.pos]:
            raise self.err("word")
        col = self.col()
        run = self.src[col - 1 :].split(None, 1)[0]
        while self.col() < col + len(run):
            self.pos += 1
        return run

    def read_premises(self) -> tuple[PremiseRef, ...]:
        premises: list[PremiseRef] = []
        while text := self.toks[self.pos]:
            if text == "[":
                premises.append(self.read(InlinePremise))
                continue
            # a word of step and hypothesis references, such as `s1` or `s1h2`
            refs = text.replace("s", " s").replace("h", " h").split()
            if not all(r[0] in "sh" and r[1:].isdecimal() for r in refs):
                raise self.err("premise")
            premises += [StepRef(int(r[1:])) if r[0] == "s" else HypRef(int(r[1:])) for r in refs]
            self.pos += 1
        return tuple(premises)


def parse_script(text: str) -> Script:
    return _Parser().parse(text)


def format_script(s: Script) -> str:
    out = [f"prop {s.prop_id}"]
    if s.points:
        out.append("points " + " ".join(s.points))
    for line in s.base_lines:
        out.append("line " + " ".join(line))
    for name, val in s.params.items():
        out.append(f"param {name}" + (f" = {val.text()}" if val is not None else ""))
    if s.flags:
        out.append("flags " + " ".join(sorted(s.flags)))
    out.append("construct:")
    for cmd in s.construction:
        out.append("  " + cmd.text())
    for h in s.hypotheses:
        out.append(h.text())
    out.append(f"claim: {s.diorismos.text()}")
    out.append("proof:")
    for st in s.steps:
        out.append("  " + st.text())
    out.append("qed")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# check reports


class StepRecord(Record):
    index: int
    statement: str
    rule: str
    color: str
    flags: tuple[str, ...]
    certificate: str | None
    blue_premises: tuple[str, ...] = ()


class CheckReport(Record):
    prop_id: str
    profile: str
    verdict: str  # "accepted" | "rejected"
    reject_step: int | None
    reject_cause: str | None
    steps: list[StepRecord]
    hypotheses: list[tuple[str, str, str]]  # (id, statement, flag)
    diorismos: str
    timing_ms: float = 0.0
    certificates: list[dict] = []

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    def colors(self) -> list[str]:
        return [s.color for s in self.steps]


def emit_report(r: CheckReport, mode: str = "text", timing: bool = False) -> str:
    """The report as text, or with `mode` "json" as the document that
    `json.dumps(..., indent=2, sort_keys=True)` writes, plus a newline.  The
    document's shape is fixed, so `_report_json` writes it from a template,
    with no dict and no pure-Python encoder in between; `timing` adds the
    check's wall time to either form."""
    if mode == "json":
        return _report_json(r, timing)

    lines = [f"{r.prop_id} [{r.profile}]"]
    for hid, text, flag in r.hypotheses:
        lines.append(f"  {hid}: {text}  (flag: {flag})")
    for s in r.steps:
        extra = f"  ({', '.join(s.flags)})" if s.flags else ""
        blue = f"  (+blue premise: {', '.join(s.blue_premises)})" if s.blue_premises else ""
        lines.append(f"  {s.index:>2}. [{s.color:<7}] {s.statement} ; {s.rule}{extra}{blue}")
    if r.accepted:
        lines.append(f"verdict: Accepted ({len(r.steps)} steps)")
    else:
        lines.append(f"verdict: Rejected at step {r.reject_step}: {r.reject_cause}")
    if timing:
        lines.append(f"timing: {r.timing_ms:.1f} ms")
    return "\n".join(lines) + "\n"


# the JSON report's layout, each object's keys in sorted order, as
# `json.dumps(..., indent=2, sort_keys=True)` writes it
_REPORT = (
    '{\n  "diorismos": %s,\n  "hypotheses": %s,\n  "profile": %s,\n  "prop_id": %s,'
    '\n  "steps": %s,%s\n  "verdict": %s\n}\n'
)
_ACCEPTED = '{\n    "status": "accepted"\n  }'
_REJECTED = '{\n    "cause": %s,\n    "status": "rejected",\n    "step": %s\n  }'
_HYPOTHESIS = '{\n      "flag": %s,\n      "id": %s,\n      "statement": %s\n    }'
_STEP = (
    '{\n      "certificate": %s,\n      "color": %s,\n      "flags": %s,\n      "index": %d,'
    '\n      "rule": %s,\n      "statement": %s\n    }'
)


def _scalar(value: str | int | None) -> str:
    """A string, an int or None as JSON writes it."""
    if value is None:
        return "null"
    return _quote(value) if isinstance(value, str) else str(value)


def _array(items: list[str], indent: str) -> str:
    """A JSON array of items already written, its closing bracket `indent`
    deep."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _report_json(r: CheckReport, timing: bool) -> str:
    verdict = _ACCEPTED if r.accepted else _REJECTED % (
        _scalar(r.reject_cause), _scalar(r.reject_step)
    )
    hypotheses = [
        _HYPOTHESIS % (_quote(flag), _quote(hid), _quote(text)) for hid, text, flag in r.hypotheses
    ]
    steps = [
        _STEP % (
            _scalar(s.certificate),
            _quote(s.color),
            _array([_quote(flag) for flag in s.flags], "      "),
            s.index,
            _quote(s.rule),
            _quote(s.statement),
        )
        for s in r.steps
    ]
    return _REPORT % (
        _quote(r.diorismos),
        _array(hypotheses, "  "),
        _quote(r.profile),
        _quote(r.prop_id),
        _array(steps, "  "),
        f'\n  "timing_ms": {json.dumps(r.timing_ms)},' if timing else "",
        verdict,
    )
