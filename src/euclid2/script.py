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
"""

from __future__ import annotations

import enum
import json
import re
import typing
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, UndeclaredPoint, UnknownRule
from .terms import (
    Eq,
    Fig,
    IsSq,
    Multiple,
    Pi,
    RectBy,
    RightAngle,
    SegEq,
    SquareOn,
    Statement,
    parse_rational,
    parse_statement,
    rational_text,
    stmt_text,
)


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


# ---------------------------------------------------------------------------
# length expressions


@dataclass(frozen=True)
class LenLit:
    value: Fraction

    def text(self) -> str:
        return rational_text(self.value)


@dataclass(frozen=True)
class LenParam:
    name: str

    def text(self) -> str:
        return self.name


@dataclass(frozen=True)
class LenSeg:
    seg: str  # "XY" or "A"

    def text(self) -> str:
        return f"|{self.seg}|"


LenExpr = LenLit | LenParam | LenSeg


def _parse_len(tok: str, line: int, col: int) -> LenExpr:
    """A length token that starts at column `col` of source line `line`."""
    m = re.match(r"^\|([A-Z]{1,2})\|$", tok)
    if m:
        return LenSeg(m.group(1))
    if re.match(r"^-?\d+(/\d+)?$", tok):
        return LenLit(parse_rational(tok, line, col))
    if re.match(r"^[a-z][a-z0-9_]*$", tok):
        return LenParam(tok)
    raise ParseError(line, col, f"length expression, got {tok!r}")


# ---------------------------------------------------------------------------
# construction commands
#
# Each command's concrete syntax is its SYNTAX template, the one place it is
# written: parsing and printing both follow it.  A placeholder `<field:spec>`
# stands for a dataclass field; spec is a letter count (`2`, or a range such
# as `1-4`), `len` for a length expression, or a list of words such as
# `above|below`.  A letter field annotated as a tuple holds one letter per
# item.  A field named twice must repeat the same text.

_PLACEHOLDER = re.compile(r"<(\w+):([^>]+)>")


class _Command:
    SYNTAX: str

    def __init_subclass__(cls):
        super().__init_subclass__()
        parts: list[str] = []
        cls._convert = {}  # field -> (token, line number, column) -> value
        pos = 0
        for m in _PLACEHOLDER.finditer(cls.SYNTAX):
            parts.append(re.escape(cls.SYNTAX[pos : m.start()]))
            name, spec = m.groups()
            pos = m.end()
            if name in cls._convert:
                parts.append(f"(?P={name})")
            elif spec == "len":
                parts.append(rf"(?P<{name}>\S+)")
                cls._convert[name] = _parse_len
            else:
                if spec[0].isdigit():
                    spec = f"[A-Z]{{{spec.replace('-', ',')}}}"
                parts.append(f"(?P<{name}>{spec})")
                tup = cls.__annotations__[name].startswith("tuple")
                cls._convert[name] = (lambda tok, *_: tuple(tok)) if tup else (lambda tok, *_: tok)
        parts.append(re.escape(cls.SYNTAX[pos:]))
        # compiled on first use, through re's cache, so a cold run compiles
        # only the syntaxes its script uses
        cls._pattern = "".join(parts)

    @classmethod
    def match(cls, line: str, lineno: int, col: int):
        """The command `line` spells in this syntax, or None; `line` starts
        at column `col` of source line `lineno`."""
        m = re.fullmatch(cls._pattern, line)
        if m is None:
            return None
        return cls(**{
            name: convert(m.group(name), lineno, col + m.start(name))
            for name, convert in cls._convert.items()
        })

    def text(self) -> str:
        def field_text(m):
            value = getattr(self, m.group(1))
            return "".join(value) if isinstance(value, (str, tuple)) else value.text()

        return _PLACEHOLDER.sub(field_text, self.SYNTAX)


@dataclass(frozen=True)
class PlaceSegment(_Command):
    SYNTAX = "place <p:1><q:1> = <length:len>"
    p: str
    q: str
    length: LenExpr


@dataclass(frozen=True)
class StandaloneSegmentCmd(_Command):
    SYNTAX = "segment <name:1> = <length:len>"
    name: str
    length: LenExpr


@dataclass(frozen=True)
class CutRandom(_Command):
    SYNTAX = "cut <point:1> on <on:2> at <at:len>"
    point: str
    on: tuple[str, str]
    at: LenExpr


@dataclass(frozen=True)
class CutHalf(_Command):
    SYNTAX = "cuthalf <point:1> on <on:2>"
    point: str
    on: tuple[str, str]


@dataclass(frozen=True)
class ExtendBy(_Command):
    SYNTAX = "extend <on:2> to <to:1> by <by:len>"
    on: tuple[str, str]
    to: str
    by: LenExpr


@dataclass(frozen=True)
class ExtendCopy(_Command):
    SYNTAX = "extend <on:2> to <to:1> with <to:1><anchor:1> = <copy:2>"
    on: tuple[str, str]
    to: str
    anchor: str
    copy: tuple[str, str]


@dataclass(frozen=True)
class SquareOnCmd(_Command):
    SYNTAX = "square <name:4> on <on:2> <side:below|above|left|right>"
    name: str  # boundary order, containing the base edge
    on: tuple[str, str]
    side: str


@dataclass(frozen=True)
class RectFig(_Command):
    SYNTAX = "rectfig <name:1> <width:len> x <height:len>"
    name: str
    width: LenExpr
    height: LenExpr


@dataclass(frozen=True)
class TriangulateToRect(_Command):
    SYNTAX = "torect <name:4> from <source:1>"
    name: str
    source: str  # declared figure


@dataclass(frozen=True)
class Perp(_Command):
    SYNTAX = "perp <new:1> from <frm:1> on <on:2> <side:below|above> len <length:len>"
    new: str
    frm: str
    on: tuple[str, str]
    side: str
    length: LenExpr


@dataclass(frozen=True)
class ParallelTranslate(_Command):
    SYNTAX = "parallel <new:1> through <through:1> along <along:2>"
    new: str
    through: str
    along: tuple[str, str]


@dataclass(frozen=True)
class ParallelMeet(_Command):
    SYNTAX = "parallel <new:1> through <through:1> along <along:2> meet <meet:2>"
    new: str
    through: str
    along: tuple[str, str]
    meet: tuple[str, str]


@dataclass(frozen=True)
class Join(_Command):
    SYNTAX = "join <p:1> <q:1>"
    p: str
    q: str


@dataclass(frozen=True)
class SemicircleOn(_Command):
    SYNTAX = "semicircle on <on:2> center <center:1> <side:above|below>"
    on: tuple[str, str]
    center: str
    side: str


@dataclass(frozen=True)
class IntersectLines(_Command):
    SYNTAX = "intersect <new:1> = line <line:2> x line <other:2>"
    new: str
    line: tuple[str, str]
    other: tuple[str, str]


@dataclass(frozen=True)
class IntersectCircle(_Command):
    SYNTAX = "intersect <new:1> = line <line:2> x circle <center:1> <side:above|below>"
    new: str
    line: tuple[str, str]
    center: str
    side: str  # which of the two crossings


@dataclass(frozen=True)
class GnomonDecl(_Command):
    SYNTAX = "gnomon <name:3> = <outer:1-4> minus <corner:1-4>"
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
    | ParallelTranslate
    | ParallelMeet
    | Join
    | SemicircleOn
    | IntersectLines
    | IntersectCircle
    | GnomonDecl
)

# the command table: every command class, and the classes sharing a head word
COMMANDS: tuple[type[_Command], ...] = typing.get_args(ConstructionCmd)
_BY_HEAD: dict[str, list[type[_Command]]] = {}
for _cls in COMMANDS:
    _BY_HEAD.setdefault(_cls.SYNTAX.split()[0], []).append(_cls)


def parse_command(line: str, lineno: int, col: int) -> ConstructionCmd:
    """One `construct:` line, stripped of its indent and comment, that starts
    at column `col` of source line `lineno`."""
    head = line.split()[0]
    if head not in _BY_HEAD:
        raise ParseError(lineno, col, f"unknown construction command {head!r}")
    for cls in _BY_HEAD[head]:
        cmd = cls.match(line, lineno, col)
        if cmd is not None:
            return cmd
    raise ParseError(lineno, col, f"malformed {head} command: {line!r}")


# ---------------------------------------------------------------------------
# proof steps


@dataclass(frozen=True)
class StepRef:
    index: int

    def text(self):
        return f"s{self.index}"


@dataclass(frozen=True)
class HypRef:
    index: int

    def text(self):
        return f"h{self.index}"


@dataclass(frozen=True)
class InlinePremise:
    stmt: Statement

    def text(self):
        return f"[{stmt_text(self.stmt)}]"


PremiseRef = StepRef | HypRef | InlinePremise


@dataclass(frozen=True)
class ProofStep:
    index: int
    claim: Statement
    rule: str
    premises: tuple[PremiseRef, ...]
    line: int = field(default=0, compare=False)  # source line, for error reports

    def text(self):
        parts = [f"{self.index}. {stmt_text(self.claim)} ; {self.rule}"]
        for p in self.premises:
            parts.append(p.text())
        return " ".join(parts)


@dataclass(frozen=True)
class Hypothesis:
    index: int
    stmt: Statement
    flag: str
    line: int = field(default=0, compare=False)  # source line, for error reports

    def text(self):
        return f"hypothesis {stmt_text(self.stmt)} ; flag {self.flag}"


@dataclass
class Script:
    prop_id: str
    points: tuple[str, ...]
    base_lines: tuple[tuple[str, ...], ...]
    params: dict[str, Fraction | None]
    flags: frozenset[str]
    construction: tuple[ConstructionCmd, ...]
    hypotheses: tuple[Hypothesis, ...]
    diorismos: Eq
    steps: tuple[ProofStep, ...]


# ---------------------------------------------------------------------------
# parsing

_POINTS_RE = re.compile(r"^[A-Z]$")


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.i = 0

    def err(self, col: int, expected: str) -> ParseError:
        return ParseError(self.i + 1, col, expected)

    def parse(self) -> Script:
        prop_id = None
        points: list[str] = []
        base_lines: list[tuple[str, ...]] = []
        params: dict[str, Fraction | None] = {}
        flags: set[str] = set()
        construction: list[ConstructionCmd] = []
        hypotheses: list[Hypothesis] = []
        diorismos: Eq | None = None
        claim_line = 0
        steps: list[ProofStep] = []
        section = "header"
        saw_qed = False

        for self.i, raw in enumerate(self.lines):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if saw_qed:
                raise self.err(1, "no content allowed after qed")
            if line == "construct:":
                section = "construct"
                continue
            if line.startswith("claim:"):
                section = "claim"
                body = line[len("claim:") :].strip()
                stmt = parse_statement(body, self.i + 1)
                if not isinstance(stmt, Eq):
                    raise self.err(1, "diorismos must be an equality of sums")
                diorismos = stmt
                claim_line = self.i + 1
                continue
            if line == "proof:":
                if diorismos is None:
                    raise self.err(1, "claim must precede proof")
                section = "proof"
                continue
            if line == "qed":
                saw_qed = True
                continue

            if section == "header":
                if line.startswith("prop "):
                    prop_id = line[5:].strip()
                    continue
                if line.startswith("points "):
                    for tok in line[7:].split():
                        if not _POINTS_RE.match(tok):
                            raise self.err(
                                raw.find(tok) + 1, f"single-letter point, got {tok!r}"
                            )
                        if tok in points:
                            raise self.err(raw.find(tok) + 1, f"duplicate point {tok}")
                        points.append(tok)
                    continue
                if line.startswith("line "):
                    seq = tuple(line[5:].split())
                    for tok in seq:
                        if tok not in points:
                            raise UndeclaredPoint(self.i + 1, raw.find(tok) + 1, tok)
                    if len(seq) < 2:
                        raise self.err(1, "line needs at least two points")
                    base_lines.append(seq)
                    continue
                if line.startswith("param "):
                    body = line[6:]
                    if "=" in body:
                        name, val = body.split("=", 1)
                        col = raw.find(val.strip(), raw.find("=") + 1) + 1
                        params[name.strip()] = parse_rational(val, self.i + 1, col)
                    else:
                        params[body.strip()] = None
                    continue
                if line.startswith("flags "):
                    flags.update(line[6:].split())
                    continue
                raise self.err(1, f"header directive, got {line!r}")

            if section == "construct":
                if line.startswith("hypothesis "):
                    section = "hypotheses"
                else:
                    indent = len(raw) - len(raw.lstrip())
                    construction.append(parse_command(line, self.i + 1, indent + 1))
                    continue

            if section in ("hypotheses",) or (
                section == "claim" and line.startswith("hypothesis ")
            ):
                if not line.startswith("hypothesis "):
                    raise self.err(1, "hypothesis or claim expected")
                hypotheses.append(self._parse_hypothesis(line, len(hypotheses) + 1))
                section = "hypotheses"
                continue

            if section == "proof":
                steps.append(self._parse_step(line, raw))
                continue

            raise self.err(1, f"unexpected line in section {section!r}: {line!r}")

        if prop_id is None:
            raise ParseError(1, 1, "missing prop header")
        if diorismos is None:
            raise ParseError(len(self.lines), 1, "missing claim")
        if not saw_qed:
            raise ParseError(len(self.lines), 1, "missing qed")
        for k, s in enumerate(steps):
            if s.index != k + 1:
                raise ParseError(s.line, 1, f"step indices must be dense from 1, got {s.index}")

        declared_segments = {c.name for c in construction if isinstance(c, StandaloneSegmentCmd)}
        declared_figures = {
            c.name
            for c in construction
            if isinstance(c, (RectFig, GnomonDecl, SquareOnCmd, TriangulateToRect))
        }

        script = Script(
            prop_id=prop_id,
            points=tuple(points),
            base_lines=tuple(base_lines),
            params=params,
            flags=frozenset(flags),
            construction=tuple(construction),
            hypotheses=tuple(hypotheses),
            diorismos=diorismos,
            steps=tuple(steps),
        )
        _validate_labels(script, declared_segments, declared_figures, claim_line)
        return script

    def _parse_hypothesis(self, line: str, index: int) -> Hypothesis:
        m = re.match(r"^hypothesis (.+?) ; flag (\S+)$", line)
        if not m:
            raise self.err(1, "hypothesis <stmt> ; flag <word>")
        stmt = parse_statement(m.group(1), self.i + 1)
        return Hypothesis(index, stmt, m.group(2), self.i + 1)

    def _parse_step(self, line: str, raw: str) -> ProofStep:
        m = re.match(r"^(\d+)\.\s+(.+?)\s+;\s+(\S+)\s*(.*)$", line)
        if not m:
            raise self.err(1, "step: <n>. <statement> ; <RULE> <premises>")
        index = int(m.group(1))
        claim = parse_statement(m.group(2), self.i + 1)
        rule = m.group(3)
        try:
            Rule(rule)
        except ValueError:
            raise UnknownRule(self.i + 1, raw.find(rule) + 1, rule) from None
        rest = m.group(4).strip()
        premises: list[PremiseRef] = []
        pos = 0
        while pos < len(rest):
            ch = rest[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch == "[":
                end = rest.find("]", pos)
                if end < 0:
                    raise self.err(raw.find(rest) + pos + 1, "unterminated [premise]")
                premises.append(
                    InlinePremise(parse_statement(rest[pos + 1 : end], self.i + 1))
                )
                pos = end + 1
                continue
            m2 = re.match(r"s(\d+)", rest[pos:])
            if m2:
                premises.append(StepRef(int(m2.group(1))))
                pos += m2.end()
                continue
            m2 = re.match(r"h(\d+)", rest[pos:])
            if m2:
                premises.append(HypRef(int(m2.group(1))))
                pos += m2.end()
                continue
            raise self.err(raw.find(rest) + pos + 1, f"premise token, got {rest[pos:]!r}")
        return ProofStep(index, claim, rule, tuple(premises), self.i + 1)


def _stmt_labels(stmt: Statement):
    """(point-or-lone-segment letters, figure names) mentioned by a statement."""
    segs: list[str] = []
    figs: list[str] = []

    def seg(s):
        segs.append(s.text() if s.display else (s.a + (s.b or "")))

    def term(t):
        if isinstance(t, SquareOn):
            seg(t.side)
        elif isinstance(t, RectBy):
            seg(t.first)
            seg(t.second)
        elif isinstance(t, Fig):
            figs.append(t.name.letters)
        elif isinstance(t, Multiple):
            term(t.inner)

    if isinstance(stmt, Eq):
        for t in stmt.lhs.terms + stmt.rhs.terms:
            term(t)
    elif isinstance(stmt, Pi):
        figs.append(stmt.figure.letters)
        seg(stmt.first)
        seg(stmt.second)
    elif isinstance(stmt, IsSq):
        figs.append(stmt.figure.letters)
        seg(stmt.side)
    elif isinstance(stmt, SegEq):
        seg(stmt.a)
        seg(stmt.b)
    elif isinstance(stmt, RightAngle):
        segs.extend([stmt.vertex + stmt.arm1, stmt.vertex + stmt.arm2])
    return segs, figs


def _validate_labels(script: Script, declared_segments, declared_figures, claim_line: int):
    roster = set(script.points)

    def check_stmt(stmt: Statement, lineno: int):
        segs, figs = _stmt_labels(stmt)
        for s in segs:
            if len(s) == 1:
                if s not in declared_segments:
                    raise UndeclaredPoint(lineno, 1, s)
            else:
                for p in s:
                    if p not in roster:
                        raise UndeclaredPoint(lineno, 1, p)
        for f in figs:
            if len(f) in (2, 4):
                for p in f:
                    if p not in roster:
                        raise UndeclaredPoint(lineno, 1, p)
            elif f not in declared_figures:
                raise UndeclaredPoint(lineno, 1, f)

    for h in script.hypotheses:
        check_stmt(h.stmt, h.line)
    check_stmt(script.diorismos, claim_line)
    for s in script.steps:
        check_stmt(s.claim, s.line)
        for p in s.premises:
            if isinstance(p, InlinePremise):
                check_stmt(p.stmt, s.line)


def parse_script(text: str) -> Script:
    return _Parser(text).parse()


def format_script(s: Script) -> str:
    out = [f"prop {s.prop_id}"]
    if s.points:
        out.append("points " + " ".join(s.points))
    for line in s.base_lines:
        out.append("line " + " ".join(line))
    for name, val in s.params.items():
        out.append(f"param {name}" + (f" = {rational_text(val)}" if val is not None else ""))
    if s.flags:
        out.append("flags " + " ".join(sorted(s.flags)))
    out.append("construct:")
    for cmd in s.construction:
        out.append("  " + cmd.text())
    for h in s.hypotheses:
        out.append(h.text())
    out.append(f"claim: {stmt_text(s.diorismos)}")
    out.append("proof:")
    for st in s.steps:
        out.append("  " + st.text())
    out.append("qed")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# check reports


@dataclass
class StepRecord:
    index: int
    statement: str
    rule: str
    color: str
    flags: tuple[str, ...]
    certificate: str | None
    blue_premises: tuple[str, ...] = ()


@dataclass
class CheckReport:
    prop_id: str
    profile: str
    verdict: str  # "accepted" | "rejected"
    reject_step: int | None
    reject_cause: str | None
    steps: list[StepRecord]
    hypotheses: list[tuple[str, str, str]]  # (id, statement, flag)
    diorismos: str
    timing_ms: float = 0.0
    certificates: list[dict] = field(default_factory=list)
    # fact-base size before the first step, then after each accepted step
    fact_counts: list[int] = field(default_factory=list)
    # the statement each accepted step's rule derived
    derived: list[Statement] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    def colors(self) -> list[str]:
        return [s.color for s in self.steps]


def emit_report(r: CheckReport, mode: str = "text", timing: bool = False) -> str:
    if mode == "json":
        doc = {
            "prop_id": r.prop_id,
            "profile": r.profile,
            "verdict": (
                {"status": "accepted"}
                if r.accepted
                else {"status": "rejected", "step": r.reject_step, "cause": r.reject_cause}
            ),
            "diorismos": r.diorismos,
            "hypotheses": [
                {"id": hid, "statement": text, "flag": flag}
                for hid, text, flag in r.hypotheses
            ],
            "steps": [
                {
                    "index": s.index,
                    "statement": s.statement,
                    "rule": s.rule,
                    "color": s.color,
                    "flags": list(s.flags),
                    "certificate": s.certificate,
                }
                for s in r.steps
            ],
        }
        if timing:
            doc["timing_ms"] = r.timing_ms
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

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
