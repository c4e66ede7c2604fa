"""Object language: segments, figure names, terms, sums, statements.

Every value is immutable and carries a canonical form, so rule matching in
the calculus is a purely syntactic comparison.  Rectangle operands stay in
the order they were written: `rect(X,Y)` and `rect(Y,X)` are distinct terms.
Segment endpoints, by contrast, are unordered (`GB` names the same segment
as `BG`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateSegment, ParseError


@dataclass(frozen=True)
class Segment:
    """Unordered endpoint pair, or a standalone one-letter segment.

    A standalone segment (Euclid's lone line "A" in II.1) has `a` set to its
    name and `b` set to None.  `display` remembers the spelling used in the
    source text; it never takes part in equality or hashing.
    """

    a: str
    b: str | None = None
    display: str | None = field(default=None, compare=False, hash=False)

    def __post_init__(self):
        if self.b is not None:
            if self.a == self.b:
                raise DegenerateSegment(f"segment {self.a}{self.b} is degenerate")
            if self.b < self.a:
                a, b = self.b, self.a
                object.__setattr__(self, "a", a)
                object.__setattr__(self, "b", b)

    @property
    def standalone(self) -> bool:
        return self.b is None

    def points(self) -> tuple[str, ...]:
        return (self.a,) if self.b is None else (self.a, self.b)

    def text(self) -> str:
        if self.display is not None:
            return self.display
        return self.a if self.b is None else self.a + self.b


def mk_segment(p: str, q: str) -> Segment:
    """Canonical unordered pair; mk_segment(p,q) == mk_segment(q,p)."""
    return Segment(p, q)


def standalone_segment(name: str) -> Segment:
    return Segment(name, None)


@dataclass(frozen=True)
class FigureName:
    """Figure identifier: 1 letter (declared standalone figure), 2 letters
    (diagonal naming), 3 letters (declared gnomon) or 4 letters (vertices in
    boundary order)."""

    letters: str

    def __post_init__(self):
        if not (1 <= len(self.letters) <= 4):
            raise ValueError(f"figure name {self.letters!r} must have 1-4 letters")

    def text(self) -> str:
        return self.letters


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class SquareOn:
    side: Segment


@dataclass(frozen=True)
class RectBy:
    first: Segment
    second: Segment


@dataclass(frozen=True)
class Fig:
    name: FigureName


@dataclass(frozen=True)
class Multiple:
    count: int
    inner: "Term"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("Multiple count must be >= 2")
        if isinstance(self.inner, Multiple):
            raise ValueError("Multiple must not nest Multiple directly")


Term = SquareOn | RectBy | Fig | Multiple


def term_text(t: Term) -> str:
    if isinstance(t, SquareOn):
        return f"sq({t.side.text()})"
    if isinstance(t, RectBy):
        return f"rect({t.first.text()},{t.second.text()})"
    if isinstance(t, Fig):
        return f"fig({t.name.text()})"
    if isinstance(t, Multiple):
        return f"{t.count}*{term_text(t.inner)}"
    raise TypeError(t)


def _term_key(t: Term) -> str:
    # canonical sort key: stable serialization with canonical segment spelling
    if isinstance(t, SquareOn):
        return f"sq({t.side.a}{t.side.b or ''})"
    if isinstance(t, RectBy):
        return f"rect({t.first.a}{t.first.b or ''},{t.second.a}{t.second.b or ''})"
    if isinstance(t, Fig):
        return f"fig({t.name.letters})"
    if isinstance(t, Multiple):
        return f"{t.count}*{_term_key(t.inner)}"
    raise TypeError(t)


@dataclass(frozen=True)
class TermSum:
    """Non-empty multiset of terms, kept sorted by the canonical key."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("TermSum must be non-empty")

    def text(self) -> str:
        return " + ".join(term_text(t) for t in self.terms)


def term_sum(terms) -> TermSum:
    return normalize(TermSum(tuple(terms)))


def normalize(s: TermSum) -> TermSum:
    """Sort into canonical multiset order.  Idempotent; never reorders the
    operands inside a RectBy."""
    return TermSum(tuple(sorted(s.terms, key=_term_key)))


def sum_key(s: TermSum) -> tuple[str, ...]:
    return tuple(_term_key(t) for t in normalize(s).terms)


def expand_multiples(s: TermSum) -> tuple[str, ...]:
    """Multiset key with every Multiple(n, t) flattened to n copies of t."""
    out: list[str] = []
    for t in normalize(s).terms:
        if isinstance(t, Multiple):
            out.extend([_term_key(t.inner)] * t.count)
        else:
            out.append(_term_key(t))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# statements


@dataclass(frozen=True)
class Eq:
    lhs: TermSum
    rhs: TermSum

    def text(self) -> str:
        return f"{self.lhs.text()} = {self.rhs.text()}"


@dataclass(frozen=True)
class Pi:
    """`figure pi first x second` - the visible figure is the rectangle
    contained by the two segments.  The operand pair is ordered."""

    figure: FigureName
    first: Segment
    second: Segment

    def text(self) -> str:
        return f"{self.figure.text()} pi {self.first.text()} x {self.second.text()}"


@dataclass(frozen=True)
class IsSq:
    figure: FigureName
    side: Segment

    def text(self) -> str:
        return f"{self.figure.text()} on {self.side.text()}"


@dataclass(frozen=True)
class SegEq:
    a: Segment
    b: Segment

    def text(self) -> str:
        return f"{self.a.text()} == {self.b.text()}"


@dataclass(frozen=True)
class RightAngle:
    vertex: str
    arm1: str
    arm2: str

    def text(self) -> str:
        return f"rangle({self.vertex};{self.arm1},{self.arm2})"


Statement = Eq | Pi | IsSq | SegEq | RightAngle


def stmt_text(s: Statement) -> str:
    return s.text()


def _seg_key(s: Segment) -> str:
    return s.a + (s.b or "")


def stmt_key(s: Statement):
    """Canonical, orientation-insensitive key used by stmt_equal."""
    if isinstance(s, Eq):
        sides = sorted([sum_key(s.lhs), sum_key(s.rhs)])
        return ("eq", sides[0], sides[1])
    if isinstance(s, Pi):
        return ("pi", s.figure.letters, _seg_key(s.first), _seg_key(s.second))
    if isinstance(s, IsSq):
        return ("on", s.figure.letters, _seg_key(s.side))
    if isinstance(s, SegEq):
        ab = sorted([_seg_key(s.a), _seg_key(s.b)])
        return ("segeq", ab[0], ab[1])
    if isinstance(s, RightAngle):
        arms = sorted([s.arm1, s.arm2])
        return ("rangle", s.vertex, arms[0], arms[1])
    raise TypeError(s)


def lift_naming(p: Statement) -> Statement:
    """A naming statement as the equality it states: `F pi X x Y` is
    fig(F) = rect(X,Y) and `F on X` is fig(F) = sq(X).  Other statements
    are returned unchanged."""
    if isinstance(p, Pi):
        return Eq(term_sum([Fig(p.figure)]), term_sum([RectBy(p.first, p.second)]))
    if isinstance(p, IsSq):
        return Eq(term_sum([Fig(p.figure)]), term_sum([SquareOn(p.side)]))
    return p


def stmt_equal(a: Statement, b: Statement) -> bool:
    """Syntactic identity modulo segment-endpoint order, term-multiset order,
    symmetry of `=` and `==`, and arm order of right angles.  Rect operand
    order and pi operand order are significant."""
    return stmt_key(a) == stmt_key(b)


# ---------------------------------------------------------------------------
# text syntax
#
#   terms:       sq(AB) | rect(GB,BD) | fig(ADEB) | 2*rect(AC,CB)
#   sums:        joined by " + "
#   statements:  L = R | F pi X x Y | F on AB | AB == CD | rangle(B;A,C)

_SEG_RE = re.compile(r"^[A-Z]{1,2}$")
_FIG_RE = re.compile(r"^[A-Z]{1,4}$")


class _StmtParser:
    def __init__(self, text: str, line: int = 0):
        self.src = text
        self.line = line

    def err(self, col: int, expected: str) -> ParseError:
        return ParseError(self.line, col, expected)

    def parse_segment(self, tok: str, col: int) -> Segment:
        tok = tok.strip()
        if not _SEG_RE.match(tok):
            raise self.err(col, f"segment name, got {tok!r}")
        if len(tok) == 1:
            return standalone_segment(tok)
        return Segment(tok[0], tok[1], display=tok)

    def parse_term(self, tok: str, col: int) -> Term:
        tok = tok.strip()
        m = re.match(r"^(\d+)\*(.+)$", tok)
        if m:
            count = int(m.group(1))
            if count < 2:
                raise self.err(col, f"multiple count of at least 2, got {count}")
            inner = self.parse_term(m.group(2), col)
            if isinstance(inner, Multiple):
                raise self.err(col, "nested multiple")
            return Multiple(count, inner)
        m = re.match(r"^sq\(([A-Z]{1,2})\)$", tok)
        if m:
            return SquareOn(self.parse_segment(m.group(1), col))
        m = re.match(r"^rect\(([A-Z]{1,2}),([A-Z]{1,2})\)$", tok)
        if m:
            return RectBy(
                self.parse_segment(m.group(1), col),
                self.parse_segment(m.group(2), col),
            )
        m = re.match(r"^fig\(([A-Z]{1,4})\)$", tok)
        if m:
            return Fig(FigureName(m.group(1)))
        raise self.err(col, f"term, got {tok!r}")

    def parse_sum(self, text: str, col: int) -> TermSum:
        parts = [p for p in text.split("+")]
        if not parts or any(not p.strip() for p in parts):
            raise self.err(col, f"term sum, got {text!r}")
        return term_sum(self.parse_term(p, col) for p in parts)

    def parse(self) -> Statement:
        s = self.src.strip()
        col = self.src.find(s) + 1 if s else 1
        m = re.match(r"^rangle\(\s*([A-Z])\s*;\s*([A-Z])\s*,\s*([A-Z])\s*\)$", s)
        if m:
            return RightAngle(m.group(1), m.group(2), m.group(3))
        if "==" in s:
            left, right = s.split("==", 1)
            return SegEq(
                self.parse_segment(left, col),
                self.parse_segment(right, col + len(left) + 2),
            )
        m = re.match(r"^([A-Z]{1,4})\s+pi\s+([A-Z]{1,2})\s+x\s+([A-Z]{1,2})$", s)
        if m:
            return Pi(
                FigureName(m.group(1)),
                self.parse_segment(m.group(2), col),
                self.parse_segment(m.group(3), col),
            )
        m = re.match(r"^([A-Z]{1,4})\s+on\s+([A-Z]{1,2})$", s)
        if m:
            return IsSq(FigureName(m.group(1)), self.parse_segment(m.group(2), col))
        if "=" in s:
            left, right = s.split("=", 1)
            return Eq(
                self.parse_sum(left, col),
                self.parse_sum(right, col + len(left) + 1),
            )
        raise self.err(col, f"statement, got {s!r}")


def parse_statement(text: str, line: int = 0) -> Statement:
    return _StmtParser(text, line).parse()


def parse_rational(tok: str, line: int = 0, col: int = 1) -> Fraction:
    tok = tok.strip()
    m = re.match(r"^(-?\d+)(?:/(\d+))?$", tok)
    if not m:
        raise ParseError(line, col, f"rational number, got {tok!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError(line, col, "zero denominator")
    return Fraction(num, den)


def ratio_text(num: int, den: int) -> str:
    """The rational num/den, given in lowest terms with den > 0."""
    return str(num) if den == 1 else f"{num}/{den}"


def rational_text(q: Fraction) -> str:
    return ratio_text(q.numerator, q.denominator)
