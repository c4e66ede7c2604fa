"""Object language: segments, figure names, terms, sums, statements.

Every value is immutable and carries a canonical form, so rule matching in
the calculus compares records by value.  Rectangle operands stay in
the order they were written: `rect(X,Y)` and `rect(Y,X)` are distinct terms.
Segment endpoints, by contrast, are unordered (`GB` names the same segment
as `BG`).

The module also holds the text syntax of the whole `.e2p` grammar: one
tokenizer, and one engine that parses and prints each form from its SYNTAX
template.
"""

from __future__ import annotations

import re
import typing
from operator import attrgetter

from .errors import DegenerateSegment, ParseError
from .record import FrozenRecord


class Segment(FrozenRecord):
    """Unordered endpoint pair, or a standalone one-letter segment.

    A standalone segment (Euclid's lone line "A" in II.1) has `a` set to its
    name and `b` set to None.  `display` remembers the spelling used in the
    source text; it never takes part in equality or hashing.
    """

    a: str
    b: str | None = None
    display: str | None = None
    NOT_COMPARED = ("display",)

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


def segment_named(text: str) -> Segment:
    """The segment a one- or two-letter name spells: one letter is a
    standalone segment, two are an endpoint pair shown as written."""
    if len(text) == 1:
        return Segment(text)
    return Segment(text[0], text[1], display=text)


class FigureName(FrozenRecord):
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
# text syntax
#
# Each form's concrete syntax is its SYNTAX template, the one place it is
# written: `Reader.read` parses it and `Syntax.text` prints it.  A
# placeholder `<field:spec>` stands for a record field.  The spec is a
# letter count (`2`, or a range such as `1-4`), a list of words such as
# `above|below`, or the name of a reader method (`seg` reads with
# `Reader.read_seg`).  A letter count may name the kind of label the letters
# must be declared as (`2 pt`, `1-4 fig`; see `Reader.check_label`); without
# one the name is not checked, as where a command declares it.  Adjacent
# letter fields, each of a fixed count and of one kind, read one name; a
# letter field annotated as a tuple holds one letter per item, and a field
# named twice must repeat the same letters.  The rest of a template is
# literal tokens.  Whitespace between tokens is free.

# A token is a number (`12`, `-1/2`, or a malformed one such as `1e3`, so
# that an error quotes it whole), a name (`AB`, or a rule such as `CN1`), a
# word (`sq`, `s1`, `d_2`), `==`, or any other single character; its kind
# follows from its first character.  Whitespace only separates tokens.
_TOKEN = re.compile(r"-?\d[\w/]*|[A-Z][A-Z0-9]*|[a-z][a-z0-9_]*|==|\S")
_PLACEHOLDER = re.compile(r"<(\w+):([^>]+)>")
# template items that always read exactly one token
_ONE_TOKEN = {"letters", "words", "read_seg", "read_fig", "read_pt", "read_int"}


class Syntax(FrozenRecord):
    """A form whose text is its SYNTAX template."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        items: list[tuple[str, typing.Any]] = []
        pos = 0
        for m in _PLACEHOLDER.finditer(cls.SYNTAX):
            items += [("lit", text) for text in _TOKEN.findall(cls.SYNTAX, pos, m.start())]
            name, spec = m.groups()
            if spec[0].isdigit():
                count, _, kind = spec.partition(" ")
                lo, _, hi = count.partition("-")
                lo, hi = int(lo), int(hi or lo)
                parts = ((name, hi, cls.__annotations__[name].startswith("tuple")),)
                if m.start() == pos and items and items[-1][0] == "letters":
                    # right after another letter field: the two read one name
                    before, lo_before, hi_before, _ = items.pop()[1]
                    parts, lo, hi = before + parts, lo_before + lo, hi_before + hi
                items.append(("letters", (parts, lo, hi, kind or None)))
            elif "|" in spec:
                items.append(("words", (name, tuple(spec.split("|")))))
            else:
                items.append(("read_" + spec, name))
            pos = m.end()
        items += [("lit", text) for text in _TOKEN.findall(cls.SYNTAX, pos)]
        cls._items = tuple(items)
        # the printer: the template with `%s` for each field, and what each
        # field prints, chosen once from the field's annotation
        cls._format = _PLACEHOLDER.sub("%s", cls.SYNTAX)
        cls._printers = tuple(
            _printer(m.group(1), cls.__annotations__[m.group(1)])
            for m in _PLACEHOLDER.finditer(cls.SYNTAX)
        )
        # (offset, text) of each literal token before the first field that can
        # read more than one token: a form is tried only where these stand
        key = []
        for offset, (op, arg) in enumerate(items):
            if op == "lit":
                key.append((offset, arg))
            elif op not in _ONE_TOKEN:
                break
        cls._key = tuple(key)

    def text(self) -> str:
        return self._format % tuple([printer(self) for printer in self._printers])


def _printer(name: str, annotation: str):
    """A function from a form to the text of its field `name`: a string or
    an int as it is, letters joined, forms each after a space, a form by its
    `text()`."""
    get = attrgetter(name)
    if annotation in ("str", "int"):
        return get
    if annotation.startswith("tuple[str"):
        return lambda form: "".join(get(form))
    if annotation.startswith("tuple"):
        return lambda form: "".join([" " + item.text() for item in get(form)])
    return lambda form: get(form).text()


# ---------------------------------------------------------------------------
# terms


class SquareOn(Syntax):
    SYNTAX = "sq(<side:seg>)"
    side: Segment


class RectBy(Syntax):
    SYNTAX = "rect(<first:seg>,<second:seg>)"
    first: Segment
    second: Segment


class Fig(Syntax):
    SYNTAX = "fig(<name:fig>)"
    name: FigureName


class Multiple(Syntax):
    SYNTAX = "<count:int>*<inner:atom>"
    count: int
    inner: "Term"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("Multiple count must be >= 2")
        if isinstance(self.inner, Multiple):
            raise ValueError("Multiple must not nest Multiple directly")


Term = SquareOn | RectBy | Fig | Multiple
TERMS: tuple[type[Syntax], ...] = typing.get_args(Term)
_ATOMS = tuple(t for t in TERMS if t is not Multiple)  # what a multiple may hold


def term_key(t: Term) -> str:
    """The order `TermSum` prints in: the text with canonical segments."""
    if isinstance(t, SquareOn):
        return f"sq({t.side.a}{t.side.b or ''})"
    if isinstance(t, RectBy):
        return f"rect({t.first.a}{t.first.b or ''},{t.second.a}{t.second.b or ''})"
    if isinstance(t, Fig):
        return f"fig({t.name.letters})"
    if isinstance(t, Multiple):
        return f"{t.count}*{term_key(t.inner)}"
    raise TypeError(t)


class TermSum(FrozenRecord):
    """Non-empty multiset of terms, sorted by the canonical key when built;
    the operands inside a RectBy are never reordered."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("TermSum must be non-empty")
        object.__setattr__(self, "terms", tuple(sorted(self.terms, key=term_key)))

    def text(self) -> str:
        return " + ".join([t.text() for t in self.terms])


def term_sum(terms) -> TermSum:
    return TermSum(tuple(terms))


# ---------------------------------------------------------------------------
# statements


class Eq(Syntax):
    SYNTAX = "<lhs:sum> = <rhs:sum>"
    lhs: TermSum
    rhs: TermSum


class Pi(Syntax):
    """`figure pi first x second` - the visible figure is the rectangle
    contained by the two segments.  The operand pair is ordered."""

    SYNTAX = "<figure:fig> pi <first:seg> x <second:seg>"
    figure: FigureName
    first: Segment
    second: Segment


class IsSq(Syntax):
    SYNTAX = "<figure:fig> on <side:seg>"
    figure: FigureName
    side: Segment


class SegEq(Syntax):
    SYNTAX = "<a:seg> == <b:seg>"
    a: Segment
    b: Segment


class RightAngle(Syntax):
    SYNTAX = "rangle(<vertex:pt>;<arm1:pt>,<arm2:pt>)"
    vertex: str
    arm1: str
    arm2: str

    def __post_init__(self):
        for arm in (self.arm1, self.arm2):
            if arm == self.vertex:
                raise ValueError(f"right angle arm {self.vertex}{arm} is degenerate")


# an equality has no key token, so it is tried last
Statement = Pi | IsSq | SegEq | RightAngle | Eq
STATEMENTS: tuple[type[Syntax], ...] = typing.get_args(Statement)


def side_key(a: str, b: str | None) -> str:
    """The key of the segment with endpoint labels a and b in either order,
    or of the standalone segment a when b is None: its points in order."""
    return a if b is None else a + b if a < b else b + a


def stmt_key(s: Statement):
    """The statement as a value that forgets which side of `=` or `==` comes
    first and the order of a right angle's arms; `pi` and `on`, whose
    operand order counts, are their own key."""
    if isinstance(s, Eq):
        return frozenset((s.lhs, s.rhs))
    if isinstance(s, SegEq):
        return frozenset((s.a, s.b))
    if isinstance(s, RightAngle):
        return s.vertex, frozenset((s.arm1, s.arm2))
    return s


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
    """Value identity modulo segment-endpoint order, term-multiset order,
    symmetry of `=` and `==`, and arm order of right angles.  Rect operand
    order and pi operand order are significant."""
    return stmt_key(a) == stmt_key(b)


# ---------------------------------------------------------------------------
# parsing


class Reader:
    """A cursor over the tokens of one source line, which end with an empty
    token.  `read` parses a form from its SYNTAX template, with one
    `read_<spec>` method per field spec.  `check_label` is where a subclass
    checks each name against what has been declared; this class accepts
    every name.

    A reader parses each distinct term once: `read_term` keeps the term it
    read under its tokens, from the cursor through the first `)`, and
    returns it when those tokens come again.  That is exact because a
    term's value depends only on its tokens and on the declarations, and
    declarations only grow while one reader runs.  Errors are not kept, so
    each one is raised with its own text and column."""

    def __init__(self, text: str = "", line: int = 0):
        self.line = line
        self._terms: dict[tuple[str, ...], Term] = {}
        self.start(text)

    def start(self, text: str) -> None:
        self.src = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.pos = 0
        self._cols: list[int] | None = None

    def col(self, at: int | None = None) -> int:
        """The column of token `at` (default: the current one)."""
        if self._cols is None:  # only errors and runs need columns
            self._cols = [m.start() + 1 for m in _TOKEN.finditer(self.src)]
            self._cols.append(len(self.src.rstrip()) + 1)
        return self._cols[self.pos if at is None else at]

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A parse error at token `at` (default: the current one)."""
        return ParseError(self.line, self.col(at), message)

    def err(self, want: str) -> ParseError:
        got = self.toks[self.pos]
        return self.fail(f"{want}, got {got!r}" if got else f"{want}, got end of line")

    def end(self) -> None:
        if self.toks[self.pos]:
            raise self.err("end of line")

    def read(self, form: type[Syntax], **extra):
        """The `form` spelled at the cursor; `extra` gives the fields its
        template does not name."""
        toks = self.toks
        start = self.pos
        fields: dict[str, typing.Any] = {}
        for op, arg in form._items:
            if op == "lit":
                if toks[self.pos] != arg:
                    raise self.err(repr(arg))
                self.pos += 1
            elif op == "letters":
                parts, lo, hi, kind = arg
                letters = self.name(lo, hi, kind=kind)
                rest = letters
                for name, size, as_tuple in parts:
                    value = tuple(rest[:size]) if as_tuple else rest[:size]
                    rest = rest[size:]
                    if fields.setdefault(name, value) != value:
                        again = f"{name} {''.join(fields[name])!r} again, got {letters!r}"
                        raise self.fail(again, self.pos - 1)
            elif op == "words":
                name, words = arg
                if toks[self.pos] not in words:
                    raise self.err(" or ".join(words))
                fields[name] = toks[self.pos]
                self.pos += 1
            else:
                fields[arg] = getattr(self, op)()
        try:
            return form(**fields, **extra)
        except ValueError as exc:
            raise self.fail(str(exc), start) from None

    def choose(self, forms, want: str, whole_line: bool = False):
        """The first of `forms` that reads at the cursor, through the end of
        the line if `whole_line`; a form is tried only if its key tokens are
        in place.  When none reads, the error is that of the form that got
        furthest, or `want` at the cursor if none got past it."""
        toks = self.toks
        start = self.pos
        best = None
        for form in forms:
            for offset, text in form._key:
                at = start + offset
                if at >= len(toks) or toks[at] != text:
                    break
            else:
                try:
                    value = self.read(form)
                    if whole_line:
                        self.end()
                    return value
                except ParseError as exc:
                    if best is None or exc.col > best.col:
                        best = exc
                    self.pos = start
        # no form reads.  A form whose key tokens are not in place fails at
        # one of them, before any field that nests, so trying it is cheap
        # and may show an error further on.
        best = best or self.err(want)
        for form in forms:
            key = form._key
            if all(start + at < len(toks) and toks[start + at] == text for at, text in key):
                continue  # read above
            try:
                self.read(form)
            except ParseError as exc:
                if exc.col > best.col:
                    best = exc
            self.pos = start
        try:
            raise best
        finally:
            best = None  # the traceback holds this frame: no cycle through it

    def check_label(self, kind: str, text: str, at: int) -> None:
        """Raise unless the name `text`, token `at`, is declared as a `kind`:
        "seg", "fig" or "pt"."""

    def name(self, lo: int, hi: int, want: str = "", kind: str | None = None) -> str:
        """A name of `lo` to `hi` letters, which an error calls `want`; a
        `kind` of label must be declared."""
        text = self.toks[self.pos]
        if not (lo <= len(text) <= hi and "A" <= text[0] <= "Z" and text.isalpha()):
            raise self.err(want or (f"{lo} letters" if lo == hi else f"{lo}-{hi} letters"))
        if kind is not None:
            self.check_label(kind, text, self.pos)
        self.pos += 1
        return text

    def read_int(self) -> int:
        text = self.toks[self.pos]
        if not text.isdecimal():
            raise self.err("integer")
        self.pos += 1
        return int(text)

    def read_pt(self) -> str:
        return self.name(1, 1, "point", "pt")

    def read_seg(self) -> Segment:
        text = self.name(1, 2, "segment name", "seg")
        self.check_distinct(text, self.pos - 1)
        return segment_named(text)

    def check_distinct(self, text: str, at: int) -> None:
        """Raise unless the segment name `text`, token `at`, is one letter
        or joins two distinct points."""
        if len(text) == 2 and text[0] == text[1]:
            raise self.fail(f"segment {text} is degenerate", at)

    def read_fig(self) -> FigureName:
        return FigureName(self.name(1, 4, "figure name", "fig"))

    def read_term(self) -> Term:
        toks, start = self.toks, self.pos
        try:
            end = toks.index(")", start) + 1
        except ValueError:  # every term ends with `)`, so this one fails
            return self.choose(TERMS, "term")
        key = tuple(toks[start:end])
        term = self._terms.get(key)
        if term is not None:
            self.pos = end
            return term
        term = self.choose(TERMS, "term")
        if self.pos == end:
            self._terms[key] = term
        return term

    def read_atom(self) -> Term:
        return self.choose(_ATOMS, "term other than a multiple")

    def read_sum(self) -> TermSum:
        terms = [self.read_term()]
        while self.toks[self.pos] == "+":
            self.pos += 1
            terms.append(self.read_term())
        return term_sum(terms)

    def read_stmt(self) -> Statement:
        return self.choose(STATEMENTS, "statement")


def parse_statement(text: str, line: int = 0) -> Statement:
    """The statement `text` spells, on source line `line`; its names are
    not checked against any declarations."""
    reader = Reader(text, line)
    stmt = reader.read_stmt()
    reader.end()
    return stmt
