"""The rule engine: one inference rule per proof step, each tagged with its
color class (visual evidence red, renaming blue, the two substitution
families violet and magenta, everything else plain).

Every rule runs against the `FactBase`: the realized diagram, the script's
flags and the facts so far.  `DiagramInstance.region` alone decides which
region a figure name binds, and `FactBase._named` which figure an invisible
term names.

Premises are the claims of earlier steps, declared hypotheses, or inline
statements resolved against the construction facts; naming-form inline
premises fall back to a diagram check and are tagged as blue premises.

CN1 and CN2 read their two premises through one orientation search
(`_orientations`), four readings at most.  CN2 and MERGE add up with one
routine, `_adds_up`: MERGE adds any number of premises as written, in one
pass, plus its figure checks, and CN2 adds its two in each orientation.
Rules reach coordinates only through geometry's exact predicates, so every
identity is decided by value: whether two names bind one figure
(`same_region`) and which corner two figures share (`cmp`).
"""

from __future__ import annotations

import enum
import itertools
import json
import time
from collections import Counter

try:  # CPython's own SHA-256, as `random` takes its sha512: hashlib loads OpenSSL
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from . import constructible as cr
from . import diagram as dg
from . import geometry as geo
from . import script as sc
from . import terms as T
from .errors import (
    ClaimMismatch,
    DistinctTargets,
    Euclid2Error,
    NameMismatch,
    NoCommonTerm,
    NoLink,
    NoMatch,
    NoRightAngle,
    NotComplements,
    OverlapWithoutFlag,
    RuleError,
    RuleNotInProfile,
    SidesNotATriangle,
    UnboundFigure,
    UnresolvedPremise,
    VEFailed,
)
from .record import Record
from .script import Flag, Rule
from .terms import (
    Eq,
    Fig,
    FigureName,
    IsSq,
    Multiple,
    Pi,
    RectBy,
    RightAngle,
    SegEq,
    SquareOn,
    Statement,
    TermSum,
    lift_naming,
    stmt_equal,
    stmt_key,
    term_sum,
)


class ColorClass(enum.Enum):
    RED = "red"
    BLUE = "blue"
    VIOLET = "violet"
    MAGENTA = "magenta"
    PLAIN = "plain"


_COLOR_OF = {
    Rule.VE: ColorClass.RED,
    Rule.NAME: ColorClass.BLUE,
    Rule.R1: ColorClass.VIOLET,
    Rule.R2: ColorClass.VIOLET,
    Rule.R3: ColorClass.MAGENTA,
    Rule.R4: ColorClass.MAGENTA,
}


def color_of(rule: Rule) -> ColorClass:
    return _COLOR_OF.get(rule, ColorClass.PLAIN)


# ---------------------------------------------------------------------------
# fact base


class FactBase:
    """Normalized statements with provenance.  Segment equalities live in a
    union-find so chains cited inline (Euclid's "DK, that is to say BG, is
    equal to A") resolve without explicit transitivity steps; everything
    else is matched one statement at a time.

    A new base holds the diagram's construction facts: those of its commands
    and then those of its labelled boxes (`_seed_box`).  Both go in from
    their labels without building a statement, by the one path per form
    that `add` takes too; only a command's figure equality is added as a
    statement."""

    def __init__(self, inst: dg.DiagramInstance, flags=frozenset()):
        self.inst = inst
        self.flags = flags
        self._parent: dict = {}
        self._stmts: dict = {}  # statement key (see `T.stmt_key`) -> provenance
        self._rangles: list[tuple[str, str, str]] = []  # (vertex, arm1, arm2)
        self._named: dict[RectBy | SquareOn, FigureName] = {}  # the first naming of a term wins
        self._eqs: list[Eq] = []
        for fact in inst.facts:
            provenance = f"construction:{fact.reason}"
            if fact.kind == "segeq":
                (a, b), (c, d) = fact.labels
                self._seed_segeq(T.side_key(a, b), T.side_key(c, d), provenance)
            elif fact.kind == "rangle":
                self._seed_rangle(*fact.labels, provenance)
            else:
                self.add(fact.statement, provenance)
        for box in inst.boxes():
            self._seed_box(*box)

    def _seed_box(self, a: str, b: str, c: str, d: str, square: bool):
        """The facts of the axis-aligned box with corners a, b, c, d in
        boundary order: its two pairs of opposite sides (I.34), its four
        right angles and, for a square, its equal adjacent sides."""
        ab, bc, cd, da = (T.side_key(p, q) for p, q in ((a, b), (b, c), (c, d), (d, a)))
        self._seed_segeq(da, bc, "construction:I34-OppositeSides")
        self._seed_segeq(cd, ab, "construction:I34-OppositeSides")
        for v, p, q in ((a, b, d), (b, a, c), (c, b, d), (d, a, c)):
            self._seed_rangle(v, p, q, "construction:ParallelogramRight")
        if square:
            self._seed_segeq(ab, bc, "construction:SquareSides")

    def _put(self, key, provenance: str) -> bool:
        """Record a statement key with its provenance; False if it was
        already there (the first provenance is kept)."""
        if key in self._stmts:
            return False
        self._stmts[key] = provenance
        return True

    def _seed_segeq(self, s: str, t: str, provenance: str):
        """The equality of the sides with keys s and t (see `T.side_key`)."""
        if self._put(frozenset((s, t)), provenance):
            self._union(s, t)

    def _seed_rangle(self, v: str, p: str, q: str, provenance: str):
        if self._put((v, frozenset((p, q))), provenance):
            self._rangles.append((v, p, q))

    def _find(self, k):
        self._parent.setdefault(k, k)
        while self._parent[k] != k:
            self._parent[k] = self._parent[self._parent[k]]
            k = self._parent[k]
        return k

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    def add(self, stmt: Statement, provenance: str):
        if isinstance(stmt, SegEq):
            a, b = stmt.a, stmt.b
            self._seed_segeq(T.side_key(a.a, a.b), T.side_key(b.a, b.b), provenance)
        elif isinstance(stmt, RightAngle):
            self._seed_rangle(stmt.vertex, stmt.arm1, stmt.arm2, provenance)
        elif self._put(stmt_key(stmt), provenance):
            if isinstance(stmt, Pi):
                self._named.setdefault(RectBy(stmt.first, stmt.second), stmt.figure)
            elif isinstance(stmt, IsSq):
                self._named.setdefault(SquareOn(stmt.side), stmt.figure)
            else:
                self._eqs.append(stmt)

    def has_segeq(self, a: T.Segment, b: T.Segment) -> bool:
        return self._find(T.side_key(a.a, a.b)) == self._find(T.side_key(b.a, b.b))

    def ray_match(self, v: str, arm_fact: str, arm_query: str) -> bool:
        """The ray from v through arm_query runs along the line v arm_fact."""
        if arm_fact == arm_query:
            return True
        try:
            pv = self.inst.point(v)
            pf = self.inst.point(arm_fact)
            pq = self.inst.point(arm_query)
        except Euclid2Error:
            return False
        return geo.collinear(pv, pf, pq)

    def has_rangle(self, stmt: RightAngle) -> bool:
        for vertex, arm1, arm2 in self._rangles:
            if vertex != stmt.vertex:
                continue
            if (
                self.ray_match(vertex, arm1, stmt.arm1)
                and self.ray_match(vertex, arm2, stmt.arm2)
            ) or (
                self.ray_match(vertex, arm1, stmt.arm2)
                and self.ray_match(vertex, arm2, stmt.arm1)
            ):
                # flipping an arm along its line preserves a right angle,
                # but double-check numerically all the same
                try:
                    if dg.statement_holds(self.inst, stmt):
                        return True
                except Euclid2Error:
                    return False
        return False

    def _same_sum(self, s: TermSum, t: TermSum) -> bool:
        """The terms of s pair off with those of t: a figure with one that
        binds its region (an unbound name only with its own letters), any
        other term with an equal one.  That match is an equivalence, so
        taking the first unused match never misses a pairing.  Worst case:
        quadratic in the number of terms, len(s) × len(t) comparisons."""
        rest = list(t.terms)
        for a in s.terms:
            for i, b in enumerate(rest):
                if a == b or (
                    isinstance(a, Fig) and isinstance(b, Fig)
                    and self.inst.same_region(a.name.letters, b.name.letters)
                ):
                    del rest[i]
                    break
            else:
                return False
        return not rest

    def has(self, stmt: Statement) -> bool:
        """Whether the base holds the statement.  A segment equality is one
        union-find lookup and any other statement one key lookup; an
        equality that no key matches falls back to a scan of every equality
        fact, each read both ways round by `_same_sum`, so its worst case is
        linear in the equality facts times quadratic in the terms."""
        if isinstance(stmt, SegEq):
            return self.has_segeq(stmt.a, stmt.b)
        if isinstance(stmt, RightAngle):
            return self.has_rangle(stmt)
        if stmt_key(stmt) in self._stmts:
            return True
        if isinstance(stmt, Eq):
            return any(
                self._same_sum(stmt.lhs, a) and self._same_sum(stmt.rhs, b)
                for f in self._eqs
                for a, b in ((f.lhs, f.rhs), (f.rhs, f.lhs))
            )
        return False


# ---------------------------------------------------------------------------
# certificates


def _poly_payload(poly) -> list[list[str]]:
    return [[cr.exact_text(x), cr.exact_text(y)] for x, y in poly]


def make_certificate(kind: str, payload: dict) -> dict:
    # the built-in SHA-256 gives hashlib's digest without OpenSSL, which
    # costs about 3.7 MB resident and 5 ms of import
    doc = {"kind": kind, **payload}
    doc["digest"] = _sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()[:16]
    return doc


# ---------------------------------------------------------------------------
# shared substitution machinery


class StepOutcome(Record):
    """What an accepted step adds to the report; the base takes its claim."""

    flags: tuple[str, ...] = ()
    certificate: dict | None = None


def _single_terms(stmt: Statement) -> tuple[T.Term, T.Term] | None:
    """The lone term of each side of an equality with one term a side."""
    if isinstance(stmt, Eq) and len(stmt.lhs.terms) == 1 and len(stmt.rhs.terms) == 1:
        return stmt.lhs.terms[0], stmt.rhs.terms[0]
    return None


def _fig_pair(stmt: Statement) -> tuple[Fig, Fig] | None:
    """The two figures of an equality `fig(X) = fig(Y)`."""
    pair = _single_terms(stmt)
    if pair is not None and all(isinstance(t, Fig) for t in pair):
        return pair
    return None


def _naming_pairs(premises) -> list[tuple[FigureName, T.Term]]:
    """(figure, invisible-term) pairs carried by naming-form premises."""
    out = []
    for p in map(lift_naming, premises):
        pair = _single_terms(p)
        if pair is None:
            continue
        for left, right in (pair, pair[::-1]):
            if isinstance(left, Fig) and isinstance(right, (RectBy, SquareOn)):
                out.append((left.name, right))
    return out


def _subst_eq(eq: Eq, f) -> tuple[Eq, int]:
    """`eq` with every term t (inside multiples too) replaced by f(t) where
    that is not None, and the number of terms replaced."""
    replaced = []  # each term put in

    def side(s: TermSum) -> TermSum:
        return term_sum(_subst_term(t, f, replaced) for t in s.terms)

    return Eq(side(eq.lhs), side(eq.rhs)), len(replaced)


def _subst_term(t, f, replaced: list):
    """t, or inside its multiple, replaced by f(t) where that is not None,
    noting each replacement in `replaced`.  A module function, not a closure
    that calls itself: such a closure is a reference cycle, and it would
    keep `f`, with the fact base and diagram it reads, until a collection."""
    if isinstance(t, Multiple):
        return Multiple(t.count, _subst_term(t.inner, f, replaced))
    r = f(t)
    if r is None:
        return t
    replaced.append(r)
    return r


def _match_claim(derived: Statement, claim: Statement):
    if not stmt_equal(derived, claim):
        raise NoMatch(
            f"derived {derived.text()!r} does not match claim {claim.text()!r}"
        )


def _orientations(eqs):
    """Every way to read each equality as (one side, the other side): 2^n
    readings of n equalities, so only CN1 and CN2 call it, on two."""
    return itertools.product(*[((e.lhs, e.rhs), (e.rhs, e.lhs)) for e in eqs])


def _adds_up(pairs, claim: Eq) -> bool:
    """Whether the (one side, other side) pairs, added side by side as
    written, give the claim's two sides in either order: one pass, linear
    in the terms."""
    sums = (Counter(t for s, _ in pairs for t in s.terms),
            Counter(t for _, o in pairs for t in o.terms))
    want = Counter(claim.lhs.terms), Counter(claim.rhs.terms)
    return sums == want or sums == want[::-1]


def _lifted(rule: str, claim, premises) -> list[Eq]:
    """The premises as equalities, namings lifted, for a rule that adds
    equalities up to an equality."""
    if not isinstance(claim, Eq):
        raise NoMatch(f"{rule} concludes an equality")
    eqs = [lift_naming(p) for p in premises]
    if not all(isinstance(p, Eq) for p in eqs):
        raise NoMatch(f"{rule} premises must be equalities or namings")
    return eqs


# ---------------------------------------------------------------------------
# substitution rules (violet / magenta)


def rule_R1(fb: FactBase, claim, premises) -> StepOutcome:
    pis = [p for p in premises if isinstance(p, Pi)]
    eqs = [p for p in premises if isinstance(p, SegEq)]
    if len(pis) != 1 or len(eqs) != 1:
        raise NoMatch("R1 needs one contained-by premise and one segment equality")
    pi, se = pis[0], eqs[0]
    candidates = []
    for pos in (0, 1):
        op = (pi.first, pi.second)[pos]
        for a, b in ((se.a, se.b), (se.b, se.a)):
            if op == a:
                ops = [pi.first, pi.second]
                ops[pos] = b
                candidates.append(Pi(pi.figure, ops[0], ops[1]))
    if not candidates:
        raise NoMatch("neither operand of the contained-by fact occurs in the equality")
    for cand in candidates:
        if stmt_equal(cand, claim):
            return StepOutcome()
    raise NoMatch(f"no substitution of {se.text()} into {pi.text()} yields the claim")


def rule_R2(fb: FactBase, claim, premises) -> StepOutcome:
    eqs = [p for p in premises if isinstance(p, SegEq)]
    if len(eqs) != 1:
        raise NoMatch("R2 needs exactly one segment equality")
    se = eqs[0]
    rest = [p for p in premises if not isinstance(p, SegEq)]
    if not rest:
        # the implicit rule "since X = Y, the square on X equals the square
        # on Y" used standalone
        pair = _single_terms(claim)
        if pair is not None and all(isinstance(t, SquareOn) for t in pair):
            s1, s2 = (t.side for t in pair)
            if {s1, s2} == {se.a, se.b} or (s1 == s2 and s1 in (se.a, se.b)):
                return StepOutcome()
        raise NoMatch("standalone R2 must conclude sq(X) = sq(Y) from X == Y")
    if len(rest) != 1:
        raise NoMatch("R2 takes one square-on or equality premise")
    base = rest[0]
    if isinstance(base, IsSq):
        for a, b in ((se.a, se.b), (se.b, se.a)):
            if base.side == a:
                derived = IsSq(base.figure, b)
                _match_claim(derived, claim)
                return StepOutcome()
        if se.a == se.b:
            _match_claim(base, claim)
            return StepOutcome()
        raise NoMatch("side of the square-on fact is not mentioned in the equality")
    if isinstance(base, Eq):
        for a, b in ((se.a, se.b), (se.b, se.a)):

            def repl(t, a=a, b=b):
                if isinstance(t, SquareOn) and t.side == a:
                    return SquareOn(b)
                return None

            derived, replaced = _subst_eq(base, repl)
            if replaced and stmt_equal(derived, claim):
                return StepOutcome()
        raise NoMatch("no square-on term rewrites to the claim")
    raise NoMatch("R2 premise must be a square-on fact or an equality")


def _rewrite_by_naming(rule: str, claim, premises, repl) -> StepOutcome:
    """R3 and R4: rewrite the first equality premise by each other premise
    that names a figure, term t becoming repl(figure, target, t) where that
    is not None; a naming that rewrites no term fails the step."""
    i = next((i for i, p in enumerate(premises) if isinstance(p, Eq)), None)
    if i is None:
        raise NoMatch(f"{rule} needs an equality premise")
    namings = _naming_pairs(premises[:i] + premises[i + 1 :])
    if not namings:
        raise NoMatch(f"{rule} needs a contained-by or square-on naming premise")
    derived = premises[i]
    for figure, target in namings:
        derived, replaced = _subst_eq(derived, lambda t: repl(figure, target, t))
        if not replaced:
            raise NoMatch(f"naming fig({figure.letters}) = {target.text()} rewrites no term")
    _match_claim(derived, claim)
    return StepOutcome()


def rule_R3(fb: FactBase, claim, premises) -> StepOutcome:
    """A figure becomes the invisible term it is named as.  Names match when
    identical or when both bind one region (CE and DB name one square)."""

    def repl(figure, target, t):
        same = isinstance(t, Fig) and (
            t.name == figure or fb.inst.same_region(t.name.letters, figure.letters)
        )
        return target if same else None

    return _rewrite_by_naming("R3", claim, premises, repl)


def rule_R4(fb: FactBase, claim, premises) -> StepOutcome:
    """An invisible term becomes the figure it names; operand order counts."""
    return _rewrite_by_naming(
        "R4", claim, premises, lambda figure, target, t: Fig(figure) if t == target else None
    )


# ---------------------------------------------------------------------------
# common notions


def rule_CN1(fb: FactBase, claim, premises) -> StepOutcome:
    if len(premises) != 2:
        raise NoLink("CN1 needs two premises")
    a, b = premises
    if isinstance(a, SegEq) and isinstance(b, SegEq):
        for mid in (a.a, a.b):
            if mid in (b.a, b.b):
                left = a.b if mid == a.a else a.a
                right = b.b if mid == b.a else b.a
                derived = SegEq(left, right)
                if stmt_equal(derived, claim):
                    return StepOutcome()
        raise NoLink("segment equalities share no common segment")
    if isinstance(a, Eq) and isinstance(b, Eq):
        for (s1, o1), (s2, o2) in _orientations((a, b)):
            if Counter(s1.terms) == Counter(s2.terms) and stmt_equal(Eq(o1, o2), claim):
                return StepOutcome()
        raise NoLink("equalities share no common side")
    raise NoLink("CN1 chains two segment equalities or two sum equalities")


def rule_CN2(fb: FactBase, claim, premises) -> StepOutcome:
    eqs = _lifted("CN2", claim, premises)
    if len(eqs) == 2:
        if not any(_adds_up(chosen, claim) for chosen in _orientations(eqs)):
            raise NoMatch("no pairing of premise sides yields the claim")
        return StepOutcome()
    if len(eqs) == 1:
        # "let T have been added to both": claim = premise with one common
        # multiset adjoined to the two sides
        p1 = eqs[0]
        left, right = Counter(claim.lhs.terms), Counter(claim.rhs.terms)
        for s1, o1 in ((p1.lhs, p1.rhs), (p1.rhs, p1.lhs)):
            m1, m2 = Counter(s1.terms), Counter(o1.terms)
            added = left - m1
            if m1 <= left and m2 <= right and added and added == right - m2:
                return StepOutcome()
        raise NoMatch("claim does not add one common term multiset to both sides")
    raise NoMatch("CN2 takes one or two premises")


def rule_CN3(fb: FactBase, claim, premises) -> StepOutcome:
    eqs = [p for p in premises if isinstance(p, Eq)]
    if len(eqs) != 1:
        raise NoCommonTerm("CN3 needs exactly one equality premise")
    base = eqs[0]
    ml, mr = Counter(base.lhs.terms), Counter(base.rhs.terms)
    common = ml & mr
    if not common:
        raise NoCommonTerm("the two sides share no term")
    left, right = ml - common, mr - common
    if not left or not right:
        raise NoCommonTerm("removing the common terms would empty a side")
    derived = Eq(term_sum(left.elements()), term_sum(right.elements()))
    _match_claim(derived, claim)
    return StepOutcome()


# ---------------------------------------------------------------------------
# diagram-backed rules


def _resolve_ve_regions(fb: FactBase, s: TermSum):
    """Map each term to (figure letters, region polygon, multiplicity).
    Invisible terms resolve through naming facts in the fact base."""
    out = []
    extended = False
    for term in s.terms:
        mult = 1
        if isinstance(term, Multiple):  # never nested
            term, mult = term.inner, term.count
        if isinstance(term, Fig):
            name = term.name
        elif isinstance(term, (SquareOn, RectBy)):
            name = fb._named.get(term)
            if name is None:
                kind = "square-on" if isinstance(term, SquareOn) else "contained-by"
                raise UnboundFigure(f"no {kind} naming binds {term.text()}")
            extended = True
        else:
            raise UnboundFigure(f"term {term.text()} cannot be bound to a region")
        out.append((name.letters, fb.inst.region(name.letters), mult))
    return out, extended


def rule_VE(fb: FactBase, claim, premises) -> StepOutcome:
    if not isinstance(claim, Eq):
        raise VEFailed("visual evidence concludes an equality")
    left, ext_l = _resolve_ve_regions(fb, claim.lhs)
    right, ext_r = _resolve_ve_regions(fb, claim.rhs)
    result = geo.coverage_equal(
        [(poly, m) for _, poly, m in left], [(poly, m) for _, poly, m in right]
    )
    if not result.equal:
        raise VEFailed("coverage-with-multiplicity differs between the two sides")
    flags = []
    if ext_l or ext_r:
        flags.append("extended-VE")
    if result.max_multiplicity > 1:
        flags.append(f"multiplicity-{result.max_multiplicity}")
    cert = make_certificate(
        "VE",
        {
            "lhs": [[n, m, _poly_payload(p)] for n, p, m in left],
            "rhs": [[n, m, _poly_payload(p)] for n, p, m in right],
            "exact": result.exact,
        },
    )
    return StepOutcome(tuple(flags), cert)


def _decide_NAME(inst, claim):
    """Decide a NAME claim in the diagram, raising NameMismatch unless it
    holds; returns its flags and a function that makes its certificate's
    payload, which only a NAME step calls."""
    if isinstance(claim, IsSq):
        poly = inst.region(claim.figure.letters)
        _require_square(poly, claim.figure.letters)
        _require_side(inst, poly, claim.side)
        return (), lambda: {"figure": claim.figure.letters, "side": claim.side.text(),
                            "polygon": _poly_payload(poly)}
    if isinstance(claim, Pi):
        poly = inst.region(claim.figure.letters)
        if len(poly) != 4:
            raise NameMismatch(f"{claim.figure.letters} is not a quadrilateral")
        corner = _shared_corner(inst, poly, claim.first, claim.second)
        return (), lambda: {
            "figure": claim.figure.letters, "sides": [claim.first.text(), claim.second.text()],
            "corner": [cr.exact_text(corner[0]), cr.exact_text(corner[1])],
            "polygon": _poly_payload(poly),
        }
    pair = _fig_pair(claim)
    if pair is not None:
        n1, n2 = (t.name.letters for t in pair)
        if not geo.same_region(inst.region(n1), inst.region(n2)):
            raise NameMismatch(f"{n1} and {n2} bind different regions")
        return ("alias",), lambda: {"alias": [n1, n2]}
    raise NameMismatch("NAME accepts square-on, contained-by, or alias claims")


def rule_NAME(fb: FactBase, claim, premises=()) -> StepOutcome:
    flags, payload = _decide_NAME(fb.inst, claim)
    return StepOutcome(flags, make_certificate("NAME", payload()))


def _require_square(poly, letters):
    if len(poly) != 4:
        raise NameMismatch(f"{letters} is not a quadrilateral")
    for i in range(1, 4):
        if not geo.equal_length(poly[0], poly[1], poly[i], poly[(i + 1) % 4]):
            raise NameMismatch(f"{letters} is not equilateral")
    for i in range(4):
        if not geo.right_angle(poly[i], poly[(i + 1) % 4], poly[i - 1]):
            raise NameMismatch(f"{letters} is not right-angled")


def _require_side(inst, poly, seg: T.Segment):
    p, q = inst.seg_endpoints(seg)
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if (geo.pts_equal(a, p) and geo.pts_equal(b, q)) or (
            geo.pts_equal(a, q) and geo.pts_equal(b, p)
        ):
            return
    raise NameMismatch(f"{seg.text()} is not a side of the figure")


def _shared_corner(inst, poly, s1: T.Segment, s2: T.Segment):
    _require_side(inst, poly, s1)
    _require_side(inst, poly, s2)
    ends1, ends2 = inst.seg_endpoints(s1), inst.seg_endpoints(s2)
    shared = [p for p in ends1 if any(geo.pts_equal(p, q) for q in ends2)]
    if len(shared) != 1:
        raise NameMismatch("the two sides do not meet in exactly one corner")
    corner = shared[0]
    u = next(p for p in ends1 if p is not corner)
    v = next(p for p in ends2 if not geo.pts_equal(p, corner))
    if not geo.right_angle(corner, u, v):
        raise NameMismatch("the named sides do not contain a right angle")
    return corner


def rule_I47(fb: FactBase, claim, premises) -> StepOutcome:
    if not isinstance(claim, Eq):
        raise NoRightAngle("I47 concludes an equality of squares")
    rangles = [p for p in premises if isinstance(p, RightAngle)]
    if not rangles:
        raise NoRightAngle("I47 needs a right-angle premise")
    for hyp_side, leg_side in ((claim.lhs, claim.rhs), (claim.rhs, claim.lhs)):
        if len(hyp_side.terms) == 1 and len(leg_side.terms) == 2:
            terms = list(hyp_side.terms) + list(leg_side.terms)
            if not all(isinstance(t, SquareOn) for t in terms):
                continue
            hyp = hyp_side.terms[0].side
            l1, l2 = (t.side for t in leg_side.terms)
            if hyp.standalone or l1.standalone or l2.standalone:
                raise SidesNotATriangle("triangle sides must join named points")
            shared = set(l1.points()) & set(l2.points())
            if len(shared) != 1:
                raise SidesNotATriangle("legs do not meet in one vertex")
            v = shared.pop()
            x = next(p for p in l1.points() if p != v)
            y = next(p for p in l2.points() if p != v)
            if set(hyp.points()) != {x, y}:
                raise SidesNotATriangle("hypotenuse does not join the leg endpoints")
            # the right-angle premises at the vertex where the legs meet
            at_v = [ra for ra in rangles if ra.vertex == v]
            if not at_v:
                raise NoRightAngle(f"no right-angle premise is at {v}, where the legs meet")
            if not any(
                (fb.ray_match(v, ra.arm1, x) and fb.ray_match(v, ra.arm2, y))
                or (fb.ray_match(v, ra.arm1, y) and fb.ray_match(v, ra.arm2, x))
                for ra in at_v
            ):
                raise NoRightAngle("right-angle arms do not lie along the legs")
            pv, px, py = fb.inst.point(v), fb.inst.point(x), fb.inst.point(y)
            if not geo.right_angle(pv, px, py):
                raise NoRightAngle("angle between the legs is not right")
            if geo.collinear(pv, px, py):
                raise SidesNotATriangle("the three points are collinear")
            cert = make_certificate(
                "I47", {"vertex": v, "legs": [l1.text(), l2.text()], "hyp": hyp.text()}
            )
            return StepOutcome(certificate=cert)
    raise NoRightAngle("claim is not of the form sq(hyp) = sq(leg1) + sq(leg2)")


def rule_I43(fb: FactBase, claim, premises) -> StepOutcome:
    pair = _fig_pair(claim)
    if pair is None:
        raise NotComplements("I43 equates two named figures")
    f1, f2 = (t.name.letters for t in pair)
    b1, b2 = (fb.inst.box(f) for f in (f1, f2))
    if b1 is None or b2 is None:
        raise NotComplements("complements must be rectangles")

    def in_order(axis):
        """The two boxes in order along the axis (0 for x, 1 for y), when
        one ends where the other starts."""
        if geo.cmp(b1[axis + 2], b2[axis]) == 0:
            return b1, b2
        if geo.cmp(b2[axis + 2], b1[axis]) == 0:
            return b2, b1
        raise NotComplements("figures do not sit in opposite corners of a parallelogram")

    # abutting in x and in y, the boxes meet in exactly one corner and fill
    # opposite corners of their bounding box
    left, right = in_order(0)
    low, high = in_order(1)
    bbox = [(left[0], low[1]), (right[2], low[1]), (right[2], high[3]), (left[0], high[3])]
    # the diameter joins the two corners the complements leave free
    d0, d1 = bbox[1::2] if left is low else bbox[0::2]
    if not geo.on_segment((left[2], low[3]), d0, d1):
        raise NotComplements("shared corner is not on the diameter")
    if not fb.inst.drawn.segment_drawn(d0, d1):
        raise NotComplements("the diameter is not drawn")
    cert = make_certificate(
        "I43",
        {
            "parallelogram": _poly_payload(bbox),
            "diameter": _poly_payload([d0, d1]),
            "complements": [f1, f2],
        },
    )
    return StepOutcome(certificate=cert)


# ---------------------------------------------------------------------------
# the aggregation rules the paper flags as unexplained


def _expanded(s: TermSum) -> Counter:
    """The terms of s counted with each multiple n*t as n copies of t."""
    return Counter(
        u for t in s.terms for u in ([t.inner] * t.count if isinstance(t, Multiple) else [t])
    )


def rule_DOUBLE(fb: FactBase, claim, premises) -> StepOutcome:
    flags = ("unjustified-in-paper",)
    if not isinstance(claim, Eq):
        raise NoMatch("DOUBLE concludes an equality")
    if len(premises) == 2:
        pairs = _naming_pairs(premises)
        if len(pairs) == 2:
            (fig1, t1), (fig2, t2) = pairs
            if t1 != t2:
                raise DistinctTargets(
                    f"{t1.text()} and {t2.text()} differ (operand order counts)"
                )
            derived = Eq(
                term_sum([Fig(fig1), Fig(fig2)]),
                term_sum([Multiple(2, t1)]),
            )
            _match_claim(derived, claim)
            return StepOutcome(flags)
        raise DistinctTargets("DOUBLE premises must both name the same invisible term")
    if len(premises) == 1:
        p = premises[0]
        if not isinstance(p, Eq):
            raise NoMatch("single-premise DOUBLE needs an equality")
        pair = _fig_pair(p)
        if pair is not None:
            f1, f2 = pair
            for doubled in pair:
                derived = Eq(term_sum([f1, f2]), term_sum([Multiple(2, doubled)]))
                if stmt_equal(derived, claim):
                    return StepOutcome(flags)
        # collapse/expand between duplicate terms and explicit multiples,
        # the premise's two sides against the claim's in either order
        got, want = ((_expanded(e.lhs), _expanded(e.rhs)) for e in (p, claim))
        if got == want or got == want[::-1]:
            return StepOutcome(flags)
        raise NoMatch("claim is not a doubling or regrouping of the premise")
    raise NoMatch("DOUBLE takes one or two premises")


def rule_MERGE(fb: FactBase, claim, premises) -> StepOutcome:
    """Addition over any number of premises, plus the figure checks Euclid
    leaves to the diagram: no left-hand figure of the claim is added twice,
    and those figures do not overlap unless the script allows it.

    The premises add up as written, left sides to one side and right sides
    to the other, and the claim may read either way round: one pass, linear
    in the terms.  Unlike CN2, MERGE tries no other orientation of its
    premises, so its work never grows as 2^n in their number."""
    eqs = _lifted("MERGE", claim, premises)
    if not eqs:
        raise NoMatch("MERGE needs at least one premise")
    if len(eqs) == 1:
        _match_claim(eqs[0], claim)
        return StepOutcome(("aggregation",))
    if not _adds_up([(e.lhs, e.rhs) for e in eqs], claim):
        raise NoMatch("the premises, added as written, do not give the claim")
    figs = [t for t in claim.lhs.terms if isinstance(t, Fig)]
    for t, n in Counter(figs).items():
        if n > 1:
            raise OverlapWithoutFlag(f"figure {t.name.letters} aggregated twice")
    # one coverage question over all of them: is some point covered twice?
    overlap = len(figs) > 1 and geo.polys_overlap(*(fb.inst.region(t.name.letters) for t in figs))
    flags = ["aggregation"]
    if overlap:
        if Flag.ALLOW_OVERLAP.value not in fb.flags:
            raise OverlapWithoutFlag(
                "left-hand figures overlap and the script does not set "
                + Flag.ALLOW_OVERLAP.value
            )
        flags.append("overlap")
    return StepOutcome(tuple(flags))


def rule_BM(fb: FactBase, claim, premises) -> StepOutcome:
    """Congruent-by-construction rectangles are equal; only available under
    the bm-dissection profile."""
    pair = _fig_pair(claim)
    if pair is None:
        raise NoMatch("BM equates two named rectangles")
    b1, b2 = (fb.inst.box(t.name.letters) for t in pair)
    if b1 is None or b2 is None:
        raise NoMatch("BM applies to axis-aligned rectangles")
    def dims(b):
        w = cr.sub(b[2], b[0])
        h = cr.sub(b[3], b[1])
        return w, h
    w1, h1 = dims(b1)
    w2, h2 = dims(b2)
    same = (geo.cmp(w1, w2) == 0 and geo.cmp(h1, h2) == 0) or (
        geo.cmp(w1, h2) == 0 and geo.cmp(h1, w2) == 0
    )
    if not same:
        raise NoMatch("rectangles are not congruent")
    return StepOutcome(("bm-dissection",))


# ---------------------------------------------------------------------------
# the checker


_HANDLERS = {
    Rule.R1: rule_R1,
    Rule.R2: rule_R2,
    Rule.R3: rule_R3,
    Rule.R4: rule_R4,
    Rule.CN1: rule_CN1,
    Rule.CN2: rule_CN2,
    Rule.CN3: rule_CN3,
    Rule.VE: rule_VE,
    Rule.NAME: rule_NAME,
    Rule.I43: rule_I43,
    Rule.I47: rule_I47,
    Rule.DOUBLE: rule_DOUBLE,
    Rule.MERGE: rule_MERGE,
    Rule.BM: rule_BM,
}

PROFILES = {
    "default": frozenset(r for r in _HANDLERS if r is not Rule.BM),
    "bm-dissection": frozenset(_HANDLERS),
}


def _resolve_premises(fb: FactBase, hyps: dict, step, prior: dict):
    """Each premise of the step as a (statement, blue) pair; blue marks an
    inline naming premise that only a diagram check (NAME) supports.  `hyps`
    maps each declared hypothesis index to its statement."""
    resolved: list[tuple[Statement, bool]] = []
    for ref in step.premises:
        if isinstance(ref, sc.StepRef):
            if ref.index not in prior:
                raise UnresolvedPremise(f"step {ref.index} is not an earlier step")
            resolved.append((prior[ref.index], False))
        elif isinstance(ref, sc.HypRef):
            if ref.index not in hyps:
                raise UnresolvedPremise(f"hypothesis h{ref.index} is not declared")
            resolved.append((hyps[ref.index], False))
        else:
            stmt = ref.stmt
            if fb.has(stmt):
                resolved.append((stmt, False))
                continue
            if isinstance(stmt, (Pi, IsSq)) or _single_terms(stmt) is not None:
                try:
                    _decide_NAME(fb.inst, stmt)
                    resolved.append((stmt, True))
                    continue
                except RuleError:
                    pass
            raise UnresolvedPremise(
                f"premise {stmt.text()!r} is neither a fact nor diagram-checkable"
            )
    return resolved


def check_proof(
    script: sc.Script,
    instance: dg.DiagramInstance | None = None,
    profile: str = "default",
) -> sc.CheckReport:
    t0 = time.perf_counter()
    report = sc.CheckReport(
        prop_id=script.prop_id,
        profile=profile,
        verdict="accepted",
        reject_step=None,
        reject_cause=None,
        steps=[],
        hypotheses=[],
        diorismos=script.diorismos.text(),
    )
    allowed = PROFILES.get(profile)
    if allowed is None:
        raise ValueError(f"unknown profile {profile!r}")

    def reject(step_idx, cause):
        report.verdict = "rejected"
        report.reject_step = step_idx
        report.reject_cause = cause
        report.timing_ms = (time.perf_counter() - t0) * 1000
        return report

    try:
        inst = instance if instance is not None else dg.realize(script)
        fb = FactBase(inst, script.flags)
    except Euclid2Error as exc:
        return reject(0, f"RealizeFailed: {exc}")

    for h in script.hypotheses:
        try:
            if not dg.statement_holds(inst, h.stmt):
                return reject(0, f"HypothesisFalse: h{h.index}")
        except Euclid2Error as exc:
            return reject(0, f"HypothesisUnverifiable: h{h.index}: {exc}")
        fb.add(h.stmt, f"hypothesis:h{h.index}")
        report.hypotheses.append((f"h{h.index}", h.stmt.text(), h.flag))

    prior: dict[int, Statement] = {}
    hyps = {h.index: h.stmt for h in script.hypotheses}

    for step in script.steps:
        rule = Rule(step.rule)
        if rule not in allowed:
            return reject(step.index, RuleNotInProfile.__name__)
        try:
            resolved = _resolve_premises(fb, hyps, step, prior)
            outcome = _HANDLERS[rule](fb, step.claim, [stmt for stmt, _ in resolved])
        except RuleError as exc:
            return reject(step.index, exc.cause)
        except Euclid2Error as exc:
            return reject(step.index, f"{type(exc).__name__}: {exc}")
        blue = tuple(stmt.text() for stmt, is_blue in resolved if is_blue)
        digest = outcome.certificate["digest"] if outcome.certificate else None
        report.steps.append(
            sc.StepRecord(
                index=step.index,
                statement=step.claim.text(),
                rule=rule.value,
                color=color_of(rule).value,
                flags=outcome.flags,
                certificate=digest,
                blue_premises=blue,
            )
        )
        if outcome.certificate:
            report.certificates.append(outcome.certificate)
        prior[step.index] = step.claim
        fb.add(step.claim, f"step:{step.index}")

    if not script.steps or not stmt_equal(script.steps[-1].claim, script.diorismos):
        return reject(len(script.steps), ClaimMismatch.__name__)

    report.timing_ms = (time.perf_counter() - t0) * 1000
    return report
