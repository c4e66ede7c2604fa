"""The rule engine: one inference rule per proof step, each tagged with its
color class (visual evidence red, renaming blue, the two substitution
families violet and magenta, everything else plain).

Premises are the claims of earlier steps, declared hypotheses, or inline
statements resolved against the construction facts; naming-form inline
premises fall back to a diagram check and are tagged as blue premises.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
from dataclasses import dataclass

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
    SidesNotATriangle,
    UnboundFigure,
    UnresolvedPremise,
    VEFailed,
)
from .script import Rule
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
    stmt_equal,
    stmt_key,
    stmt_text,
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


def _seg_ckey(s: T.Segment):
    return ("lone", s.a) if s.standalone else ("pp", s.a, s.b)


class FactBase:
    """Normalized statements with provenance.  Segment equalities live in a
    union-find so chains cited inline (Euclid's "DK, that is to say BG, is
    equal to A") resolve without explicit transitivity steps; everything
    else is matched one statement at a time."""

    def __init__(self, inst: dg.DiagramInstance):
        self.inst = inst
        self._parent: dict = {}
        self._stmts: dict = {}
        self._rangles: list[RightAngle] = []
        self._namings: list[Statement] = []  # Pi and IsSq facts
        self._eqs: list[Eq] = []

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

    def size(self) -> int:
        return len(self._stmts)

    def add(self, stmt: Statement, provenance: str):
        self._stmts.setdefault(stmt_key(stmt), (stmt, provenance))
        if isinstance(stmt, SegEq):
            self._union(_seg_ckey(stmt.a), _seg_ckey(stmt.b))
        elif isinstance(stmt, RightAngle):
            self._rangles.append(stmt)
        elif isinstance(stmt, (Pi, IsSq)):
            self._namings.append(stmt)
        elif isinstance(stmt, Eq):
            self._eqs.append(stmt)

    def has_segeq(self, a: T.Segment, b: T.Segment) -> bool:
        ka, kb = _seg_ckey(a), _seg_ckey(b)
        if ka == kb:
            return True
        return self._find(ka) == self._find(kb)

    def _ray_match(self, v: str, arm_fact: str, arm_query: str) -> bool:
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
        for fact in self._rangles:
            if fact.vertex != stmt.vertex:
                continue
            if (
                self._ray_match(fact.vertex, fact.arm1, stmt.arm1)
                and self._ray_match(fact.vertex, fact.arm2, stmt.arm2)
            ) or (
                self._ray_match(fact.vertex, fact.arm1, stmt.arm2)
                and self._ray_match(fact.vertex, fact.arm2, stmt.arm1)
            ):
                # flipping an arm along its line preserves a right angle,
                # but double-check numerically all the same
                try:
                    if dg.statement_holds(self.inst, stmt):
                        return True
                except Euclid2Error:
                    return False
        return False

    def _region(self, letters: str):
        try:
            return dg.region_key_of(self.inst, letters)
        except Euclid2Error:
            return ("unresolved", letters)

    def _eq_region_key(self, eq: Eq):
        def side(s: TermSum):
            out = []
            for t in T.normalize(s).terms:
                if isinstance(t, Fig):
                    out.append(("region", self._region(t.name.letters)))
                else:
                    out.append(("term", T._term_key(t)))
            return tuple(sorted(out, key=repr))

        sides = sorted([side(eq.lhs), side(eq.rhs)], key=repr)
        return (sides[0], sides[1])

    def has(self, stmt: Statement) -> bool:
        if isinstance(stmt, SegEq):
            return self.has_segeq(stmt.a, stmt.b)
        if isinstance(stmt, RightAngle):
            return self.has_rangle(stmt)
        if stmt_key(stmt) in self._stmts:
            return True
        if isinstance(stmt, Eq):
            key = self._eq_region_key(stmt)
            return any(self._eq_region_key(f) == key for f in self._eqs)
        return False

    def issq_facts(self):
        return [f for f in self._namings if isinstance(f, IsSq)]

    def pi_facts(self):
        return [f for f in self._namings if isinstance(f, Pi)]


# ---------------------------------------------------------------------------
# certificates


def _coord_text(e: cr.Expr) -> str:
    if e.rat is not None:
        return T.rational_text(e.rat)
    if e.quad is not None:
        a, b, r = e.quad
        return f"{T.rational_text(a)}+{T.rational_text(b)}*sqrt({r})"
    return cr.decimal_text(e, 30)


def _poly_payload(poly) -> list[list[str]]:
    return [[_coord_text(x), _coord_text(y)] for x, y in poly]


def make_certificate(kind: str, payload: dict) -> tuple[str, dict]:
    doc = {"kind": kind, **payload}
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    doc["digest"] = digest
    return digest, doc


# ---------------------------------------------------------------------------
# term-sum helpers


def _multiset(s: TermSum) -> dict:
    out: dict = {}
    for t in T.normalize(s).terms:
        k = T._term_key(t)
        out.setdefault(k, [0, t])
        out[k][0] += 1
    return out


def _ms_sub(a: dict, b: dict) -> dict | None:
    """Multiset difference a - b, or None when b is not contained in a."""
    out = {k: [n, t] for k, (n, t) in a.items()}
    for k, (n, _) in b.items():
        if k not in out or out[k][0] < n:
            return None
        out[k][0] -= n
        if out[k][0] == 0:
            del out[k]
    return out


def _ms_terms(a: dict) -> list:
    out = []
    for _, (n, t) in sorted(a.items()):
        out.extend([t] * n)
    return out


def _ms_union(a: dict, b: dict) -> dict:
    out = {k: [n, t] for k, (n, t) in a.items()}
    for k, (n, t) in b.items():
        out.setdefault(k, [0, t])
        out[k][0] += n
    return out


def _ms_common(a: dict, b: dict) -> dict:
    out = {}
    for k, (n, t) in a.items():
        if k in b:
            out[k] = [min(n, b[k][0]), t]
    return out


def sides_multiset_equal(a: TermSum, b: TermSum) -> bool:
    return T.sum_key(a) == T.sum_key(b)


# ---------------------------------------------------------------------------
# the rule context and shared substitution machinery


@dataclass
class StepOutcome:
    derived: Statement
    flags: tuple[str, ...] = ()
    certificate: dict | None = None


class RuleContext:
    def __init__(self, inst: dg.DiagramInstance, fb: FactBase, script_flags=frozenset()):
        self.inst = inst
        self.fb = fb
        self.script_flags = script_flags

    def fig_matches(self, name: FigureName, other: FigureName) -> bool:
        """Names match directly, or resolve to the same bound region (the
        diagonal-renaming convention: CE and DB name one square)."""
        if name.letters == other.letters:
            return True
        try:
            return dg.region_key_of(self.inst, name.letters) == dg.region_key_of(
                self.inst, other.letters
            )
        except Euclid2Error:
            return False

    def region(self, letters: str):
        return dg.figure_region(self.inst, letters)


def _lift_naming(p: Statement) -> Statement:
    """A naming fact as the equality it states: `F pi X x Y` is
    fig(F) = rect(X,Y) and `F on X` is fig(F) = sq(X).  Other statements
    are returned unchanged."""
    if isinstance(p, Pi):
        return Eq(term_sum([Fig(p.figure)]), term_sum([RectBy(p.first, p.second)]))
    if isinstance(p, IsSq):
        return Eq(term_sum([Fig(p.figure)]), term_sum([SquareOn(p.side)]))
    return p


def _naming_pairs(premises) -> list[tuple[FigureName, T.Term]]:
    """(figure, invisible-term) pairs carried by naming-form premises."""
    out = []
    for p in map(_lift_naming, premises):
        if isinstance(p, Eq):
            for left, right in ((p.lhs, p.rhs), (p.rhs, p.lhs)):
                if (
                    len(left.terms) == 1
                    and len(right.terms) == 1
                    and isinstance(left.terms[0], Fig)
                    and isinstance(right.terms[0], (RectBy, SquareOn))
                ):
                    out.append((left.terms[0].name, right.terms[0]))
    return out


def _subst_sum(s: TermSum, f) -> tuple[TermSum, int]:
    changed = 0

    def walk(t):
        nonlocal changed
        if isinstance(t, Multiple):
            inner = walk(t.inner)
            return Multiple(t.count, inner)
        r = f(t)
        if r is not None:
            changed += 1
            return r
        return t

    return term_sum(walk(t) for t in s.terms), changed


def _match_claim(derived: Statement, claim: Statement):
    if not stmt_equal(derived, claim):
        raise NoMatch(
            f"derived {stmt_text(derived)!r} does not match claim {stmt_text(claim)!r}"
        )


# ---------------------------------------------------------------------------
# substitution rules (violet / magenta)


def rule_R1(ctx: RuleContext, claim, premises) -> StepOutcome:
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
            return StepOutcome(cand)
    raise NoMatch(f"no substitution of {stmt_text(se)} into {stmt_text(pi)} yields the claim")


def rule_R2(ctx: RuleContext, claim, premises) -> StepOutcome:
    eqs = [p for p in premises if isinstance(p, SegEq)]
    if len(eqs) != 1:
        raise NoMatch("R2 needs exactly one segment equality")
    se = eqs[0]
    rest = [p for p in premises if not isinstance(p, SegEq)]
    if not rest:
        # the implicit rule "since X = Y, the square on X equals the square
        # on Y" used standalone
        if isinstance(claim, Eq) and all(
            len(side.terms) == 1 and isinstance(side.terms[0], SquareOn)
            for side in (claim.lhs, claim.rhs)
        ):
            s1 = claim.lhs.terms[0].side
            s2 = claim.rhs.terms[0].side
            if {s1, s2} == {se.a, se.b} or (s1 == s2 and s1 in (se.a, se.b)):
                return StepOutcome(claim)
        raise NoMatch("standalone R2 must conclude sq(X) = sq(Y) from X == Y")
    if len(rest) != 1:
        raise NoMatch("R2 takes one square-on or equality premise")
    base = rest[0]
    if isinstance(base, IsSq):
        for a, b in ((se.a, se.b), (se.b, se.a)):
            if base.side == a:
                derived = IsSq(base.figure, b)
                _match_claim(derived, claim)
                return StepOutcome(derived)
        if base.side in (se.a, se.b) or se.a == se.b:
            _match_claim(base, claim)
            return StepOutcome(base)
        raise NoMatch("side of the square-on fact is not mentioned in the equality")
    if isinstance(base, Eq):
        for a, b in ((se.a, se.b), (se.b, se.a)):

            def repl(t, a=a, b=b):
                if isinstance(t, SquareOn) and t.side == a:
                    return SquareOn(b)
                return None

            lhs, n1 = _subst_sum(base.lhs, repl)
            rhs, n2 = _subst_sum(base.rhs, repl)
            if n1 + n2 == 0:
                continue
            derived = Eq(lhs, rhs)
            if stmt_equal(derived, claim):
                return StepOutcome(derived)
        raise NoMatch("no square-on term rewrites to the claim")
    raise NoMatch("R2 premise must be a square-on fact or an equality")


def _split_base_eq(premises):
    """The first equality premise is the one being rewritten; the rest are
    naming premises."""
    base = None
    rest = []
    for p in premises:
        if base is None and isinstance(p, Eq):
            base = p
        else:
            rest.append(p)
    return base, rest


def rule_R3(ctx: RuleContext, claim, premises) -> StepOutcome:
    base, rest = _split_base_eq(premises)
    namings = _naming_pairs(rest)
    if base is None:
        raise NoMatch("R3 needs an equality premise")
    if not namings:
        raise NoMatch("R3 needs at least one naming premise")
    derived = base
    for figure, target in namings:

        def repl(t, figure=figure, target=target):
            if isinstance(t, Fig) and ctx.fig_matches(t.name, figure):
                return target
            return None

        lhs, n1 = _subst_sum(derived.lhs, repl)
        rhs, n2 = _subst_sum(derived.rhs, repl)
        if n1 + n2 == 0:
            raise NoMatch(f"figure {figure.letters} does not occur in the equality")
        derived = Eq(lhs, rhs)
    _match_claim(derived, claim)
    return StepOutcome(derived)


def rule_R4(ctx: RuleContext, claim, premises) -> StepOutcome:
    base, rest = _split_base_eq(premises)
    namings = _naming_pairs(rest)
    if base is None:
        raise NoMatch("R4 needs an equality premise")
    if not namings:
        raise NoMatch("R4 needs a contained-by or square-on naming premise")
    derived = base
    for figure, target in namings:
        tkey = T._term_key(target)

        def repl(t, tkey=tkey, figure=figure):
            if T._term_key(t) == tkey:
                return Fig(figure)
            return None

        lhs, n1 = _subst_sum(derived.lhs, repl)
        rhs, n2 = _subst_sum(derived.rhs, repl)
        if n1 + n2 == 0:
            raise NoMatch(
                f"term {T.term_text(target)} (operand order significant) not present"
            )
        derived = Eq(lhs, rhs)
    _match_claim(derived, claim)
    return StepOutcome(derived)


# ---------------------------------------------------------------------------
# common notions


def rule_CN1(ctx: RuleContext, claim, premises) -> StepOutcome:
    if len(premises) != 2:
        raise NoLink("CN1 needs two premises")
    a, b = premises
    if isinstance(a, SegEq) and isinstance(b, SegEq):
        segs = [a.a, a.b, b.a, b.b]
        for mid in (a.a, a.b):
            if mid in (b.a, b.b):
                left = a.b if mid == a.a else a.a
                right = b.b if mid == b.a else b.a
                derived = SegEq(left, right)
                if stmt_equal(derived, claim):
                    return StepOutcome(derived)
        raise NoLink("segment equalities share no common segment")
    if isinstance(a, Eq) and isinstance(b, Eq):
        for s1, o1 in ((a.lhs, a.rhs), (a.rhs, a.lhs)):
            for s2, o2 in ((b.lhs, b.rhs), (b.rhs, b.lhs)):
                if sides_multiset_equal(s1, s2):
                    derived = Eq(o1, o2)
                    if stmt_equal(derived, claim):
                        return StepOutcome(derived)
        raise NoLink("equalities share no common side")
    raise NoLink("CN1 chains two segment equalities or two sum equalities")


def rule_CN2(ctx: RuleContext, claim, premises) -> StepOutcome:
    if not isinstance(claim, Eq):
        raise NoMatch("CN2 concludes an equality")
    eqs = [_lift_naming(p) for p in premises]
    if not all(isinstance(p, Eq) for p in eqs):
        raise NoMatch("CN2 premises must be equalities or namings")
    if len(eqs) == 2:
        p1, p2 = eqs
        for s1, o1 in ((p1.lhs, p1.rhs), (p1.rhs, p1.lhs)):
            for s2, o2 in ((p2.lhs, p2.rhs), (p2.rhs, p2.lhs)):
                derived = Eq(
                    term_sum(list(s1.terms) + list(s2.terms)),
                    term_sum(list(o1.terms) + list(o2.terms)),
                )
                if stmt_equal(derived, claim):
                    return StepOutcome(derived)
        raise NoMatch("no pairing of premise sides yields the claim")
    if len(eqs) == 1:
        # "let T have been added to both": claim = premise with one common
        # multiset adjoined to the two sides
        p1 = eqs[0]
        for s1, o1 in ((p1.lhs, p1.rhs), (p1.rhs, p1.lhs)):
            d1 = _ms_sub(_multiset(claim.lhs), _multiset(s1))
            d2 = _ms_sub(_multiset(claim.rhs), _multiset(o1))
            if d1 is None or d2 is None:
                continue
            if sorted(d1.keys()) == sorted(d2.keys()) and all(
                d1[k][0] == d2[k][0] for k in d1
            ) and d1:
                return StepOutcome(claim)
        raise NoMatch("claim does not add one common term multiset to both sides")
    raise NoMatch("CN2 takes one or two premises")


def rule_CN3(ctx: RuleContext, claim, premises) -> StepOutcome:
    eqs = [p for p in premises if isinstance(p, Eq)]
    if len(eqs) != 1:
        raise NoCommonTerm("CN3 needs exactly one equality premise")
    base = eqs[0]
    ml, mr = _multiset(base.lhs), _multiset(base.rhs)
    common = _ms_common(ml, mr)
    if not common:
        raise NoCommonTerm("the two sides share no term")
    left = _ms_sub(ml, common)
    right = _ms_sub(mr, common)
    if not left or not right:
        raise NoCommonTerm("removing the common terms would empty a side")
    derived = Eq(term_sum(_ms_terms(left)), term_sum(_ms_terms(right)))
    _match_claim(derived, claim)
    return StepOutcome(derived)


# ---------------------------------------------------------------------------
# diagram-backed rules


def _resolve_ve_regions(ctx: RuleContext, s: TermSum):
    """Map each term to (figure letters, region polygon, multiplicity).
    Invisible terms resolve through naming facts in the fact base."""
    out = []
    extended = False

    def resolve(term, mult):
        nonlocal extended
        if isinstance(term, Multiple):
            resolve(term.inner, mult * term.count)
            return
        if isinstance(term, Fig):
            out.append((term.name.letters, ctx.region(term.name.letters), mult))
            return
        if isinstance(term, SquareOn):
            for fact in ctx.fb.issq_facts():
                if fact.side == term.side:
                    extended = True
                    out.append((fact.figure.letters, ctx.region(fact.figure.letters), mult))
                    return
            raise UnboundFigure(f"no square-on naming binds {T.term_text(term)}")
        if isinstance(term, RectBy):
            for fact in ctx.fb.pi_facts():
                if fact.first == term.first and fact.second == term.second:
                    extended = True
                    out.append((fact.figure.letters, ctx.region(fact.figure.letters), mult))
                    return
            raise UnboundFigure(f"no contained-by naming binds {T.term_text(term)}")
        raise UnboundFigure(f"term {T.term_text(term)} cannot be bound to a region")

    for t in T.normalize(s).terms:
        resolve(t, 1)
    return out, extended


def rule_VE(ctx: RuleContext, claim, premises) -> StepOutcome:
    if not isinstance(claim, Eq):
        raise VEFailed("visual evidence concludes an equality")
    left, ext_l = _resolve_ve_regions(ctx, claim.lhs)
    right, ext_r = _resolve_ve_regions(ctx, claim.rhs)
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
    digest, cert = make_certificate(
        "VE",
        {
            "lhs": [[n, m, _poly_payload(p)] for n, p, m in left],
            "rhs": [[n, m, _poly_payload(p)] for n, p, m in right],
            "exact": result.exact,
        },
    )
    return StepOutcome(claim, tuple(flags), cert)


def rule_NAME(ctx: RuleContext, claim, premises=()) -> StepOutcome:
    inst = ctx.inst
    if isinstance(claim, IsSq):
        poly = ctx.region(claim.figure.letters)
        _require_square(poly, claim.figure.letters)
        _require_side(inst, poly, claim.side)
        digest, cert = make_certificate(
            "NAME", {"figure": claim.figure.letters, "side": claim.side.text(),
                     "polygon": _poly_payload(poly)}
        )
        return StepOutcome(claim, (), cert)
    if isinstance(claim, Pi):
        poly = ctx.region(claim.figure.letters)
        if len(poly) != 4:
            raise NameMismatch(f"{claim.figure.letters} is not a quadrilateral")
        corner = _shared_corner(inst, poly, claim.first, claim.second)
        digest, cert = make_certificate(
            "NAME",
            {"figure": claim.figure.letters, "sides": [claim.first.text(), claim.second.text()],
             "corner": [_coord_text(corner[0]), _coord_text(corner[1])],
             "polygon": _poly_payload(poly)},
        )
        return StepOutcome(claim, (), cert)
    if isinstance(claim, Eq):
        if len(claim.lhs.terms) == 1 and len(claim.rhs.terms) == 1:
            t1, t2 = claim.lhs.terms[0], claim.rhs.terms[0]
            if isinstance(t1, Fig) and isinstance(t2, Fig):
                k1 = dg.region_key_of(ctx.inst, t1.name.letters)
                k2 = dg.region_key_of(ctx.inst, t2.name.letters)
                if k1 != k2:
                    raise NameMismatch(
                        f"{t1.name.letters} and {t2.name.letters} bind different regions"
                    )
                digest, cert = make_certificate(
                    "NAME", {"alias": [t1.name.letters, t2.name.letters]}
                )
                return StepOutcome(claim, ("alias",), cert)
    raise NameMismatch("NAME accepts square-on, contained-by, or alias claims")


def _require_square(poly, letters):
    if len(poly) != 4:
        raise NameMismatch(f"{letters} is not a quadrilateral")
    sides = [geo.dist2(poly[i], poly[(i + 1) % 4]) for i in range(4)]
    for i in range(1, 4):
        if geo.sign(cr.sub(sides[0], sides[i])) != 0:
            raise NameMismatch(f"{letters} is not equilateral")
    for i in range(4):
        u = geo.sub2(poly[(i + 1) % 4], poly[i])
        v = geo.sub2(poly[(i - 1) % 4], poly[i])
        if geo.sign(geo.dot(u, v)) != 0:
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
    p1 = set(map(lambda e: (cr.exact_key(e[0]), cr.exact_key(e[1])), inst.seg_endpoints(s1)))
    p2 = set(map(lambda e: (cr.exact_key(e[0]), cr.exact_key(e[1])), inst.seg_endpoints(s2)))
    shared = p1 & p2
    if len(shared) != 1:
        raise NameMismatch("the two sides do not meet in exactly one corner")
    a1, b1 = inst.seg_endpoints(s1)
    a2, b2 = inst.seg_endpoints(s2)
    key = next(iter(shared))
    corner = next(
        p for p in (a1, b1) if (cr.exact_key(p[0]), cr.exact_key(p[1])) == key
    )
    u = next(p for p in (a1, b1) if p is not corner)
    v = next(p for p in (a2, b2) if not geo.pts_equal(p, corner))
    if geo.sign(geo.dot(geo.sub2(u, corner), geo.sub2(v, corner))) != 0:
        raise NameMismatch("the named sides do not contain a right angle")
    return corner


def rule_I47(ctx: RuleContext, claim, premises) -> StepOutcome:
    if not isinstance(claim, Eq):
        raise NoRightAngle("I47 concludes an equality of squares")
    rangles = [p for p in premises if isinstance(p, RightAngle)]
    if not rangles:
        raise NoRightAngle("I47 needs a right-angle premise")
    ra = rangles[0]
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
            if ra.vertex != v:
                raise NoRightAngle(f"right angle is at {ra.vertex}, legs meet at {v}")
            arms_ok = (
                ctx.fb._ray_match(v, ra.arm1, x) and ctx.fb._ray_match(v, ra.arm2, y)
            ) or (ctx.fb._ray_match(v, ra.arm1, y) and ctx.fb._ray_match(v, ra.arm2, x))
            if not arms_ok:
                raise NoRightAngle("right-angle arms do not lie along the legs")
            pv, px, py = ctx.inst.point(v), ctx.inst.point(x), ctx.inst.point(y)
            if geo.sign(geo.dot(geo.sub2(px, pv), geo.sub2(py, pv))) != 0:
                raise NoRightAngle("angle between the legs is not right")
            if geo.sign(geo.cross(geo.sub2(px, pv), geo.sub2(py, pv))) == 0:
                raise SidesNotATriangle("the three points are collinear")
            digest, cert = make_certificate(
                "I47", {"vertex": v, "legs": [l1.text(), l2.text()], "hyp": hyp.text()}
            )
            return StepOutcome(claim, (), cert)
    raise NoRightAngle("claim is not of the form sq(hyp) = sq(leg1) + sq(leg2)")


def rule_I43(ctx: RuleContext, claim, premises) -> StepOutcome:
    if not (
        isinstance(claim, Eq)
        and len(claim.lhs.terms) == 1
        and len(claim.rhs.terms) == 1
        and isinstance(claim.lhs.terms[0], Fig)
        and isinstance(claim.rhs.terms[0], Fig)
    ):
        raise NotComplements("I43 equates two named figures")
    f1 = claim.lhs.terms[0].name.letters
    f2 = claim.rhs.terms[0].name.letters
    r1 = ctx.region(f1)
    r2 = ctx.region(f2)
    b1 = _poly_box(r1)
    b2 = _poly_box(r2)
    if b1 is None or b2 is None:
        raise NotComplements("complements must be rectangles")
    # shared corner
    k1 = {(cr.exact_key(p[0]), cr.exact_key(p[1])): p for p in r1}
    k2 = {(cr.exact_key(p[0]), cr.exact_key(p[1])): p for p in r2}
    shared = set(k1) & set(k2)
    if len(shared) != 1:
        raise NotComplements("the two figures do not meet in exactly one corner")
    pk = shared.pop()
    pshared = k1[pk]
    xs = [b1[0], b1[2], b2[0], b2[2]]
    ys = [b1[1], b1[3], b2[1], b2[3]]
    X1, X2 = min(xs, key=geo.by_value), max(xs, key=geo.by_value)
    Y1, Y2 = min(ys, key=geo.by_value), max(ys, key=geo.by_value)
    # far corners of the complements must be opposite corners of the bbox
    far1 = _opposite_corner(b1, pshared)
    far2 = _opposite_corner(b2, pshared)
    bbox_corners = [
        (X1, Y1), (X2, Y1), (X2, Y2), (X1, Y2)
    ]
    if not _is_corner(far1, bbox_corners) or not _is_corner(far2, bbox_corners):
        raise NotComplements("figures do not sit in opposite corners of a parallelogram")
    others = [
        c for c in bbox_corners
        if not geo.pts_equal(c, far1) and not geo.pts_equal(c, far2)
    ]
    if len(others) != 2:
        raise NotComplements("degenerate parallelogram")
    d0, d1 = others
    if not geo.on_segment(pshared, d0, d1):
        raise NotComplements("shared corner is not on the diameter")
    if not ctx.inst.drawn.segment_drawn(d0, d1):
        raise NotComplements("the diameter is not drawn")
    digest, cert = make_certificate(
        "I43",
        {
            "parallelogram": _poly_payload(bbox_corners),
            "diameter": _poly_payload([d0, d1]),
            "complements": [f1, f2],
        },
    )
    return StepOutcome(claim, (), cert)


def _poly_box(poly):
    if len(poly) != 4:
        return None
    xs = geo._sorted_unique([p[0] for p in poly])
    ys = geo._sorted_unique([p[1] for p in poly])
    if len(xs) != 2 or len(ys) != 2:
        return None
    return (xs[0], ys[0], xs[1], ys[1])


def _opposite_corner(box, p):
    x1, y1, x2, y2 = box
    ox = x1 if geo.cmp(p[0], x1) != 0 else x2
    oy = y1 if geo.cmp(p[1], y1) != 0 else y2
    return (ox, oy)


def _is_corner(p, corners):
    return any(geo.pts_equal(p, c) for c in corners)


# ---------------------------------------------------------------------------
# the aggregation rules the paper flags as unexplained


def rule_DOUBLE(ctx: RuleContext, claim, premises) -> StepOutcome:
    flags = ("unjustified-in-paper",)
    if not isinstance(claim, Eq):
        raise NoMatch("DOUBLE concludes an equality")
    if len(premises) == 2:
        pairs = _naming_pairs(premises)
        if len(pairs) == 2:
            (fig1, t1), (fig2, t2) = pairs
            if T._term_key(t1) != T._term_key(t2):
                raise DistinctTargets(
                    f"{T.term_text(t1)} and {T.term_text(t2)} differ (operand order counts)"
                )
            derived = Eq(
                term_sum([Fig(fig1), Fig(fig2)]),
                term_sum([Multiple(2, t1)]),
            )
            _match_claim(derived, claim)
            return StepOutcome(derived, flags)
        raise DistinctTargets("DOUBLE premises must both name the same invisible term")
    if len(premises) == 1:
        p = premises[0]
        if not isinstance(p, Eq):
            raise NoMatch("single-premise DOUBLE needs an equality")
        if (
            len(p.lhs.terms) == 1
            and len(p.rhs.terms) == 1
            and isinstance(p.lhs.terms[0], Fig)
            and isinstance(p.rhs.terms[0], Fig)
        ):
            f1, f2 = p.lhs.terms[0], p.rhs.terms[0]
            for doubled in (f1, f2):
                derived = Eq(term_sum([f1, f2]), term_sum([Multiple(2, doubled)]))
                if stmt_equal(derived, claim):
                    return StepOutcome(derived, flags)
        # collapse/expand between duplicate terms and explicit multiples
        if T.expand_multiples(p.lhs) == T.expand_multiples(claim.lhs) and T.expand_multiples(
            p.rhs
        ) == T.expand_multiples(claim.rhs):
            return StepOutcome(claim, flags)
        if T.expand_multiples(p.lhs) == T.expand_multiples(claim.rhs) and T.expand_multiples(
            p.rhs
        ) == T.expand_multiples(claim.lhs):
            return StepOutcome(claim, flags)
        raise NoMatch("claim is not a doubling or regrouping of the premise")
    raise NoMatch("DOUBLE takes one or two premises")


def rule_MERGE(ctx: RuleContext, claim, premises) -> StepOutcome:
    if not isinstance(claim, Eq):
        raise NoMatch("MERGE concludes an equality")
    eqs = [_lift_naming(p) for p in premises]
    if not all(isinstance(p, Eq) for p in eqs):
        raise NoMatch("MERGE premises must be equalities or namings")
    if not eqs:
        raise NoMatch("MERGE needs at least one premise")
    if len(eqs) == 1:
        _match_claim(eqs[0], claim)
        return StepOutcome(eqs[0], ("aggregation",))
    target_l = _multiset(claim.lhs)
    orientation = _find_merge_orientation(eqs, target_l)
    if orientation is None:
        raise NoMatch("no orientation of the premises aggregates to the claim")
    lefts, rights = orientation
    derived = Eq(
        term_sum([t for s in lefts for t in s.terms]),
        term_sum([t for s in rights for t in s.terms]),
    )
    _match_claim(derived, claim)
    # disjointness of the left-hand figure multisets
    seen: dict = {}
    overlap = False
    for s in lefts:
        for t in s.terms:
            if isinstance(t, Fig):
                k = T._term_key(t)
                if k in seen:
                    raise OverlapWithoutFlag(f"figure {t.name.letters} aggregated twice")
                seen[k] = t
    figs = [t for s in lefts for t in s.terms if isinstance(t, Fig)]
    for i in range(len(figs)):
        for j in range(i + 1, len(figs)):
            pi_ = ctx.region(figs[i].name.letters)
            pj = ctx.region(figs[j].name.letters)
            if geo.polys_overlap(pi_, pj):
                overlap = True
    flags = ["aggregation"]
    if overlap:
        if "allow-overlap" not in ctx.script_flags:
            raise OverlapWithoutFlag(
                "left-hand figures overlap and the script does not set allow-overlap"
            )
        flags.append("overlap")
    return StepOutcome(derived, tuple(flags))


def _find_merge_orientation(eqs, target_l, chosen=None):
    if chosen is None:
        chosen = []
    if len(chosen) == len(eqs):
        ms: dict = {}
        for s, _ in chosen:
            ms = _ms_union(ms, _multiset(s))
        if sorted(ms.keys()) == sorted(target_l.keys()) and all(
            ms[k][0] == target_l[k][0] for k in ms
        ):
            return [s for s, _ in chosen], [o for _, o in chosen]
        return None
    nxt = eqs[len(chosen)]
    for s, o in ((nxt.lhs, nxt.rhs), (nxt.rhs, nxt.lhs)):
        res = _find_merge_orientation(eqs, target_l, chosen + [(s, o)])
        if res is not None:
            return res
    return None


def rule_BM(ctx: RuleContext, claim, premises) -> StepOutcome:
    """Congruent-by-construction rectangles are equal; only available under
    the bm-dissection profile."""
    if not (
        isinstance(claim, Eq)
        and len(claim.lhs.terms) == 1
        and len(claim.rhs.terms) == 1
        and isinstance(claim.lhs.terms[0], Fig)
        and isinstance(claim.rhs.terms[0], Fig)
    ):
        raise NoMatch("BM equates two named rectangles")
    r1 = ctx.region(claim.lhs.terms[0].name.letters)
    r2 = ctx.region(claim.rhs.terms[0].name.letters)
    b1, b2 = _poly_box(r1), _poly_box(r2)
    if b1 is None or b2 is None:
        raise NoMatch("BM applies to axis-aligned rectangles")
    def dims(b):
        w = cr.sub(b[2], b[0])
        h = cr.sub(b[3], b[1])
        return w, h
    w1, h1 = dims(b1)
    w2, h2 = dims(b2)
    same = (
        geo.sign(cr.sub(w1, w2)) == 0 and geo.sign(cr.sub(h1, h2)) == 0
    ) or (geo.sign(cr.sub(w1, h2)) == 0 and geo.sign(cr.sub(h1, w2)) == 0)
    if not same:
        raise NoMatch("rectangles are not congruent")
    return StepOutcome(claim, ("bm-dissection",))


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


@dataclass
class _ResolvedPremise:
    stmt: Statement
    blue: bool


def _resolve_premises(ctx: RuleContext, script: sc.Script, step, prior: dict):
    resolved: list[_ResolvedPremise] = []
    for ref in step.premises:
        if isinstance(ref, sc.StepRef):
            if ref.index not in prior:
                raise UnresolvedPremise(f"step {ref.index} is not an earlier step")
            resolved.append(_ResolvedPremise(prior[ref.index], False))
        elif isinstance(ref, sc.HypRef):
            hyps = {h.index: h for h in script.hypotheses}
            if ref.index not in hyps:
                raise UnresolvedPremise(f"hypothesis h{ref.index} is not declared")
            resolved.append(_ResolvedPremise(hyps[ref.index].stmt, False))
        else:
            stmt = ref.stmt
            if ctx.fb.has(stmt):
                resolved.append(_ResolvedPremise(stmt, False))
                continue
            if isinstance(stmt, (Pi, IsSq)) or (
                isinstance(stmt, Eq)
                and len(stmt.lhs.terms) == 1
                and len(stmt.rhs.terms) == 1
            ):
                try:
                    rule_NAME(ctx, stmt)
                    resolved.append(_ResolvedPremise(stmt, True))
                    continue
                except RuleError:
                    pass
            raise UnresolvedPremise(
                f"premise {stmt_text(stmt)!r} is neither a fact nor diagram-checkable"
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
        diorismos=stmt_text(script.diorismos),
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
    except Exception as exc:
        return reject(0, f"RealizeFailed: {exc}")

    fb = FactBase(inst)
    for fact in inst.facts:
        fb.add(fact.statement, f"construction:{fact.reason}")
    for h in script.hypotheses:
        try:
            if not dg.statement_holds(inst, h.stmt):
                return reject(0, f"HypothesisFalse: h{h.index}")
        except Exception as exc:
            return reject(0, f"HypothesisUnverifiable: h{h.index}: {exc}")
        fb.add(h.stmt, f"hypothesis:h{h.index}")
        report.hypotheses.append((f"h{h.index}", stmt_text(h.stmt), h.flag))

    ctx = RuleContext(inst, fb, script.flags)
    prior: dict[int, Statement] = {}
    report.fact_counts.append(fb.size())

    for step in script.steps:
        rule = Rule(step.rule)
        if rule not in allowed:
            return reject(step.index, "RuleNotInProfile")
        try:
            resolved = _resolve_premises(ctx, script, step, prior)
            stmts = [r.stmt for r in resolved]
            outcome = _HANDLERS[rule](ctx, step.claim, stmts)
        except RuleError as exc:
            return reject(step.index, exc.cause)
        except Exception as exc:
            return reject(step.index, f"{type(exc).__name__}: {exc}")
        blue = tuple(stmt_text(r.stmt) for r in resolved if r.blue)
        digest = outcome.certificate["digest"] if outcome.certificate else None
        report.steps.append(
            sc.StepRecord(
                index=step.index,
                statement=stmt_text(step.claim),
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
        report.fact_counts.append(fb.size())
        report.derived.append(outcome.derived)

    if not script.steps or not stmt_equal(script.steps[-1].claim, script.diorismos):
        return reject(len(script.steps), ClaimMismatch.__name__)

    report.timing_ms = (time.perf_counter() - t0) * 1000
    return report
