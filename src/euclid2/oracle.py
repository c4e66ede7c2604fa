"""Independent semantic cross-check.

Statements about collinear configurations translate into multivariate
polynomials over the free gap lengths of the declared base lines, where an
equality must be a polynomial identity.  Statements that involve bound
figures or radical lengths are checked numerically instead: the construction
is realized at seeded random rational parameter draws and both sides are
evaluated as exact areas/lengths, with a relative tolerance.

The oracle validates statements, never proofs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import constructible as cr
from . import diagram as dg
from . import script as sc
from . import terms as T
from .errors import DiagramError, RealizeFailed, UnmappedTerm

# ---------------------------------------------------------------------------
# polynomials: {monomial: coefficient}, monomial = tuple of (var, exponent)

Monomial = tuple[tuple[str, int], ...]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[str, int] = {}
    for v, e in a + b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def const(q) -> "Poly":
        q = Fraction(q)
        return Poly(((tuple(), q),) if q else tuple())

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly(((((name, 1),), Fraction(1)),))

    def _dict(self) -> dict[Monomial, Fraction]:
        return dict(self.coeffs)

    @staticmethod
    def _from_dict(d: dict[Monomial, Fraction]) -> "Poly":
        items = tuple(sorted((m, c) for m, c in d.items() if c != 0))
        return Poly(items)

    def __add__(self, other: "Poly") -> "Poly":
        d = self._dict()
        for m, c in other.coeffs:
            d[m] = d.get(m, Fraction(0)) + c
        return Poly._from_dict(d)

    def __sub__(self, other: "Poly") -> "Poly":
        d = self._dict()
        for m, c in other.coeffs:
            d[m] = d.get(m, Fraction(0)) - c
        return Poly._from_dict(d)

    def __mul__(self, other: "Poly") -> "Poly":
        d: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs:
            for m2, c2 in other.coeffs:
                m = _mono_mul(m1, m2)
                d[m] = d.get(m, Fraction(0)) + c1 * c2
        return Poly._from_dict(d)

    def scale(self, q) -> "Poly":
        q = Fraction(q)
        return Poly._from_dict({m: c * q for m, c in self.coeffs})

    def is_zero(self) -> bool:
        return not self.coeffs

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in self.coeffs:
            mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in m)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def check_identity_exact(lhs: Poly, rhs: Poly) -> bool:
    return (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# coordinatization


class Coordinatization:
    """Maps segments to polynomials in the free gap lengths of the declared
    base lines.  Gaps constrained by the construction (half cuts, copied
    extensions) are eliminated by substitution, so `whole = sum of parts`
    holds by construction."""

    def __init__(self, script: sc.Script):
        self.script = script
        self.line_pos: dict[str, list[tuple[tuple[str, ...], int]]] = {}
        self.gaps: dict[tuple[str, str], Poly] = {}
        self.standalone: dict[str, Poly] = {}
        for line in script.base_lines:
            for idx, p in enumerate(line):
                self.line_pos.setdefault(p, []).append((line, idx))
            for i in range(len(line) - 1):
                self.gaps[(line[i], line[i + 1])] = Poly.var(f"g_{line[i]}{line[i+1]}")
        for cmd in script.construction:
            if isinstance(cmd, sc.StandaloneSegmentCmd):
                self.standalone[cmd.name] = Poly.var(f"len_{cmd.name}")
            elif isinstance(cmd, sc.CutHalf):
                self._apply_half(cmd)
            elif isinstance(cmd, sc.ExtendBy) and isinstance(cmd.by, sc.LenSeg):
                self._apply_copy(cmd)

    def _span(self, line: tuple[str, ...], i: int, j: int) -> Poly | None:
        if i > j:
            i, j = j, i
        total = Poly.const(0)
        for k in range(i, j):
            total = total + self.gaps[(line[k], line[k + 1])]
        return total

    def _locate(self, a: str, b: str):
        for line, ia in self.line_pos.get(a, []):
            for line2, ib in self.line_pos.get(b, []):
                if line2 is line:
                    return line, ia, ib
        return None

    def _apply_half(self, cmd: sc.CutHalf):
        loc_a = self._locate(cmd.on[0], cmd.point)
        loc_b = self._locate(cmd.point, cmd.on[1])
        if not loc_a or not loc_b or loc_a[0] is not loc_b[0]:
            return
        line, ia, ic = loc_a
        _, _, ib = loc_b
        left = self._span(line, ia, ic)
        right = self._span(line, ic, ib)
        # eliminate: if one side is a single gap variable, rewrite it
        for side, other in ((left, right), (right, left)):
            var = self._single_gap(side)
            if var is not None:
                self._substitute(var, other)
                return

    def _apply_copy(self, cmd: sc.ExtendBy):
        ref = cmd.by.seg
        if len(ref) == 2:
            refpoly = self.seg_poly_or_none(T.Segment(ref[0], ref[1]))
        else:
            refpoly = self.standalone.get(ref)
        gap = self.gaps.get((cmd.on[1], cmd.to))
        if refpoly is None or gap is None:
            return
        var = self._single_gap(gap)
        if var is not None:
            self._substitute(var, refpoly)

    def _single_gap(self, p: Poly) -> str | None:
        if len(p.coeffs) == 1:
            m, c = p.coeffs[0]
            if c == 1 and len(m) == 1 and m[0][1] == 1:
                return m[0][0]
        return None

    def _substitute(self, var: str, value: Poly):
        for key, poly in list(self.gaps.items()):
            out = Poly.const(0)
            for m, c in poly.coeffs:
                term = Poly.const(c)
                for v, e in m:
                    base = value if v == var else Poly.var(v)
                    for _ in range(e):
                        term = term * base
                out = out + term
            self.gaps[key] = out

    def seg_poly_or_none(self, seg: T.Segment) -> Poly | None:
        if seg.standalone:
            return self.standalone.get(seg.a)
        loc = self._locate(seg.a, seg.b)
        if loc is None:
            return None
        line, ia, ib = loc
        return self._span(line, ia, ib)

    def seg_length(self, seg: T.Segment) -> Poly:
        p = self.seg_poly_or_none(seg)
        if p is None:
            raise UnmappedTerm(f"segment {seg.text()} is not on a declared line")
        return p

    def term_length(self, term: T.Term) -> Poly:
        if isinstance(term, T.SquareOn):
            p = self.seg_length(term.side)
            return p * p
        if isinstance(term, T.RectBy):
            return self.seg_length(term.first) * self.seg_length(term.second)
        if isinstance(term, T.Multiple):
            return self.term_length(term.inner).scale(term.count)
        raise UnmappedTerm(f"term {T.term_text(term)} has no polynomial reading")


def translate(stmt: T.Eq, coord: Coordinatization) -> tuple[Poly, Poly]:
    def side(s: T.TermSum) -> Poly:
        total = Poly.const(0)
        for t in s.terms:
            total = total + coord.term_length(t)
        return total

    return side(stmt.lhs), side(stmt.rhs)


# ---------------------------------------------------------------------------
# numeric checking


def _draw_params(script: sc.Script, rng: random.Random) -> dict[str, Fraction]:
    out = {}
    for name, default in script.params.items():
        base = default if default is not None else Fraction(1, 2)
        k = rng.randrange(1 << 19, 3 << 19)
        out[name] = base * Fraction(k, 1 << 20)
    return out


def sample_instance(
    script: sc.Script, rng: random.Random, retries: int = 50
) -> tuple[dg.DiagramInstance, dict[str, Fraction]]:
    last = None
    for _ in range(retries):
        params = _draw_params(script, rng)
        try:
            return dg.realize(script, params), params
        except DiagramError as exc:
            last = exc
    raise RealizeFailed(f"no valid parameter draw after {retries} tries: {last}")


def _holds_numeric(inst: dg.DiagramInstance, stmt: T.Eq, tol: Fraction) -> bool:
    lhs = dg.sum_value(inst, stmt.lhs)
    rhs = dg.sum_value(inst, stmt.rhs)
    diff = cr.sub(lhs, rhs)
    scale = max(Fraction(1), abs(cr.midpoint(lhs, 128)))
    budget = tol * scale
    if diff.is_exact:
        if diff.rat is not None:
            return abs(diff.rat) <= budget
        return abs(cr.midpoint(diff, 256)) <= budget
    lo, hi = diff.interval(256)
    return max(abs(lo), abs(hi)) <= budget


def check_numeric_detailed(
    stmt: T.Eq,
    script: sc.Script,
    samples: int = 20,
    tol: float | Fraction = Fraction(1, 10**9),
    seed: int = 0,
) -> list[dict]:
    """One record per seeded sample; the statement holds numerically when
    every record is `ok`."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    tol = Fraction(tol).limit_denominator(10**15) if not isinstance(tol, Fraction) else tol
    rng = random.Random(seed)
    records = []
    for k in range(samples):
        inst, params = sample_instance(script, rng)
        ok = _holds_numeric(inst, stmt, tol)
        records.append(
            {
                "sample": k,
                "params": {n: T.rational_text(v) for n, v in params.items()},
                "lhs": float(cr.midpoint(dg.sum_value(inst, stmt.lhs), 128)),
                "rhs": float(cr.midpoint(dg.sum_value(inst, stmt.rhs), 128)),
                "ok": ok,
            }
        )
    return records
