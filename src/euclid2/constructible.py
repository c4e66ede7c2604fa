"""Constructible reals: exact values, and expression DAGs for the rest.

Values built from rationals with +, -, *, / fold to exact rationals.  A
single square root of a rational folds to an exact quadratic form
a + b*sqrt(r) (r a squarefree integer), and arithmetic stays exact inside
that field; sign queries on such values are decided exactly.  Exact values
are plain values: equality is decided by `exact_key`, never by object
identity.  Everything else (nested or mixed radicals) is a radical node.
Radical nodes are shared through a weak table, so equal constructions give
one node while any caller holds it, and the table never outlives its users.
Their signs fall back to interval refinement with outward-rounded dyadic
endpoints, doubling precision until the sign is separated or the bit
budget runs out.
"""

from __future__ import annotations

import math
import os
import weakref
from fractions import Fraction

from .errors import Undecidable

DEFAULT_MAX_BITS = 4096
_MIN_BITS = 64


def max_bits_budget() -> int:
    env = os.environ.get("EUCLID2_MAX_BITS")
    if env:
        try:
            return max(_MIN_BITS, int(env))
        except ValueError:
            pass
    return DEFAULT_MAX_BITS


def _square_free(n: int) -> tuple[int, int]:
    """n = s*s*r with r squarefree; returns (s, r).  n > 0."""
    s, r, d = 1, 1, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return s, r * n


class Expr:
    """One value: an exact rational or quadratic form, or a radical node.
    Exact values are built fresh and compared by value.  Radical nodes are
    interned weakly on the `exact_key` of their arguments, so identical
    subtrees are one object and their difference folds to an exact zero at
    construction time."""

    __slots__ = ("kind", "args", "rat", "quad", "_ivals", "__weakref__")

    _table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __init__(self, kind, args, rat, quad):
        self.kind = kind
        self.args = args
        self.rat = rat
        self.quad = quad  # (a, b, r): value a + b*sqrt(r), r squarefree >= 2, b != 0
        self._ivals: dict[int, tuple[Fraction, Fraction]] = {}

    def __repr__(self):
        if self.rat is not None:
            return f"Expr({self.rat})"
        if self.quad is not None:
            a, b, r = self.quad
            return f"Expr({a}+{b}*sqrt({r}))"
        return f"Expr<{self.kind}>"

    # -- exact views -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.rat is not None

    @property
    def is_exact(self) -> bool:
        return self.rat is not None or self.quad is not None

    def as_fraction(self) -> Fraction:
        if self.rat is None:
            raise ValueError("not an exact rational")
        return self.rat

    def exact_pair(self):
        """(a, b, r) view of an exact value; rationals get (q, 0, 0)."""
        if self.rat is not None:
            return (self.rat, Fraction(0), 0)
        return self.quad

    # -- intervals ---------------------------------------------------------

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        cached = self._ivals.get(bits)
        if cached is not None:
            return cached
        lo, hi = self._compute_interval(bits)
        self._ivals[bits] = (lo, hi)
        return lo, hi

    def _compute_interval(self, bits: int):
        scale = 1 << bits
        if self.rat is not None:
            q = self.rat
            lo = Fraction(math.floor(q * scale), scale)
            hi = Fraction(math.ceil(q * scale), scale)
            return lo, hi
        if self.quad is not None:
            a, b, r = self.quad
            slo, shi = _sqrt_interval(Fraction(r), bits + 8)
            c1, c2 = a + b * slo, a + b * shi
            lo, hi = min(c1, c2), max(c1, c2)
            return (
                Fraction(math.floor(lo * scale), scale),
                Fraction(math.ceil(hi * scale), scale),
            )
        k = self.kind
        if k == "sqrt":
            alo, ahi = self.args[0].interval(bits + 8)
            if ahi < 0:
                raise _IntervalIndeterminate()
            return _sqrt_interval(max(alo, Fraction(0)), bits)[0], _sqrt_interval(ahi, bits)[1]
        xlo, xhi = self.args[0].interval(bits + 8)
        ylo, yhi = self.args[1].interval(bits + 8)
        if k == "add":
            lo, hi = xlo + ylo, xhi + yhi
        elif k == "sub":
            lo, hi = xlo - yhi, xhi - ylo
        elif k == "mul":
            prods = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
            lo, hi = min(prods), max(prods)
        elif k == "div":
            if ylo <= 0 <= yhi:
                raise _IntervalIndeterminate()
            quots = (xlo / ylo, xlo / yhi, xhi / ylo, xhi / yhi)
            lo, hi = min(quots), max(quots)
        else:  # pragma: no cover
            raise AssertionError(k)
        scale = 1 << bits
        return (
            Fraction(math.floor(lo * scale), scale),
            Fraction(math.ceil(hi * scale), scale),
        )


class _IntervalIndeterminate(Exception):
    pass


def _sqrt_interval(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of sqrt(q) for q >= 0 with dyadic endpoints at 2^-bits."""
    if q == 0:
        return Fraction(0), Fraction(0)
    scale = 1 << bits
    lo_int = math.isqrt((q.numerator * scale * scale) // q.denominator)
    hi_int = math.isqrt(-(-(q.numerator * scale * scale) // q.denominator)) + 1
    return Fraction(lo_int, scale), Fraction(hi_int, scale)


def _intern(kind, args) -> Expr:
    key = (kind,) + tuple(exact_key(a) for a in args)
    node = Expr._table.get(key)
    if node is None:
        node = Expr(kind, args, None, None)
        Expr._table[key] = node
    return node


def const(q) -> Expr:
    return Expr("rat", (), Fraction(q), None)


def _mk_quad(a: Fraction, b: Fraction, r: int) -> Expr:
    if b == 0:
        return const(a)
    if r == 1:
        return const(a + b)
    if r == 0:
        return const(a)
    return Expr("quad", (), None, (a, b, r))


ZERO = const(0)
ONE = const(1)


def _exact_combine(kind, x: Expr, y: Expr) -> Expr | None:
    ex, ey = x.exact_pair() if x.is_exact else None, y.exact_pair() if y.is_exact else None
    if ex is None or ey is None:
        return None
    a1, b1, r1 = ex
    a2, b2, r2 = ey
    if r1 and r2 and r1 != r2:
        return None  # mixed radicands: no shared quadratic field
    r = r1 or r2
    if kind == "add":
        a, b = a1 + a2, b1 + b2
    elif kind == "sub":
        a, b = a1 - a2, b1 - b2
    elif kind == "mul":
        a, b = a1 * a2 + b1 * b2 * r, a1 * b2 + a2 * b1
    elif kind == "div":
        den = a2 * a2 - b2 * b2 * r
        if den == 0:
            if a2 == 0 and b2 == 0:
                raise ZeroDivisionError("division by exact zero")
            return None  # cannot happen for squarefree r, but stay safe
        a = (a1 * a2 - b1 * b2 * r) / den
        b = (b1 * a2 - a1 * b2) / den
    else:  # pragma: no cover
        raise AssertionError(kind)
    if b == 0:
        return const(a)
    return _mk_quad(a, b, r)


def _binop(kind, x: Expr, y: Expr) -> Expr:
    folded = _exact_combine(kind, x, y)
    if folded is not None:
        return folded
    if kind == "sub" and x is y:
        return ZERO
    if kind == "mul":
        if x is y and x.kind == "sqrt":
            return x.args[0]
        if x.rat is not None and x.rat == 0 or y.rat is not None and y.rat == 0:
            return ZERO
        if x.rat is not None and x.rat == 1:
            return y
        if y.rat is not None and y.rat == 1:
            return x
    if kind == "add":
        if x.rat is not None and x.rat == 0:
            return y
        if y.rat is not None and y.rat == 0:
            return x
    if kind == "sub" and y.rat is not None and y.rat == 0:
        return x
    if kind == "div":
        if y.rat is not None:
            if y.rat == 0:
                raise ZeroDivisionError("division by exact zero")
            return _binop("mul", x, const(1 / y.rat))
        if x.rat is not None and x.rat == 0:
            return ZERO
    return _intern(kind, (x, y))


def add(x: Expr, y: Expr) -> Expr:
    return _binop("add", x, y)


def sub(x: Expr, y: Expr) -> Expr:
    return _binop("sub", x, y)


def mul(x: Expr, y: Expr) -> Expr:
    return _binop("mul", x, y)


def div(x: Expr, y: Expr) -> Expr:
    return _binop("div", x, y)


def sqrt(x: Expr) -> Expr:
    if x.rat is not None:
        q = x.rat
        if q < 0:
            raise ValueError("sqrt of negative exact value")
        if q == 0:
            return ZERO
        sn, rn = _square_free(q.numerator)
        sd, rd = _square_free(q.denominator)
        # sqrt(n/d) = (sn/(sd*rd)) * sqrt(rn*rd)
        coeff = Fraction(sn, sd * rd)
        rad = rn * rd
        s2, rad = _square_free(rad)
        coeff *= s2
        if rad == 1:
            return const(coeff)
        return _mk_quad(Fraction(0), coeff, rad)
    return _intern("sqrt", (x,))


def neg(x: Expr) -> Expr:
    return sub(ZERO, x)


def refine_sign(x: Expr, max_bits: int | None = None) -> int:
    """-1, 0 or +1.  Exact for rationals and single-radical quadratic values;
    interval refinement otherwise; raises Undecidable at the bit budget."""
    if x.rat is not None:
        return (x.rat > 0) - (x.rat < 0)
    if x.quad is not None:
        a, b, r = x.quad
        # a + b*sqrt(r) with b != 0 and r squarefree is never zero
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 * r
        if b > 0:  # a < 0
            return 1 if b * b * r > a * a else -1
        return 1 if a * a > b * b * r else -1
    limit = max_bits if max_bits is not None else max_bits_budget()
    if limit < _MIN_BITS:
        raise ValueError("max_bits must be >= 64")
    bits = _MIN_BITS
    while bits <= limit:
        try:
            lo, hi = x.interval(bits)
        except _IntervalIndeterminate:
            bits *= 2
            continue
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    raise Undecidable(f"sign not separated within {limit} bits")


def refine_to_width(x: Expr, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink the enclosing interval until hi - lo <= width."""
    bits = _MIN_BITS
    while True:
        try:
            lo, hi = x.interval(bits)
            if hi - lo <= width:
                return lo, hi
        except _IntervalIndeterminate:
            pass
        bits *= 2
        if bits > 1 << 22:
            raise Undecidable("interval refinement exhausted")


def midpoint(x: Expr, bits: int = 80) -> Fraction:
    if x.rat is not None:
        return x.rat
    while True:
        try:
            lo, hi = x.interval(bits)
            return (lo + hi) / 2
        except _IntervalIndeterminate:
            bits *= 2
            if bits > 1 << 20:
                raise Undecidable("midpoint refinement exhausted")


def decimal_text(x: Expr, places: int = 4) -> str:
    """Deterministic fixed-point rendering (used by SVG and reports)."""
    m = midpoint(x, bits=max(64, 4 * places)) * 10**places
    n = math.floor(m + Fraction(1, 2))
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 10**places)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).zfill(places).rstrip("0")


def exact_key(x: Expr):
    """Hashable identity of a value: exact values by value, radical nodes
    (interned, so equal constructions are one node) by node identity."""
    if x.rat is not None:
        return ("r", x.rat)
    if x.quad is not None:
        return ("q", x.quad)
    return ("n", id(x))
