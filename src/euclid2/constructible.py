"""Constructible reals: exact values, and expression DAGs for the rest.

A rational is two ints, `num` and `den` > 0 in lowest terms (zero is 0/1),
and `rational` is its one constructor: one `math.gcd`, none when den == 1.
`add`, `sub`, `mul` and `div` combine two rationals as integer products and
one `rational`, before any other path; `geometry` does the same for a whole
primitive.  `const` is where an `int` or `Fraction` enters, and `Expr.rat`
is a read-only `Fraction` view for readers outside the tower.  A single
square root of a rational folds to an exact quadratic form
(an + bn*sqrt(r))/d, four ints with d > 0, bn != 0, gcd(an, bn, d) = 1 and
r >= 2 an integer that is not a perfect square; arithmetic stays exact
inside that field as integer products and one three-way `math.gcd`, and
sign queries on such values are decided exactly.  `Expr.quad` is the
matching read-only `Fraction` view.  The radicand is not factored: trial
division stops at `_TRIAL_BOUND` and the cofactor left gets one
perfect-square test, so r may keep a square factor, and two radicands
r1 != r2 name one field when r1*r2 is a perfect square.  Exact values are
plain values: equality is decided by `exact_key` (for a + b*sqrt(r): a, the
sign of b and b*b*r), never by object identity.  Everything else (nested or
mixed radicals) is a radical node.  Radical nodes are shared through a weak
table, so equal constructions give one node while any caller holds it (a
sum or product whatever the order of its operands), and the table never
outlives its users.  Their signs fall back to interval refinement with
outward-rounded dyadic endpoints, doubling precision until the sign is
separated or the bit budget runs out.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction

from .errors import Undecidable

DEFAULT_MAX_BITS = 4096
_MIN_BITS = 64


def max_bits_budget() -> int:
    """The precision at which interval refinement gives up."""
    return DEFAULT_MAX_BITS


# Trial division stops below this bound, so `sqrt` of a rational costs a
# bounded number of small divisions and one `isqrt` whatever its size.
_TRIAL_BOUND = 2**10


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    return tuple(p for p in range(2, n) if sieve[p])


_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)


def _square_free(n: int) -> tuple[int, int]:
    """n = s*s*r with r = 1 or r not a perfect square; returns (s, r).  n > 0.

    Only primes below `_TRIAL_BOUND` are divided out; the cofactor left
    gets one perfect-square test.  So r is squarefree whenever that
    cofactor is below `_TRIAL_BOUND`**3 (every corpus radicand), and a
    large prime costs no more than a small one."""
    s = r = 1
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break  # n is 1 or a prime
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                r *= p
    t = math.isqrt(n)
    if t * t == n:
        return s * t, r
    return s, r * n


class Expr:
    """One value: an exact rational or quadratic form, or a radical node.
    Exact values are built fresh and compared by value.  Radical nodes are
    interned weakly on the `exact_key` of their arguments, so identical
    subtrees are one object and their difference folds to an exact zero at
    construction time."""

    __slots__ = ("kind", "args", "num", "den", "q", "_ivals", "__weakref__")

    _table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __init__(self, kind, args, num, den, q):
        self.kind = kind
        self.args = args
        self.num = num
        self.den = den  # > 0 with gcd(num, den) == 1 for a rational, else 0
        # (an, bn, d, r): value (an + bn*sqrt(r))/d, d > 0, bn != 0,
        # gcd(an, bn, d) == 1, r >= 2 not a perfect square; else None
        self.q = q
        self._ivals: dict[int, tuple[Fraction, Fraction]] | None = None  # made by interval()

    def __repr__(self):
        if self.den:
            return f"Expr({self.num}/{self.den})"
        if self.q is not None:
            an, bn, d, r = self.q
            return f"Expr(({an}+{bn}*sqrt({r}))/{d})"
        return f"Expr<{self.kind}>"

    # -- exact views -------------------------------------------------------

    @property
    def rat(self) -> Fraction | None:
        """The rational value as a `Fraction`, or None."""
        return Fraction(self.num, self.den) if self.den else None

    @property
    def quad(self) -> tuple[Fraction, Fraction, int] | None:
        """(a, b, r) with the value a + b*sqrt(r) as `Fraction`s, or None."""
        if self.q is None:
            return None
        an, bn, d, r = self.q
        return Fraction(an, d), Fraction(bn, d), r

    # -- intervals ---------------------------------------------------------

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        ivals = self._ivals
        if ivals is None:
            ivals = self._ivals = {}
        cached = ivals.get(bits)
        if cached is not None:
            return cached
        lo, hi = self._compute_interval(bits)
        ivals[bits] = (lo, hi)
        return lo, hi

    def _compute_interval(self, bits: int):
        scale = 1 << bits
        if self.den:
            n, d = self.num << bits, self.den
            return Fraction(n // d, scale), Fraction(-(-n // d), scale)
        if self.q is not None:
            an, bn, d, r = self.q
            # m < |bn|*sqrt(r)*scale < m + 1, as the root is irrational
            m = math.isqrt(bn * bn * r << 2 * bits)
            lo = (an << bits) + (m if bn > 0 else -m - 1)
            return Fraction(lo // d, scale), Fraction(-(-(lo + 1) // d), scale)
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
    keys = [exact_key(a) for a in args]
    if kind == "add" or kind == "mul":
        keys.sort()  # so that x+y and y+x are one node
    key = (kind, *keys)
    node = Expr._table.get(key)
    if node is None:
        node = Expr(kind, args, 0, 0, None)
        Expr._table[key] = node
    return node


def rational(n: int, d: int) -> Expr:
    """The rational n/d for ints n and d != 0, reduced by one gcd (none
    when d == 1) with d > 0: every rational `Expr` is built here."""
    if d != 1:
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
        n, d = n // g, d // g
    return Expr("rat", (), n, d, None)


def const(q) -> Expr:
    """The exact rational q: an `int`, or anything `Fraction` accepts."""
    if type(q) is int:
        return rational(q, 1)
    if type(q) is not Fraction:
        q = Fraction(q)
    return rational(q.numerator, q.denominator)


def _quad(an: int, bn: int, d: int, r: int) -> Expr:
    """(an + bn*sqrt(r))/d for d > 0 and r >= 2 not a perfect square,
    reduced by one gcd; a rational when bn == 0."""
    if bn == 0:
        return rational(an, d)
    g = math.gcd(an, bn, d)
    return Expr("quad", (), 0, 0, (an // g, bn // g, d // g, r))


ZERO = const(0)
ONE = const(1)


def _exact_combine(kind, x: Expr, y: Expr) -> Expr | None:
    """x op y inside one quadratic field, or None.  `add` ... `div` combine
    two rationals themselves, so at least one operand here has r >= 2;
    a rational operand reads as (num, 0, den, 0)."""
    ex = x.q or ((x.num, 0, x.den, 0) if x.den else None)
    ey = y.q or ((y.num, 0, y.den, 0) if y.den else None)
    if ex is None or ey is None:
        return None
    a1, b1, d1, r1 = ex
    a2, b2, d2, r2 = ey
    r = r1 or r2
    if r1 and r2 and r1 != r2:
        # one field when r1*r2 = t*t: then sqrt(R) = (t/r)*sqrt(r) for the
        # larger radicand R and the smaller r, which is kept so that the
        # result does not depend on operand order
        t = math.isqrt(r1 * r2)
        if t * t != r1 * r2:
            return None  # mixed radicands: no shared quadratic field
        if r1 < r2:
            a2, b2, d2 = a2 * r1, b2 * t, d2 * r1
        else:
            r = r2
            a1, b1, d1 = a1 * r2, b1 * t, d1 * r2
    if kind == "add" or kind == "sub":
        if kind == "sub":
            a2, b2 = -a2, -b2
        if d1 == d2:
            return _quad(a1 + a2, b1 + b2, d1, r)
        return _quad(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2, r)
    if kind == "mul":
        return _quad(a1 * a2 + b1 * b2 * r, a1 * b2 + a2 * b1, d1 * d2, r)
    if kind != "div":  # pragma: no cover
        raise AssertionError(kind)
    # times the conjugate over the norm, which is zero only when y is, as
    # sqrt(r) is irrational
    norm = a2 * a2 - b2 * b2 * r
    if norm == 0:
        raise ZeroDivisionError("division by exact zero")
    s = d2 if norm > 0 else -d2
    return _quad((a1 * a2 - b1 * b2 * r) * s, (b1 * a2 - a1 * b2) * s, d1 * abs(norm), r)


def _binop(kind, x: Expr, y: Expr) -> Expr:
    """x op y when not both are rational."""
    folded = _exact_combine(kind, x, y)
    if folded is not None:
        return folded
    if kind == "sub" and x is y:
        return ZERO
    if kind == "mul":
        if x is y and x.kind == "sqrt":
            return x.args[0]
        if x.den == 1 and x.num == 0 or y.den == 1 and y.num == 0:
            return ZERO
        if x.den == 1 and x.num == 1:
            return y
        if y.den == 1 and y.num == 1:
            return x
    if kind == "add":
        if x.den == 1 and x.num == 0:
            return y
        if y.den == 1 and y.num == 0:
            return x
    if kind == "sub" and y.den == 1 and y.num == 0:
        return x
    if kind == "div":
        if y.den:
            return mul(x, div(ONE, y))
        if x.den == 1 and x.num == 0:
            return ZERO
    return _intern(kind, (x, y))


def add(x: Expr, y: Expr) -> Expr:
    d1, d2 = x.den, y.den
    if d1 and d2:
        if d1 == d2:
            return rational(x.num + y.num, d1)
        return rational(x.num * d2 + y.num * d1, d1 * d2)
    return _binop("add", x, y)


def sub(x: Expr, y: Expr) -> Expr:
    d1, d2 = x.den, y.den
    if d1 and d2:
        if d1 == d2:
            return rational(x.num - y.num, d1)
        return rational(x.num * d2 - y.num * d1, d1 * d2)
    return _binop("sub", x, y)


def mul(x: Expr, y: Expr) -> Expr:
    if x.den and y.den:
        return rational(x.num * y.num, x.den * y.den)
    return _binop("mul", x, y)


def div(x: Expr, y: Expr) -> Expr:
    if x.den and y.den:
        if y.num == 0:
            raise ZeroDivisionError("division by exact zero")
        return rational(x.num * y.den, x.den * y.num)
    return _binop("div", x, y)


def sqrt(x: Expr) -> Expr:
    if x.den:
        if x.num < 0:
            raise ValueError("sqrt of negative exact value")
        if x.num == 0:
            return ZERO
        sn, rn = _square_free(x.num)
        sd, rd = _square_free(x.den)
        # sqrt(n/d) = (sn/(sd*rd)) * sqrt(rn*rd).  n and d are coprime, so
        # rn and rd are, and as each is 1 or not a perfect square, rn*rd is
        # a perfect square only when it is 1
        rad = rn * rd
        if rad == 1:
            return rational(sn, sd)
        return Expr("quad", (), 0, 0, (0, sn, sd * rd, rad))
    return _intern("sqrt", (x,))


def neg(x: Expr) -> Expr:
    return sub(ZERO, x)


def refine_sign(x: Expr) -> int:
    """-1, 0 or +1.  Exact for rationals and single-radical quadratic values;
    interval refinement otherwise; raises Undecidable at the bit budget."""
    if x.den:
        return (x.num > 0) - (x.num < 0)
    if x.q is not None:
        a, b, _, r = x.q
        # (a + b*sqrt(r))/d with d > 0, b != 0 and r not a perfect square is
        # never zero, and a*a never equals b*b*r below
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 * r
        if b > 0:  # a < 0
            return 1 if b * b * r > a * a else -1
        return 1 if a * a > b * b * r else -1
    bits = _MIN_BITS
    while bits <= DEFAULT_MAX_BITS:
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
    raise Undecidable(f"sign not separated within {DEFAULT_MAX_BITS} bits")


def midpoint(x: Expr, bits: int = 80) -> Fraction:
    if x.den:
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
    """Deterministic fixed-point rendering, rounded half up (SVG, reports)."""
    if x.den:
        n, d = x.num, x.den
    else:
        q = midpoint(x, bits=max(64, 4 * places))
        n, d = q.numerator, q.denominator
    scale = 10**places
    n = (2 * n * scale + d) // (2 * d)
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, scale)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).zfill(places).rstrip("0")


def exact_text(x: Expr) -> str:
    """A value as certificates print it: `n/d` for a rational, `a+b*sqrt(r)`
    with a and b in lowest terms for a quadratic value, else 30 places."""
    if x.den:
        return str(x.num) if x.den == 1 else f"{x.num}/{x.den}"
    if x.q is not None:
        return "{}+{}*sqrt({})".format(*x.quad)
    return decimal_text(x, 30)


def exact_key(x: Expr):
    """Hashable identity of a value: exact values by value, radical nodes
    (interned, so equal constructions are one node) by node identity.
    a + b*sqrt(r) is keyed by a, the sign of b and b*b*r in lowest terms,
    so equal values get one key whatever square factor r keeps."""
    if x.den:
        return ("r", x.num, x.den)
    if x.q is not None:
        an, bn, d, r = x.q
        ga, gb = math.gcd(an, d), math.gcd(bn, d)
        p, q = bn // gb, d // gb
        q2 = q * q
        g = math.gcd(r, q2)  # gcd(p, q) = 1, so only r and q*q share factors
        return ("q", an // ga, d // ga, p > 0, p * p * (r // g), q2 // g)
    return ("n", id(x))
