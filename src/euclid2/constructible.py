"""Constructible reals, each decided exactly.

A rational is two ints, `num` and `den` > 0 in lowest terms (zero is 0/1),
and `rational` is its one constructor: one `math.gcd`, none when den == 1,
and no `Expr.__init__` frame, as it allocates the value and sets its slots.
`add`, `sub`, `mul`, `div` and `neg` combine rationals as integer products
and one `rational`, before any other path; `geometry` does the same for a
whole primitive or constructed point, on rationals and, through `qadd`,
`qsub`, `qmul`, `qdiv`, `_quad` and `qsign`, on the values of one
quadratic field.  `const` is where an `int` or a parsed literal enters,
read through its `numerator` and `denominator`.  A single square root of
a rational folds to an exact quadratic form (an + bn*sqrt(r))/d, four ints
with d > 0, bn != 0, gcd(an, bn, d) = 1 and r >= 2 an integer that is not
a perfect square; arithmetic stays exact inside that field as integer
products and one three-way `math.gcd`.  The radicand is not factored:
trial division stops at `_TRIAL_BOUND` and the cofactor left gets one
perfect-square test, so r may keep a square factor, and two radicands
r1 != r2 name one field when r1*r2 is a perfect square.

Every other value is a tower element a + b*sqrt(r) over a tower of real
quadratic extensions, where every ruler-and-compass value lies (Wantzel,
1837).  The radicals of a, b and r all lie below sqrt(r) in one order,
(height, `exact_key(r)`), the height being 1 plus the height of r's top
radical; the quadratic form is the height-1 case.  Two operands combine
over the greater of their top radicals, and a sign is decided exactly by
recursion on a, b and a*a - b*b*r, so every comparison is exact (Yap,
*Towards exact geometric computation*, 1997).  Only display approximates,
from the integer bounds of `bounds`.  `Expr.rat`, `Expr.quad` and
`Expr.interval` are read-only `Fraction` views for readers outside the
package; no command reads them.  `exact_key` keys a value by its
structure: equal keys mean equal values, and exact values (a + b*sqrt(r)
keyed by a, the sign of b and b*b*r) get one key per value, but two routes
to one tower value may get two keys.  So keys order tower radicals and
memoize SVG text, but decide no identity.  `exact_text` spells every value
exactly, a tower element by its parts.
"""

from __future__ import annotations

import math

# `perfbench`'s probe prints this budget; no sign is decided by refining
# intervals, so nothing reaches it.
DEFAULT_MAX_BITS = 4096


def max_bits_budget() -> int:
    """An interval precision budget that no comparison reaches."""
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
    """One value: a rational (`den` > 0), a quadratic form (`q`), or a
    tower element whose `args` are (a, b, r) for a + b*sqrt(r)."""

    __slots__ = ("args", "num", "den", "q")

    _table: dict = {}  # nothing fills it; `perfbench` reads its length

    def __init__(self, args, q):
        """A quadratic form or a tower element; `rational` builds the rest."""
        self.args = args
        # num/den is the value of a rational, in lowest terms with den > 0;
        # den is 0 for every other value
        self.num = self.den = 0
        # (an, bn, d, r): value (an + bn*sqrt(r))/d, d > 0, bn != 0,
        # gcd(an, bn, d) == 1, r >= 2 not a perfect square; else None
        self.q = q

    def __repr__(self):
        if self.den:
            return f"Expr({self.num}/{self.den})"
        if self.q is not None:
            an, bn, d, r = self.q
            return f"Expr(({an}+{bn}*sqrt({r}))/{d})"
        return "Expr<tower>"

    # -- read-only `Fraction` views, for readers outside the package --------

    @property
    def rat(self) -> Fraction | None:
        """The rational value as a `Fraction`, or None."""
        from fractions import Fraction

        return Fraction(self.num, self.den) if self.den else None

    @property
    def quad(self) -> tuple[Fraction, Fraction, int] | None:
        """(a, b, r) with the value a + b*sqrt(r) as `Fraction`s, or None."""
        from fractions import Fraction

        if self.q is None:
            return None
        an, bn, d, r = self.q
        return Fraction(an, d), Fraction(bn, d), r

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        """`bounds(self, bits)` as an enclosure with `Fraction` endpoints."""
        from fractions import Fraction

        lo, hi = bounds(self, bits)
        return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def bounds(x: Expr, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= x*2^bits <= hi, for display."""
    if x.den:
        n, d = x.num << bits, x.den
        return n // d, -(-n // d)
    if x.q is not None:
        an, bn, d, r = x.q
        # m < |bn|*sqrt(r)*2^bits < m + 1, as the root is irrational
        m = math.isqrt(bn * bn * r << 2 * bits)
        lo = (an << bits) + (m if bn > 0 else -m - 1)
        return lo // d, -(-(lo + 1) // d)
    k = bits + 8
    (alo, ahi), (blo, bhi), (rlo, rhi) = (bounds(v, k) for v in x.args)
    # sqrt(r) lies in [slo, shi]/2^k, so b*sqrt(r) in [min, max] of prods/2^2k
    slo, shi = math.isqrt(max(rlo, 0) << k), math.isqrt(rhi << k) + 1
    prods = (blo * slo, blo * shi, bhi * slo, bhi * shi)
    shift = 2 * k - bits
    return ((alo << k) + min(prods)) >> shift, -(-((ahi << k) + max(prods)) >> shift)


_new = object.__new__


def rational(n: int, d: int) -> Expr:
    """The rational n/d for ints n and d != 0, reduced by one gcd (none
    when d == 1) with d > 0: every rational `Expr` is built here, its four
    slots set without an `Expr.__init__` call."""
    if d != 1:
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
        n, d = n // g, d // g
    e = _new(Expr)
    e.args = ()
    e.num = n
    e.den = d
    e.q = None
    return e


def const(q) -> Expr:
    """The exact rational q: an `int`, or anything with `numerator` and
    `denominator`, such as a `script.LenLit`."""
    return rational(q.numerator, q.denominator)


def _quad(an: int, bn: int, d: int, r: int) -> Expr:
    """(an + bn*sqrt(r))/d for d > 0 and r >= 2 not a perfect square,
    reduced by one gcd; a rational when bn == 0."""
    if bn == 0:
        return rational(an, d)
    g = math.gcd(an, bn, d)
    return Expr((), (an // g, bn // g, d // g, r))


# -- one field's arithmetic on unreduced int triples: `_quad` reduces a
# result once.

Triple = tuple[int, int, int]  # (a, b, d): the value (a + b*sqrt(r))/d, d > 0


def qadd(x: Triple, y: Triple) -> Triple:
    return x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2], x[2] * y[2]


def qsub(x: Triple, y: Triple) -> Triple:
    return x[0] * y[2] - y[0] * x[2], x[1] * y[2] - y[1] * x[2], x[2] * y[2]


def qmul(x: Triple, y: Triple, r: int) -> Triple:
    return x[0] * y[0] + x[1] * y[1] * r, x[0] * y[1] + x[1] * y[0], x[2] * y[2]


def qdiv(x: Triple, y: Triple, r: int) -> Triple:
    """x / y for y != 0: x times y's conjugate over its norm, which is
    nonzero as sqrt(r) is irrational."""
    a, b, d = y
    n = (a * a - b * b * r) * x[2]
    s = d if n > 0 else -d
    return (x[0] * a - x[1] * b * r) * s, (x[1] * a - x[0] * b) * s, abs(n)


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
    x, y = (a1, b1, d1), (a2, b2, d2)
    if kind == "add":
        return _quad(*qadd(x, y), r)
    if kind == "sub":
        return _quad(*qsub(x, y), r)
    if kind == "mul":
        return _quad(*qmul(x, y, r), r)
    if kind != "div":  # pragma: no cover
        raise AssertionError(kind)
    if a2 * a2 == b2 * b2 * r:  # y's norm, zero only when y is
        raise ZeroDivisionError("division by exact zero")
    return _quad(*qdiv(x, y, r), r)


def _top(x: Expr):
    """((height, exact_key(r)), r) for x's top radical sqrt(r), or None for
    a rational."""
    if x.den:
        return None
    if x.q is not None:
        return (1, ("r", x.q[3], 1)), rational(x.q[3], 1)
    r = x.args[2]
    top = _top(r)
    return (1 + (top[0][0] if top else 0), exact_key(r)), r


def _parts(x: Expr, order) -> tuple[Expr, Expr]:
    """(a, b) with x = a + b*sqrt(r), for the radical sqrt(r) of the given
    order, which is x's top radical or lies above it."""
    top = _top(x)
    if top is None or top[0] != order:
        return x, ZERO
    if x.q is not None:
        an, bn, d, _ = x.q
        return rational(an, d), rational(bn, d)
    return x.args[0], x.args[1]


def _ext(a: Expr, b: Expr, r: Expr) -> Expr:
    """a + b*sqrt(r) for a, b and r below sqrt(r); a quadratic form when
    all three are rational."""
    if b.den and b.num == 0:
        return a
    if a.den and b.den and r.den:
        return add(a, mul(b, sqrt(r)))
    return Expr((a, b, r), None)


def _binop(kind, x: Expr, y: Expr) -> Expr:
    """x op y when not both are rational: in one quadratic field, else over
    the greater of the two top radicals sqrt(r)."""
    folded = _exact_combine(kind, x, y)
    if folded is not None:
        return folded
    order, r = max((t for t in (_top(x), _top(y)) if t), key=lambda t: t[0])
    a1, b1 = _parts(x, order)
    a2, b2 = _parts(y, order)
    if kind == "add":
        return _ext(add(a1, a2), add(b1, b2), r)
    if kind == "sub":
        return _ext(sub(a1, a2), sub(b1, b2), r)
    if kind == "mul":
        return _ext(add(mul(a1, a2), mul(mul(b1, b2), r)), add(mul(a1, b2), mul(a2, b1)), r)
    norm = sub(mul(a2, a2), mul(mul(b2, b2), r))
    if refine_sign(norm) == 0:
        # sqrt(r) = |a2/b2| lies below: y is 2*a2 when a2 and b2 agree in
        # sign, and 0 otherwise
        s = refine_sign(a2)
        if s == 0 or s != refine_sign(b2):
            raise ZeroDivisionError("division by exact zero")
        return div(x, add(a2, a2))
    # times the conjugate over the norm
    return _ext(
        div(sub(mul(a1, a2), mul(mul(b1, b2), r)), norm),
        div(sub(mul(b1, a2), mul(a1, b2)), norm),
        r,
    )


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
        return Expr((), (0, sn, sd * rd, rad))
    s = refine_sign(x)
    if s < 0:
        raise ValueError("sqrt of negative exact value")
    return _ext(ZERO, ONE, x) if s else ZERO


def neg(x: Expr) -> Expr:
    if x.den:
        return rational(-x.num, x.den)
    return sub(ZERO, x)


def qsign(a: int, b: int, r: int) -> int:
    """The sign of a + b*sqrt(r) for ints a and b, r being 0 or a radicand
    (>= 2, not a perfect square)."""
    if not (b and r):
        return (a > 0) - (a < 0)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    # opposite signs: a*a never equals b*b*r, as sqrt(r) is irrational
    if b > 0:  # a < 0
        return 1 if b * b * r > a * a else -1
    return 1 if a * a > b * b * r else -1


def refine_sign(x: Expr) -> int:
    """-1, 0 or +1, decided exactly: from the ints of a rational or a
    quadratic form, and for a + b*sqrt(r) by recursion below sqrt(r)."""
    if x.den:
        return (x.num > 0) - (x.num < 0)
    if x.q is not None:
        a, b, _, r = x.q
        return qsign(a, b, r)
    a, b, r = x.args
    sa, sb = refine_sign(a), refine_sign(b)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: a + b*sqrt(r) has the sign of a when a*a > b*b*r
    return sa * refine_sign(sub(mul(a, a), mul(mul(b, b), r)))


def decimal_text(x: Expr, places: int = 4) -> str:
    """Deterministic fixed-point rendering, rounded half up (SVG, reports)."""
    if x.den:
        n, d = x.num, x.den
    else:
        bits = max(64, 4 * places)
        lo, hi = bounds(x, bits)
        n, d = lo + hi, 1 << (bits + 1)
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
    with a and b in lowest terms for a quadratic value, and a tower element
    a + b*sqrt(r) as `(a)+(b)*sqrt(r)` of its parts' texts."""
    if x.den:
        return str(x.num) if x.den == 1 else f"{x.num}/{x.den}"
    if x.q is not None:
        an, bn, d, r = x.q
        return f"{exact_text(rational(an, d))}+{exact_text(rational(bn, d))}*sqrt({r})"
    return "({})+({})*sqrt({})".format(*map(exact_text, x.args))


def exact_key(x: Expr):
    """Hashable key of a value: equal keys mean equal values.  A quadratic
    form is keyed by a, the sign of b and b*b*r in lowest terms, so equal
    values get one key whatever square factor r keeps; a tower element by
    the keys of its a, b and r."""
    if x.den:
        return ("r", x.num, x.den)
    if x.q is not None:
        an, bn, d, r = x.q
        ga, gb = math.gcd(an, d), math.gcd(bn, d)
        p, q = bn // gb, d // gb
        q2 = q * q
        g = math.gcd(r, q2)  # gcd(p, q) = 1, so only r and q*q share factors
        return ("q", an // ga, d // ga, p > 0, p * p * (r // g), q2 // g)
    a, b, r = x.args
    return ("x", exact_key(a), exact_key(b), exact_key(r))
