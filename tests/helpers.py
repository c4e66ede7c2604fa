"""Test-only helpers over the checker's exact machinery: an interval of a
chosen width, a coverage check of named figures, and equality of content."""

from fractions import Fraction

from euclid2 import constructible as cr
from euclid2 import diagram as dg
from euclid2 import geometry as geo
from euclid2.errors import Undecidable


def refine_to_width(x: cr.Expr, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink the enclosing interval until hi - lo <= width."""
    bits = cr._MIN_BITS
    while True:
        try:
            lo, hi = x.interval(bits)
            if hi - lo <= width:
                return lo, hi
        except cr._IntervalIndeterminate:
            pass
        bits *= 2
        if bits > 1 << 22:
            raise Undecidable("interval refinement exhausted")


def verify_decomposition(
    inst: dg.DiagramInstance,
    lhs: list[tuple[str, int]],
    rhs: list[tuple[str, int]],
) -> geo.CoverageResult:
    left = [(dg.figure_region(inst, name), m) for name, m in lhs]
    right = [(dg.figure_region(inst, name), m) for name, m in rhs]
    return geo.coverage_equal(left, right)


def equal_content(inst: dg.DiagramInstance, p: list[str], q: list[str]) -> bool:
    total_p = cr.ZERO
    for name in p:
        total_p = cr.add(total_p, geo.area(dg.figure_region(inst, name)))
    total_q = cr.ZERO
    for name in q:
        total_q = cr.add(total_q, geo.area(dg.figure_region(inst, name)))
    return geo.cmp(total_p, total_q) == 0
