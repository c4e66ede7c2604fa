import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid2 import terms as T
from euclid2.errors import DegenerateSegment, ParseError
from euclid2.record import Record
from helpers import reference_stmt_key


def seg(s):
    return T.segment_named(s)


def test_mk_segment_unordered():
    assert T.mk_segment("B", "G") == T.mk_segment("G", "B")
    assert T.mk_segment("A", "B") == T.Segment("A", "B")


def test_mk_segment_degenerate():
    with pytest.raises(DegenerateSegment):
        T.mk_segment("A", "A")


def test_right_angle_arm_at_vertex_degenerate():
    # an arm of zero length makes no angle, so no fact may state one
    with pytest.raises(ValueError, match="^right angle arm BB is degenerate$"):
        T.RightAngle("B", "A", "B")
    assert T.RightAngle("B", "A", "A").text() == "rangle(B;A,A)"


def test_normalize_permutation_invariance():
    a = T.term_sum([T.SquareOn(seg("CB")), T.RectBy(seg("AC"), seg("CB"))])
    b = T.term_sum([T.RectBy(seg("AC"), seg("CB")), T.SquareOn(seg("CB"))])
    assert a == b
    assert T.term_sum(reversed(a.terms)) == a


def test_term_sum_is_sorted_when_built():
    terms = (T.SquareOn(seg("CD")), T.Fig(T.FigureName("AB")), T.RectBy(seg("BC"), seg("AB")))
    built = T.TermSum(terms)
    assert built == T.term_sum(terms)
    assert built.text() == T.term_sum(terms).text() == "fig(AB) + rect(BC,AB) + sq(CD)"


def test_normalize_keeps_rect_operand_order():
    s = T.term_sum([T.RectBy(seg("GB"), seg("BD"))])
    rect = s.terms[0]
    # GB canonicalizes to the unordered pair {B,G} but stays first operand
    assert rect.first == T.mk_segment("B", "G")
    assert rect.second == T.mk_segment("B", "D")


def test_duplicate_squares_multiset():
    a = T.term_sum([T.SquareOn(seg("HE")), T.SquareOn(seg("GE"))])
    b = T.term_sum([T.SquareOn(seg("GE")), T.SquareOn(seg("HE"))])
    assert a == b


def test_empty_sum_rejected():
    with pytest.raises(ValueError):
        T.term_sum([])


def test_stmt_equal_eq_symmetric():
    a = T.parse_statement("rect(BA,AC) = fig(AF)")
    b = T.parse_statement("fig(AF) = rect(BA,AC)")
    assert T.stmt_equal(a, b)


def test_stmt_equal_pi_operand_order_significant():
    a = T.parse_statement("BK pi GB x BD")
    b = T.parse_statement("BK pi BD x GB")
    assert not T.stmt_equal(a, b)


def test_stmt_equal_segment_endpoint_order_immaterial():
    a = T.parse_statement("BK pi GB x BD")
    b = T.parse_statement("BK pi BG x BD")
    assert T.stmt_equal(a, b)


def test_multiple_invariants():
    with pytest.raises(ValueError):
        T.Multiple(1, T.SquareOn(seg("AB")))
    with pytest.raises(ValueError):
        T.Multiple(2, T.Multiple(2, T.SquareOn(seg("AB"))))


def test_statement_roundtrip_text():
    texts = [
        "sq(AB) = sq(AC) + sq(CB) + 2*rect(AC,CB)",
        "BH pi A x BC",
        "ADEB on AB",
        "AB == CD",
        "rangle(B;A,C)",
        "fig(NOP) + sq(BC) = fig(CEFD)",
    ]
    for t in texts:
        stmt = T.parse_statement(t)
        again = T.parse_statement(stmt.text())
        assert T.stmt_equal(stmt, again)


def test_parse_statement_errors():
    with pytest.raises(ParseError):
        T.parse_statement("sq(AB) +")
    with pytest.raises(ParseError):
        T.parse_statement("rect(AB) = sq(AB)")


# ---------------------------------------------------------------------------
# property tests

LETTERS = "ABCDEFGHKLM"


@st.composite
def segments(draw):
    if draw(st.booleans()):
        a = draw(st.sampled_from(LETTERS))
        b = draw(st.sampled_from([c for c in LETTERS if c != a]))
        return T.Segment(a, b, display=a + b)
    return T.segment_named(draw(st.sampled_from(LETTERS)))


FIGURES = st.text(LETTERS, min_size=1, max_size=4)


@st.composite
def terms(draw, depth=0, figures=FIGURES):
    kind = draw(st.integers(0, 3 if depth == 0 else 2))
    if kind == 0:
        return T.SquareOn(draw(segments()))
    if kind == 1:
        return T.RectBy(draw(segments()), draw(segments()))
    if kind == 2:
        return T.Fig(T.FigureName(draw(figures)))
    return T.Multiple(draw(st.integers(2, 4)), draw(terms(depth=1, figures=figures)))


@st.composite
def sums(draw, figures=FIGURES):
    return T.term_sum(draw(st.lists(terms(figures=figures), min_size=1, max_size=4)))


@st.composite
def statements(draw, figures=FIGURES):
    """Every statement form, over segments of either spelling order and
    figure names drawn from `figures`."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return T.Eq(draw(sums(figures)), draw(sums(figures)))
    if kind == 1:
        return T.Pi(T.FigureName(draw(figures)), draw(segments()), draw(segments()))
    if kind == 2:
        return T.IsSq(T.FigureName(draw(figures)), draw(segments()))
    if kind == 3:
        return T.SegEq(draw(segments()), draw(segments()))
    a = draw(st.sampled_from(LETTERS))
    return T.RightAngle(
        a,
        draw(st.sampled_from([c for c in LETTERS if c != a])),
        draw(st.sampled_from([c for c in LETTERS if c != a])),
    )


@given(statements())
@settings(max_examples=300)
def test_statement_text_parses_back(s):
    # the printed text keeps each segment's spelling, so it reads back to an
    # equal statement that prints byte-identically
    again = T.parse_statement(s.text())
    assert again == s
    assert again.text() == s.text()


@pytest.mark.parametrize(
    "text, col, expected",
    [
        ("sq(AB) + 1*rect(AB,CD) = sq(AB)", 10, "Multiple count must be >= 2"),
        ("sq(AB) = sq(AB) + sqq(CD)", 19, "term, got 'sqq'"),
        ("fig(ABCDE) = sq(AB)", 5, "figure name, got 'ABCDE'"),
        ("X pi AB x C7", 11, "segment name, got 'C7'"),
        ("rangle(B;A,CD)", 12, "point, got 'CD'"),
        ("rangle(A;A,B)", 1, "right angle arm AA is degenerate"),
        ("rangle(A;B,A)", 1, "right angle arm AA is degenerate"),
        ("AB == CD + EF", 10, "end of line, got '+'"),
        ("sq(AB) =", 9, "term, got end of line"),
        ("2*3*sq(AB) = sq(AB)", 3, "term other than a multiple, got '3'"),
    ],
)
def test_parse_statement_error_column(text, col, expected):
    with pytest.raises(ParseError) as exc:
        T.parse_statement(text)
    assert (exc.value.col, exc.value.expected) == (col, expected)


def test_a_chain_of_multiples_is_one_parse_error():
    # a multiple holds no multiple, so the parser does not recurse down the
    # chain (the recursion limit) nor retry each level on failure
    with pytest.raises(ParseError) as exc:
        T.parse_statement("2*" * 3000 + "sq(AB) = sq(AB)")
    assert exc.value.col == 3


@pytest.mark.parametrize(
    "spaced, canonical",
    [
        ("rect( GB , BD )+2 * sq(AB)=fig(ADEB)", "2*sq(AB) + rect(GB,BD) = fig(ADEB)"),
        ("BKpiGBxBD", "BK pi GB x BD"),
        ("rangle( B ; A , C )", "rangle(B;A,C)"),
    ],
)
def test_whitespace_between_tokens_is_free(spaced, canonical):
    assert T.parse_statement(spaced).text() == canonical


@given(sums())
@settings(max_examples=200)
def test_normalize_idempotent_and_cardinality(s):
    n = T.term_sum(reversed(s.terms))
    assert n == s and T.term_sum(n.terms) == n
    assert len(n.terms) == len(s.terms)


def _rect_orders(s):
    out = []

    def walk(t):
        if isinstance(t, T.RectBy):
            out.append((t.first, t.second))
        elif isinstance(t, T.Multiple):
            walk(t.inner)

    for t in s.terms:
        walk(t)
    return sorted(out, key=repr)


@given(sums())
@settings(max_examples=200)
def test_normalize_never_swaps_rect_operands(s):
    assert _rect_orders(T.term_sum(reversed(s.terms))) == _rect_orders(s)


@given(statements())
@settings(max_examples=300)
def test_stmt_equal_reflexive(a):
    assert T.stmt_equal(a, a)


@given(statements(), statements())
@settings(max_examples=300)
def test_stmt_equal_symmetric_relation(a, b):
    assert T.stmt_equal(a, b) == T.stmt_equal(b, a)


@given(statements(), statements(), statements())
@settings(max_examples=300)
def test_stmt_equal_transitive(a, b, c):
    if T.stmt_equal(a, b) and T.stmt_equal(b, c):
        assert T.stmt_equal(a, c)


@given(st.data())
@settings(max_examples=200)
def test_stmt_equal_on_shuffled_variants(data):
    stmt = data.draw(statements())
    if isinstance(stmt, T.Eq):
        flipped = T.Eq(stmt.rhs, stmt.lhs)
        assert T.stmt_equal(stmt, flipped)
    if isinstance(stmt, T.SegEq):
        assert T.stmt_equal(stmt, T.SegEq(stmt.b, stmt.a))
    if isinstance(stmt, T.RightAngle):
        assert T.stmt_equal(stmt, T.RightAngle(stmt.vertex, stmt.arm2, stmt.arm1))


def _respelled(x):
    """A value equal to x, spelled otherwise: every segment backwards and
    every sum built from its terms in reverse order."""
    if isinstance(x, T.Segment):
        return x if x.b is None else T.Segment(x.b, x.a, display=x.b + x.a)
    if isinstance(x, T.TermSum):
        return T.term_sum(reversed([_respelled(t) for t in x.terms]))
    if isinstance(x, Record):
        return type(x)(*[_respelled(getattr(x, f)) for f in x._fields])
    return x


@st.composite
def equal_pairs(draw):
    """A statement and a variant built to equal it: respelled, with the
    sides of `=` or `==` or the arms of a right angle swapped."""
    a = draw(statements())
    b = _respelled(a) if draw(st.booleans()) else a
    if draw(st.booleans()):
        if isinstance(b, T.Eq):
            b = T.Eq(b.rhs, b.lhs)
        elif isinstance(b, T.SegEq):
            b = T.SegEq(b.b, b.a)
        elif isinstance(b, T.RightAngle):
            b = T.RightAngle(b.vertex, b.arm2, b.arm1)
    return a, b, True


def _swapped(t):
    """t with the operands of its rectangle swapped, when they differ."""
    inner = t.inner if isinstance(t, T.Multiple) else t
    if not isinstance(inner, T.RectBy) or inner.first == inner.second:
        return None
    swapped = T.RectBy(inner.second, inner.first)
    return T.Multiple(t.count, swapped) if isinstance(t, T.Multiple) else swapped


@st.composite
def differing_pairs(draw):
    """A statement and a variant built to differ from it: the operands of
    `pi` or of one rectangle swapped, or one term changed.  A form with no
    term or operand order is paired with any statement, and no verdict is
    expected of that pair."""
    a = draw(statements())
    if isinstance(a, T.Pi) and a.first != a.second:
        return a, T.Pi(a.figure, a.second, a.first), False
    if not isinstance(a, T.Eq):
        return a, draw(statements()), None
    side = draw(st.sampled_from(["lhs", "rhs"]))
    items = list(getattr(a, side).terms)
    i = draw(st.integers(0, len(items) - 1))
    old = items[i]
    new = _swapped(old) if draw(st.booleans()) else None
    items[i] = new or draw(terms().filter(lambda t: t != old))
    changed = T.term_sum(items)
    return a, T.Eq(changed, a.rhs) if side == "lhs" else T.Eq(a.lhs, changed), False


@given(st.one_of(equal_pairs(), differing_pairs(), st.tuples(statements(), statements(), st.none())))
@settings(max_examples=500)
def test_stmt_equal_is_equality_of_the_reference_keys(case):
    """`stmt_equal` compares statements as values; string keys built from
    each statement's canonical text decide the same."""
    a, b, same = case
    assert T.stmt_equal(a, b) == (reference_stmt_key(a) == reference_stmt_key(b))
    if same is not None:
        assert T.stmt_equal(a, b) == same
