import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from euclid2 import corpusdata
from euclid2 import script as sc
from euclid2.errors import ParseError, UndeclaredPoint, UnknownRule

CORPUS_FILES = [e["file"] for e in corpusdata.all_entries()] + [
    n["file"] for n in corpusdata.negative_entries()
]


@pytest.mark.parametrize("name", sorted(set(CORPUS_FILES)))
def test_roundtrip_corpus(name):
    text = corpusdata.read_script_text(name)
    script = sc.parse_script(text)
    formatted = sc.format_script(script)
    again = sc.parse_script(formatted)
    assert again == script
    # determinism: formatting twice is byte-identical
    assert sc.format_script(again) == formatted


def test_unknown_rule():
    text = corpusdata.read_script_text("II_2.e2p").replace("; VE", "; R9")
    with pytest.raises(UnknownRule) as exc:
        sc.parse_script(text)
    assert exc.value.line > 0


def test_undeclared_point():
    text = corpusdata.read_script_text("II_2.e2p").replace(
        "claim: rect(BA,AC) + rect(AB,BC) = sq(AB)",
        "claim: rect(BA,AC) + rect(AB,BZ) = sq(AB)",
    )
    with pytest.raises(UndeclaredPoint):
        sc.parse_script(text)


def test_missing_qed():
    text = corpusdata.read_script_text("II_2.e2p").replace("qed", "")
    with pytest.raises(ParseError):
        sc.parse_script(text)


def test_label_error_reports_the_step_line():
    # step 5 is on line 32; an earlier comment mentions "II.5."
    text = corpusdata.read_script_text("II_6.e2p").replace(
        "5. fig(NOP) = fig(HF) + fig(CM) ; VE", "5. fig(NOP) = fig(HZ) + fig(CM) ; VE"
    )
    with pytest.raises(UndeclaredPoint) as exc:
        sc.parse_script(text)
    assert exc.value.line == 32


def test_error_locality_line_numbers():
    base = corpusdata.read_script_text("II_5.e2p").splitlines()
    rng = random.Random(7)
    seen = 0
    for _ in range(40):
        lines = list(base)
        k = rng.randrange(len(lines))
        if not lines[k].strip() or lines[k].lstrip().startswith("#"):
            continue
        lines[k] = lines[k] + " ~garbage~"
        try:
            sc.parse_script("\n".join(lines))
        except ParseError as exc:
            assert exc.line == k + 1, (lines[k], exc.line)
            seen += 1
    assert seen >= 10


@pytest.mark.parametrize(
    "old, new, col, expected",
    [
        # a param value: the column of the value, the value without its space
        ("param c = 2/5", "param c = 1e3", 11, "rational number, got '1e3'"),
        ("param c = 2/5", "param c =   2/0", 13, "zero denominator"),
        # a length in a construction command: the column of the length token
        ("  place BC = 1", "  place BC = 1e9", 14, "length expression, got '1e9'"),
        ("  place BC = 1", "  place BC = 1/0", 14, "zero denominator"),
        ("  segment A = a", "    segment A = A", 17, "length expression, got 'A'"),
        # a whole construction command: the column where the command starts
        ("  place BC = 1", "    plaice BC = 1", 5, "unknown construction command 'plaice'"),
        ("  place BC = 1", "   place BC 1", 4, "malformed place command: 'place BC 1'"),
    ],
)
def test_malformed_token_reports_its_column(old, new, col, expected):
    text = corpusdata.read_script_text("II_1.e2p")
    lines = text.splitlines()
    k = lines.index(old)
    lines[k] = new
    with pytest.raises(ParseError) as exc:
        sc.parse_script("\n".join(lines) + "\n")
    assert (exc.value.line, exc.value.col, exc.value.expected) == (k + 1, col, expected)


def test_grammar_doc_examples_cover_every_command():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "GRAMMAR.md").read_text()
    table = doc.split("## Construction commands", 1)[1].split("\n## ", 1)[0]
    # each placeholder such as <len> or <w> stands for a length; 1 is one
    examples = [re.sub(r"<\w+>", "1", ex) for ex in re.findall(r"^\| `([^`]+)` \|", table, re.M)]
    parsed = [sc.parse_command(ex, 1, 1) for ex in examples]
    assert {type(c) for c in parsed} == set(sc.COMMANDS)
    assert [c.text() for c in parsed] == examples


# ---------------------------------------------------------------------------
# generated scripts: round-trip over the grammar

POINTS = list("ABCDEFGHKLM")


def _gen_len(rng):
    k = rng.randrange(3)
    if k == 0:
        return sc.LenLit(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    if k == 1:
        return sc.LenParam(rng.choice(["a", "d", "e"]))
    return sc.LenSeg(rng.choice(["AB", "CD", "A"]))


def _gen_script(rng: random.Random) -> sc.Script:
    points = tuple(sorted(rng.sample(POINTS, rng.randint(4, 8))))
    pick = lambda: rng.choice(points)

    def pair():
        a = pick()
        b = rng.choice([p for p in points if p != a])
        return (a, b)

    def letters(n):
        return "".join(rng.sample(points, n))

    def square():
        name = letters(4)
        return sc.SquareOnCmd(name, (name[0], name[1]),
                              rng.choice(["below", "above", "left", "right"]))

    # one random-instance factory per class of the command table
    makers = {
        sc.PlaceSegment: lambda: sc.PlaceSegment(*pair(), _gen_len(rng)),
        sc.StandaloneSegmentCmd: lambda: sc.StandaloneSegmentCmd(pick(), _gen_len(rng)),
        sc.CutRandom: lambda: sc.CutRandom(pick(), pair(), _gen_len(rng)),
        sc.CutHalf: lambda: sc.CutHalf(pick(), pair()),
        sc.ExtendBy: lambda: sc.ExtendBy(pair(), pick(), _gen_len(rng)),
        sc.ExtendCopy: lambda: sc.ExtendCopy(pair(), pick(), pick(), pair()),
        sc.SquareOnCmd: square,
        sc.RectFig: lambda: sc.RectFig(pick(), _gen_len(rng), _gen_len(rng)),
        sc.TriangulateToRect: lambda: sc.TriangulateToRect(letters(4), pick()),
        sc.Perp: lambda: sc.Perp(pick(), pick(), pair(), rng.choice(["below", "above"]),
                                 _gen_len(rng)),
        sc.ParallelTranslate: lambda: sc.ParallelTranslate(pick(), pick(), pair()),
        sc.ParallelMeet: lambda: sc.ParallelMeet(pick(), pick(), pair(), pair()),
        sc.Join: lambda: sc.Join(*pair()),
        sc.SemicircleOn: lambda: sc.SemicircleOn(pair(), pick(), rng.choice(["above", "below"])),
        sc.IntersectLines: lambda: sc.IntersectLines(pick(), pair(), pair()),
        sc.IntersectCircle: lambda: sc.IntersectCircle(pick(), pair(), pick(),
                                                       rng.choice(["above", "below"])),
        sc.GnomonDecl: lambda: sc.GnomonDecl(letters(3), letters(rng.randint(1, 4)),
                                             letters(rng.randint(1, 4))),
    }
    assert set(makers) == set(sc.COMMANDS)
    kinds = [rng.choice(sc.COMMANDS) for _ in range(rng.randint(0, 8))]
    cmds = [makers[k]() for k in [sc.PlaceSegment] + kinds]

    def stmt(rng):
        from euclid2 import terms as T

        def seg():
            if rng.random() < 0.15:
                return T.standalone_segment("A")
            a, b = pair()
            return T.Segment(a, b, display=a + b)

        def term():
            k = rng.randrange(4)
            if k == 0:
                return T.SquareOn(seg())
            if k == 1:
                return T.RectBy(seg(), seg())
            if k == 2:
                return T.Fig(T.FigureName("".join(rng.sample(points, 2))))
            return T.Multiple(rng.randint(2, 4), T.SquareOn(seg()))

        return T.Eq(
            T.term_sum([term() for _ in range(rng.randint(1, 3))]),
            T.term_sum([term() for _ in range(rng.randint(1, 3))]),
        )

    steps = []
    for i in range(1, rng.randint(2, 5)):
        premises = []
        for _ in range(rng.randint(0, 2)):
            if i > 1 and rng.random() < 0.5:
                premises.append(sc.StepRef(rng.randint(1, i - 1)))
            else:
                premises.append(sc.InlinePremise(stmt(rng)))
        steps.append(sc.ProofStep(i, stmt(rng), rng.choice(["VE", "CN1", "R3", "MERGE"]),
                                  tuple(premises)))

    return sc.Script(
        prop_id=f"gen.{rng.randint(1, 999)}",
        points=points,
        base_lines=(points[:3],),
        params={"a": Fraction(1, 2), "d": Fraction(1, 5), "e": Fraction(2, 5)},
        flags=frozenset(["allow-overlap"] if rng.random() < 0.3 else []),
        construction=tuple(cmds + [sc.StandaloneSegmentCmd("A", _gen_len(rng))]),
        hypotheses=(sc.Hypothesis(1, stmt(rng), "generated"),),
        diorismos=stmt(rng),
        steps=tuple(steps),
    )


def test_roundtrip_generated_scripts():
    rng = random.Random(20260811)
    generated = set()
    for _ in range(100):
        script = _gen_script(rng)
        generated.update(type(c) for c in script.construction)
        text = sc.format_script(script)
        again = sc.parse_script(text)
        assert again == script, text
    assert generated == set(sc.COMMANDS)
