import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from test_terms import LETTERS, statements

from euclid2 import corpusdata
from euclid2 import script as sc
from euclid2 import terms as T
from euclid2.errors import ParseError, UndeclaredPoint, UnknownRule
from helpers import all_entries, negative_entries

CORPUS_FILES = [e["file"] for e in all_entries()] + [
    n["file"] for n in negative_entries()
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


# sha256 of each corpus file's `format_script` text: the canonical spelling
# byte for byte, which a parse-print round trip alone does not pin
FORMAT_SHA256 = {
    "II_1.e2p": "814ca97781b5a37419d3e51a8d6d0e82fa9045d249776739c908f82bd06a9aff",
    "II_10.e2p": "52dbd49e164c081d6c0b2502bee9226dc1cdbec1f5894f77bd5cfb5373a53fc6",
    "II_11.e2p": "bb4deb8879a7c9dd665d87c605a06de69fa89f19f39a23bfd7128b3d869df5c2",
    "II_12.e2p": "9de64ffa81b8f9be4fda43c0fab3ca676b55663da981089eab6b2a189a683cd8",
    "II_13.e2p": "6f0ce696341587b2c79592f34a9705ea4ceac2daf9f4f6281636e0afd2fc6123",
    "II_14.e2p": "5ca56b9824ef0078334eea70fb16df4192ab3c5c82528985d4dcc504f89ae0db",
    "II_14_bm.e2p": "ec01a4726bb462a76713d82ab3d75f71fe6986ff7cfbc60ab9368d92a638b1ff",
    "II_2.e2p": "092f8aa673d3b841d87afc4f6d3354ef6518b2ebd2d457bc771b8b5c0b691faf",
    "II_3.e2p": "0cd45704828722b6e1bf0cf4c930bd0e51b3626f662be9130a18a39bb01259b1",
    "II_4.e2p": "eecb97658e600dbf91bf21c852cb570b50808a1d6950a76849e0509b9524ccd9",
    "II_5.e2p": "b865c194d86c82451a170c5e5f4d324e372a825c59049d041e3c382fd0b89572",
    "II_5_bm.e2p": "7304e8420d5d119176b6913427cdeb878e4ad01be9f1535b7a599aa9175d2a8e",
    "II_6.e2p": "75cb4b6716d18c5a785d374c3a2c59e11b28402ed1d8a0d1c4d2c01c3afbee6d",
    "II_7.e2p": "daa880ff3a4cc640bcd779cb503e71113268e93d93e0b87f15269be2f90e2cad",
    "II_8.e2p": "4a63d6e95680a8445c6863fa629b0ebd4a91839d4a57f3300043bf2c287465d4",
    "II_9.e2p": "fc0e7f603288441040c0c6aa8ae1c6d30afa3a0042a3da1883cdd3b8b76bbdf3",
    "neg/II_11_no_rangle.e2p": "0840a9101b6b4578675dc23d64f2c3dd56d9c64d4f229a111fc9f3353180c210",
    "neg/II_14_no_common.e2p": "e9a53310ab14160b9f66c08a1d77c8ef8e74c3fec9f8a67a24d0b382b97f4f42",
    "neg/II_14_wrong_radius.e2p": "df95ba30a433eae3b36ca283e3ee6e3668e0bf29351e09ed34e59a678759b99a",
    "neg/II_1_false_ve.e2p": "eb0309090eb0c1ffb45176d1978341c8f1a287b34b0d4edfc547a5d5eb353dcb",
    "neg/II_2_claim_mismatch.e2p": "a4f29a95932133cab6075f07fe8566d368b0677d22c9b00615c28a01f0aa842d",
    "neg/II_4_commuted.e2p": "91dcc5513bd5ac12488f10d90d9149cb885bb3dc3b85d5ab698845706d440d9a",
    "neg/II_4_double_distinct.e2p": "e5efe93b8ffea2c2b9c592e35b6a35875ba387d6db57acbc8ba3e7a0efee15d6",
    "neg/II_5_bad_i43.e2p": "eaf2688e700e87bc7e363f2fea1864da56c775cb51f5b629d81125c629d4a3f2",
    "neg/II_7_merge_overlap.e2p": "98972f33f8484e487ff9b1aa5584c2213b866029e4058d00f070892d6984c775",
    "neg/II_9_missing_hyp.e2p": "8ff53785f0438c433da1f086551a68a2a5827e6b7aa30b8aca2eff711f5e06f8",
    "neg/mueller_congruence.e2p": "7cb9cfb200b47549076c0ab8b036937467cb8df99015407857bc1211fbb6892d",
}


def test_format_script_matches_golden_digests():
    assert sorted(FORMAT_SHA256) == sorted(set(CORPUS_FILES))
    for name, digest in FORMAT_SHA256.items():
        text = sc.format_script(sc.parse_script(corpusdata.read_script_text(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


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


CLAIM = "claim: rect(A,BC) = rect(A,BD) + rect(A,DE) + rect(A,EC)"
STEP2 = "  2. BH pi A x BC ; R1 [BH pi GB x BC] [BG == A]"
PERP = "  perp G from B on BC below len |A|"


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
        # an unknown command: the column of its head word
        ("  place BC = 1", "    plaice BC = 1", 5, "unknown construction command 'plaice'"),
        # a malformed command or statement: the column of the failing token
        ("  place BC = 1", "   place BC 1", 13, "'=', got '1'"),
        (CLAIM, "claim: sq(BC) = sqq(BC)", 17, "term, got 'sqq'"),
        (STEP2, STEP2.replace("[BG == A]", "[sqq(BC) = sq(BC)]"), 41, "term, got 'sqq'"),
        (CLAIM, "claim: sq(BC) + 1*rect(BC,CD) = sq(BC)", 17, "Multiple count must be >= 2"),
        (CLAIM, "claim: fig(BCDEG) = sq(BC)", 12, "figure name, got 'BCDEG'"),
        (STEP2, STEP2.replace("BH pi A x BC ;", "BH pi A x C7 ;"), 16, "segment name, got 'C7'"),
        # an undeclared label: the column of the letter
        (CLAIM, CLAIM.replace("rect(A,BC) =", "rect(A,BZ) ="), 16, "point 'Z' not in roster"),
        (STEP2, STEP2.replace("[BG == A]", "[BG == Q]"), 47, "segment 'Q' not declared"),
        (CLAIM, "claim: fig(X) = sq(BC)", 12, "figure 'X' not declared"),
        # a segment whose length a construction copies is declared as well
        (PERP, PERP.replace("|A|", "|Z|"), 34, "segment 'Z' not declared"),
        (PERP, PERP.replace("|A|", "|BZ|"), 35, "point 'Z' not in roster"),
        # a parameter: a new length-parameter name, and declared where used
        ("param c = 2/5", "param 3x", 7, "length-parameter name, got '3x'"),
        ("param c = 2/5", "param Q9 = 2/5", 7, "length-parameter name, got 'Q9'"),
        ("param c = 2/5", "param a = 2/5", 7, "duplicate parameter a"),
        ("param c = 2/5", "param c 2/5", 9, "'=' or end of line, got '2/5'"),
        ("  segment A = a", "  segment A = q", 15, "parameter 'q' not declared"),
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


def test_construct_must_precede_hypotheses_and_claim():
    lines = corpusdata.read_script_text("II_5.e2p").splitlines()
    claim = next(i for i, line in enumerate(lines) if line.startswith("claim:"))
    k = lines.index("construct:")
    moved = lines[:k] + [lines[claim]] + lines[k:claim] + lines[claim + 1 :]
    with pytest.raises(ParseError) as exc:
        sc.parse_script("\n".join(moved) + "\n")
    assert exc.value.line == k + 2
    assert exc.value.expected == "construct: must come before hypotheses and the claim"


def test_hypothesis_after_the_claim_is_a_parse_error():
    lines = corpusdata.read_script_text("II_9.e2p").splitlines()
    hyps = [line for line in lines if line.startswith("hypothesis ")]
    rest = [line for line in lines if not line.startswith("hypothesis ")]
    claim = next(i for i, line in enumerate(rest) if line.startswith("claim:"))
    moved = rest[: claim + 1] + hyps + rest[claim + 1 :]
    with pytest.raises(ParseError) as exc:
        sc.parse_script("\n".join(moved) + "\n")
    assert exc.value.line == claim + 2
    assert exc.value.expected == f"unexpected line in section 'claim': {hyps[0]!r}"


def test_whitespace_between_tokens_is_free():
    text = corpusdata.read_script_text("II_5.e2p")
    spaced = (
        text.replace("place AB = 1", "place  AB=1")
        .replace("fig(CH) = fig(HF) ; I43", "fig ( CH )=fig(HF);I43")
        .replace("[AH pi AD x DH] [DH == DB]", "[ AHpiADxDH ][DH==DB]")
        .replace("; flag I.36-external", ";flag   I.36-external")
    )
    assert spaced != text
    assert sc.parse_script(spaced) == sc.parse_script(text)


def _doc_examples(heading):
    """The first-column examples of the table under a GRAMMAR.md heading."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "GRAMMAR.md").read_text()
    table = doc.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` +\|", table, re.M)


def test_grammar_doc_examples_cover_every_command():
    # each placeholder such as <len> or <w> stands for a length; 1 is one
    examples = [re.sub(r"<\w+>", "1", ex) for ex in _doc_examples("Construction commands")]
    roster = " ".join(sorted(set(re.findall("[A-Z]", "".join(examples)))))
    text = f"prop doc\npoints {roster}\nconstruct:\n" + "".join(f"  {ex}\n" for ex in examples)
    parsed = sc.parse_script(text + "claim: fig(A) = fig(A)\nproof:\nqed\n").construction
    assert {type(c) for c in parsed} == set(sc.COMMANDS)
    assert [c.text() for c in parsed] == examples


def test_grammar_doc_examples_cover_every_term_and_statement():
    terms = [T.parse_statement(f"{ex} = {ex}").lhs.terms[0] for ex in _doc_examples("Terms")]
    assert {type(t) for t in terms} == set(T.TERMS)
    assert [t.text() for t in terms] == _doc_examples("Terms")
    statements = [T.parse_statement(ex) for ex in _doc_examples("Statements")]
    assert {type(s) for s in statements} == set(T.STATEMENTS)
    assert [s.text() for s in statements] == _doc_examples("Statements")


# ---------------------------------------------------------------------------
# generated scripts: round-trip over the grammar

POINTS = list("ABCDEFGHKLM")


def _gen_len(rng, points, segments):
    """A literal, a parameter, or the length of a segment the script names:
    two of its points, or a standalone segment declared before."""
    k = rng.randrange(3)
    if k == 0:
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        return sc.LenLit(q.numerator, q.denominator)
    if k == 1:
        return sc.LenParam(rng.choice(["a", "d", "e"]))
    return sc.LenSeg(rng.choice(["".join(rng.sample(points, 2)), *segments]))


def _gen_script(rng: random.Random) -> sc.Script:
    points = tuple(sorted(rng.sample(POINTS, rng.randint(4, 8))))
    pick = lambda: rng.choice(points)
    segments, figures = [], []  # the standalone segments and figures declared so far
    length = lambda: _gen_len(rng, points, segments)

    def pair():
        a = pick()
        b = rng.choice([p for p in points if p != a])
        return (a, b)

    def letters(n):
        return "".join(rng.sample(points, n))

    def part():
        """A gnomon part: a name spelled with points, or a declared figure."""
        return rng.choice([letters(2), letters(4), *figures])

    def square():
        name = letters(4)
        return sc.SquareOnCmd(name, (name[0], name[1]),
                              rng.choice(["below", "above", "left", "right"]))

    # one random-instance factory per class of the command table
    makers = {
        sc.PlaceSegment: lambda: sc.PlaceSegment(*pair(), length()),
        sc.StandaloneSegmentCmd: lambda: sc.StandaloneSegmentCmd(pick(), length()),
        sc.CutRandom: lambda: sc.CutRandom(pick(), pair(), length()),
        sc.CutHalf: lambda: sc.CutHalf(pick(), pair()),
        sc.ExtendBy: lambda: sc.ExtendBy(pair(), pick(), length()),
        sc.ExtendCopy: lambda: sc.ExtendCopy(pair(), pick(), pick(), pair()),
        sc.SquareOnCmd: square,
        sc.RectFig: lambda: sc.RectFig(pick(), length(), length()),
        sc.TriangulateToRect: lambda: sc.TriangulateToRect(
            letters(4), rng.choice([f for f in figures if len(f) == 1])),
        sc.Perp: lambda: sc.Perp(pick(), pick(), pair(), rng.choice(["below", "above"]),
                                 length()),
        sc.ParallelTranslate: lambda: sc.ParallelTranslate(pick(), pick(), pair()),
        sc.ParallelMeet: lambda: sc.ParallelMeet(pick(), pick(), pair(), pair()),
        sc.Join: lambda: sc.Join(*pair()),
        sc.SemicircleOn: lambda: sc.SemicircleOn(pair(), pick(), rng.choice(["above", "below"])),
        sc.IntersectLines: lambda: sc.IntersectLines(pick(), pair(), pair()),
        sc.IntersectCircle: lambda: sc.IntersectCircle(pick(), pair(), pick(),
                                                       rng.choice(["above", "below"])),
        sc.GnomonDecl: lambda: sc.GnomonDecl(letters(3), part(), part()),
    }
    assert set(makers) == set(sc.COMMANDS)
    kinds = [rng.choice(sc.COMMANDS) for _ in range(rng.randint(0, 8))]
    cmds = []
    for k in [sc.PlaceSegment] + kinds:
        # `torect` copies a declared one-letter figure
        if k is sc.TriangulateToRect and not any(len(f) == 1 for f in figures):
            cmds.append(makers[sc.RectFig]())
            figures.append(cmds[-1].name)
        cmds.append(makers[k]())
        if k is sc.StandaloneSegmentCmd:
            segments.append(cmds[-1].name)
        elif k in (sc.RectFig, sc.GnomonDecl):
            figures.append(cmds[-1].name)

    def stmt(rng):
        from euclid2 import terms as T

        def seg():
            if rng.random() < 0.15:
                return T.segment_named("A")
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
        params={"a": sc.LenLit(1, 2), "d": sc.LenLit(1, 5), "e": sc.LenLit(2, 5)},
        flags=frozenset(["allow-overlap"] if rng.random() < 0.3 else []),
        construction=tuple(cmds + [sc.StandaloneSegmentCmd("A", length())]),
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


# ---------------------------------------------------------------------------
# generated proof-step lines: printing and parsing agree

# every point is declared, and so is every one-letter standalone segment,
# so a step may name any figure spelled with points, `F` or `NOP`
_STEP_SCRIPT = (
    "prop steps\npoints " + " ".join(LETTERS) + "\nconstruct:\n"
    + "".join(f"  segment {p} = 1\n" for p in LETTERS)
    + "  rectfig F 1 x 1\n  gnomon NOP = ABCD minus EF\n"
    + "claim: sq(AB) = sq(AB)\nproof:\n{steps}qed\n"
)
_STEP_FIGURES = st.one_of(
    st.text(LETTERS, min_size=2, max_size=2),
    st.text(LETTERS, min_size=4, max_size=4),
    st.sampled_from(["F", "NOP"]),
)


@st.composite
def proof_steps(draw):
    stmts = statements(_STEP_FIGURES)
    premise = st.one_of(
        st.builds(sc.StepRef, st.integers(0, 20)),
        st.builds(sc.HypRef, st.integers(0, 20)),
        st.builds(sc.InlinePremise, stmts),
    )
    return sc.ProofStep(
        draw(st.integers(1, 3)),
        draw(stmts),
        draw(st.sampled_from([r.value for r in sc.Rule])),
        tuple(draw(st.lists(premise, max_size=4))),
    )


@given(proof_steps())
@settings(max_examples=150, deadline=None)
def test_proof_step_text_parses_back(step):
    filler = "".join(f"  {k}. sq(AB) = sq(AB) ; VE\n" for k in range(1, step.index))
    text = _STEP_SCRIPT.format(steps=filler + f"  {step.text()}\n")
    parsed = sc.parse_script(text).steps[-1]
    assert parsed == step
    assert parsed.text() == step.text()


# ---------------------------------------------------------------------------
# a parser reads each distinct term once

DATA = Path(__file__).resolve().parent / "data"
SCRIPT_TEXTS = {name: corpusdata.read_script_text(name) for name in sorted(set(CORPUS_FILES))}
SCRIPT_TEXTS.update({f"data/{p.name}": p.read_text(encoding="utf-8") for p in sorted(DATA.glob("*.e2p"))})


def _before_semicolon(text: str) -> str:
    """`text` up to its first `;` outside parentheses (a right angle's
    `rangle(B;A,C)` holds one inside)."""
    depth = 0
    for i, c in enumerate(text):
        depth += (c == "(") - (c == ")")
        if c == ";" and depth == 0:
            return text[:i]
    return text


class _UnkeptReader(T.Reader):
    """A reader that reads every term afresh."""

    def read_term(self):
        return self.choose(T.TERMS, "term")


def _fresh_statement(text: str) -> T.Statement:
    reader = _UnkeptReader(text)
    stmt = reader.read_stmt()
    reader.end()
    return stmt


@pytest.mark.parametrize("name", sorted(SCRIPT_TEXTS))
def test_every_statement_equals_a_fresh_parse_of_its_text(name):
    """Each step claim, inline premise, hypothesis and the diorismos equal
    what `parse_statement`, and a reader that keeps no term, make of the
    statement's own source text."""
    text = SCRIPT_TEXTS[name]
    script = sc.parse_script(text)
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()]
    claim = next(line for line in lines if line.lstrip().startswith("claim"))
    pairs = [(script.diorismos, claim.split(":", 1)[1])]
    hypothesis_lines = [line for line in lines if line.lstrip().startswith("hypothesis")]
    step_lines = [line for line in lines if re.match(r"\s*\d+\.", line)]
    assert len(hypothesis_lines) == len(script.hypotheses)
    assert len(step_lines) == len(script.steps)
    for h, line in zip(script.hypotheses, hypothesis_lines):
        pairs.append((h.stmt, _before_semicolon(line.split("hypothesis", 1)[1])))
    for step, line in zip(script.steps, step_lines):
        head = _before_semicolon(line)
        pairs.append((step.claim, head.split(".", 1)[1]))
        inline = re.findall(r"\[([^\]]*)\]", line[len(head):])
        premises = [p.stmt for p in step.premises if isinstance(p, sc.InlinePremise)]
        assert len(inline) == len(premises)
        pairs += zip(premises, inline)
    for stmt, source in pairs:
        for fresh in (T.parse_statement(source), _fresh_statement(source)):
            assert stmt == fresh and stmt.text() == fresh.text(), source


def test_a_term_read_in_one_parse_is_not_kept_for_the_next():
    declared = (
        "prop T\npoints A B\nconstruct:\n  place AB = 1\n  rectfig X 1 x 1\n"
        "claim: fig(X) = sq(AB)\nproof:\n  1. fig(X) = sq(AB) ; VE\nqed\n"
    )
    assert sc.parse_script(declared).diorismos.text() == "fig(X) = sq(AB)"
    undeclared = declared.replace("  rectfig X 1 x 1\n", "")
    with pytest.raises(ParseError) as exc:
        sc.parse_script(undeclared)
    assert (exc.value.line, exc.value.col) == (5, 12)
    assert exc.value.expected == "figure 'X' not declared"
