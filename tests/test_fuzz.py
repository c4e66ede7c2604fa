"""Mutated corpus scripts: realizing, rendering and checking them either
works or raises a typed `Euclid2Error`, never anything else; and a mutated
step claim that the checker still accepts is true."""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from euclid2 import cli, corpusdata
from euclid2 import diagram as dg
from euclid2 import oracle as orc
from euclid2 import rules
from euclid2 import script as sc
from euclid2 import svgout
from euclid2 import terms as T
from euclid2.errors import Euclid2Error, ParseError
from helpers import all_entries

ENTRIES = all_entries()
FILES = [e["file"] for e in ENTRIES]
NUMBERS = ["0", "-1", "1", "2", "1/3", "3/2", "0/1", "1/0", "10000", "1e9", "|AB|", "|ZZ|"]
LABELS = list("ABCDEFGHKLMNOPXZ")
WORDS = ["place", "cut", "cuthalf", "extend", "square", "join", "parallel", "intersect",
         "perp", "semicircle", "gnomon", "rectfig", "torect", "segment", "on", "at", "by",
         "to", "with", "through", "along", "meet", "center", "from", "minus", "line",
         "circle", "x", "=", "below", "above", "left", "right", "len"]


def _construction_span(lines):
    """Indices of the command lines of the `construct:` block."""
    start = lines.index("construct:") + 1
    end = start
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return range(start, end)


@st.composite
def mutated_scripts(draw):
    lines = corpusdata.read_script_text(draw(st.sampled_from(FILES))).splitlines()
    span = _construction_span(lines)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from(span))
        tokens = lines[k].split()
        i = draw(st.integers(0, len(tokens) - 1))
        # label and number edits leave a command parseable more often
        kind = draw(st.sampled_from(
            ["token", "label", "label", "number", "number", "drop", "line"]))
        if kind == "token":
            tokens[i] = draw(st.sampled_from(WORDS + NUMBERS + LABELS))
        elif kind == "label":
            # swap one point letter inside a token (AB -> AE, CEFB -> CEAB)
            letters = [m.start() for m in re.finditer("[A-Z]", tokens[i])]
            if letters:
                j = draw(st.sampled_from(letters))
                tokens[i] = tokens[i][:j] + draw(st.sampled_from(LABELS)) + tokens[i][j + 1:]
        elif kind == "number":
            numeric = [t for t, tok in enumerate(tokens) if re.search(r"\d", tok)] or [i]
            tokens[draw(st.sampled_from(numeric))] = draw(st.sampled_from(NUMBERS))
        elif kind == "drop":
            del tokens[i]
        else:
            # move a whole command, or repeat it in place of another
            other = draw(st.sampled_from(span))
            if draw(st.booleans()):
                lines[k], lines[other] = lines[other], lines[k]
            else:
                lines[other] = lines[k]
            continue
        lines[k] = "  " + " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(mutated_scripts())
def test_mutated_construction_realizes_or_raises_a_typed_error(text):
    try:
        script = sc.parse_script(text)
        inst = dg.realize(script)
        svgout.render_svg(script, inst)
    except Euclid2Error:
        pass


@settings(max_examples=50, deadline=None)
@given(mutated_scripts())
def test_oracle_on_a_mutated_construction_exits_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.e2p"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["oracle", str(path), "--samples", "2"])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# proof lines: rule names and premise lists

_STEP = re.compile(r"^(\s*(\d+)\.\s+.+?\s+;\s+)(\S+)(.*)$")
_PREMISE = re.compile(r"\[[^\]]*\]|\S+")


@st.composite
def mutated_proofs(draw):
    entry = draw(st.sampled_from(ENTRIES))
    lines = corpusdata.read_script_text(entry["file"]).splitlines()
    steps = [k for k, line in enumerate(lines) if _STEP.match(line)]
    n_hyps = sum(line.startswith("hypothesis ") for line in lines)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from(steps))
        head, index, rule, rest = _STEP.match(lines[k]).groups()
        premises = _PREMISE.findall(rest.split("#", 1)[0])
        kind = draw(st.sampled_from(["rule", "drop", "duplicate", "reorder", "ref", "borrow"]))
        if kind == "rule":
            rule = draw(st.sampled_from([r.value for r in rules.Rule]))
        elif kind == "drop" and premises:
            del premises[draw(st.integers(0, len(premises) - 1))]
        elif kind == "duplicate" and premises:
            premises.insert(draw(st.integers(0, len(premises))), draw(st.sampled_from(premises)))
        elif kind == "reorder":
            premises = draw(st.permutations(premises))
        elif kind == "ref":
            # this step, a later or missing step, a missing hypothesis
            i = int(index)
            ref = draw(st.sampled_from(
                [f"s{i}", f"s{i + 1}", f"s{len(steps) + 1}", "s0", "h0", f"h{n_hyps + 1}"]))
            premises.insert(draw(st.integers(0, len(premises))), ref)
        elif kind == "borrow":
            # a premise of another step, of whatever form
            other = _STEP.match(lines[draw(st.sampled_from(steps))]).group(4)
            pool = _PREMISE.findall(other.split("#", 1)[0]) or ["h1"]
            premises.insert(draw(st.integers(0, len(premises))), draw(st.sampled_from(pool)))
        lines[k] = " ".join([head + rule, *premises])
    return entry["profile"], "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(mutated_proofs())
def test_mutated_proof_is_checked_or_raises_a_typed_error(case):
    profile, text = case
    try:
        script = sc.parse_script(text)
    except Euclid2Error:
        return
    rules.check_proof(script, profile=profile)


@settings(max_examples=40, deadline=None)
@given(mutated_proofs(), st.sampled_from(["check", "annotate", "render"]))
def test_mutated_proof_exits_with_a_documented_code(case, command):
    """No catch-all guards a step: every command on a mutated proof ends in a
    verdict or a typed error, never a traceback."""
    profile, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.e2p"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), "--profile", profile])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# mutation soundness: a wrong claim that passes its step is not wrong

PARSED = [(e["profile"], sc.parse_script(corpusdata.read_script_text(e["file"]))) for e in ENTRIES]


def _script_terms(script) -> list:
    """Every term of the script's diorismos and step claims, namings lifted."""
    terms = []
    for stmt in (script.diorismos, *(step.claim for step in script.steps)):
        stmt = T.lift_naming(stmt)
        if isinstance(stmt, T.Eq):
            terms += [*stmt.lhs.terms, *stmt.rhs.terms]
    return list(dict.fromkeys(terms))


@st.composite
def mutated_claims(draw):
    """A positive corpus entry, one of its steps and a mutant of that step's
    claim (None when the mutant does not parse).  A sum equality has a term
    swapped for, or added from, the terms of the same script, or one of its
    terms dropped or duplicated; any other claim has one label swapped."""
    profile, script = draw(st.sampled_from(PARSED))
    step = draw(st.sampled_from(script.steps))
    claim = step.claim
    if isinstance(claim, T.Eq):
        sides = [list(claim.lhs.terms), list(claim.rhs.terms)]
        kind = draw(st.sampled_from(["swap", "drop", "duplicate", "add"]))
        droppable = [side for side in sides if len(side) > 1]
        if kind == "drop" and droppable:
            side = draw(st.sampled_from(droppable))
            del side[draw(st.integers(0, len(side) - 1))]
        else:
            side = draw(st.sampled_from(sides))
            i = draw(st.integers(0, len(side) - 1))
            term = draw(st.sampled_from(_script_terms(script)))
            if kind == "duplicate":
                side.append(side[i])
            elif kind == "add":
                side.append(term)
            else:
                side[i] = term
        return profile, script, step, T.Eq(T.term_sum(sides[0]), T.term_sum(sides[1]))
    text = claim.text()
    j = draw(st.sampled_from([m.start() for m in re.finditer("[A-Z]", text)]))
    text = text[:j] + draw(st.sampled_from(script.points)) + text[j + 1 :]
    try:
        return profile, script, step, T.parse_statement(text)
    except Euclid2Error:
        return profile, script, step, None


@settings(max_examples=300, deadline=None)
@given(mutated_claims(), st.integers(0, 2**32 - 1))
def test_a_mutated_claim_that_passes_its_step_holds(case, seed):
    """When a step with a mutated claim is still accepted (the proof is
    accepted, or rejected at another step), the mutant holds exactly on 5
    oracle draws of the construction."""
    profile, script, step, claim = case
    if claim is None:
        return
    mutated_step = sc.ProofStep(step.index, claim, step.rule, step.premises)
    fields = {name: getattr(script, name) for name in sc.Script._fields}
    fields["steps"] = tuple(mutated_step if s is step else s for s in script.steps)
    report = rules.check_proof(sc.Script(**fields), profile=profile)
    if not any(record.index == step.index for record in report.steps):
        return
    draws, error = orc.draw_samples(script, 5, seed)
    assert error is None and len(draws) == 5
    if isinstance(claim, T.Eq):
        assert all(r["ok"] for r in orc.evaluate_draws(claim, draws)), claim.text()
    else:
        assert all(dg.statement_holds(inst, claim) for inst, _ in draws), claim.text()


# ---------------------------------------------------------------------------
# one mutated line: a parse error points into that line

_DECLARING = ("prop", "points", "line", "param", "flags", "construct:", "proof:", "qed",
              "segment", "rectfig", "gnomon")
_PIECES = LABELS + NUMBERS + WORDS + [
    "sq(AB)", "sq(AA)", "|AA|", "fig(CD)", "rect(A,BC)", "2*", "pi", "==", "+", ";", "[", "]",
    "s1", "h1", "R1", "VE", "1.", "claim:", "(", ",",
]


@st.composite
def mutated_lines(draw):
    """A corpus script with one statement, step or construction line changed,
    and that line's index.  Lines that declare names, and section lines, are
    left alone: a change there can surface as an error further down."""
    lines = corpusdata.read_script_text(draw(st.sampled_from(FILES))).splitlines()
    k = draw(st.sampled_from([
        k for k, line in enumerate(lines)
        if line.strip() and not line.lstrip().startswith(("#",) + _DECLARING)
    ]))
    code = lines[k].split("#", 1)[0].rstrip()
    kind = draw(st.sampled_from(["piece", "piece", "char", "drop", "squeeze"]))
    if kind == "squeeze":
        # the spaces go, all but the indent
        indent = len(code) - len(code.lstrip())
        lines[k] = code[:indent] + "".join(code[indent:].split())
        return k, lines
    tokens = code.split(" ")
    i = draw(st.integers(0, len(tokens) - 1))
    if kind == "piece":
        tokens[i] = draw(st.sampled_from(_PIECES))
    elif kind == "drop":
        del tokens[i]
    else:
        j = draw(st.integers(0, len(code) - 1))
        tokens = [code[:j] + draw(st.sampled_from(list("AZaqs019()[],;:=+*|/.- "))) + code[j + 1:]]
    lines[k] = " ".join(tokens)
    return k, lines


@settings(max_examples=150, deadline=None)
@given(mutated_lines())
def test_parse_error_on_a_mutated_line_points_into_it(case):
    k, lines = case
    try:
        sc.parse_script("\n".join(lines) + "\n")
    except ParseError as exc:
        assert exc.line == k + 1, (lines[k], str(exc))
        assert 1 <= exc.col <= len(lines[k]) + 1, (lines[k], str(exc))


@st.composite
def stray_letters(draw):
    """A corpus script with one letter of a name on a construction line
    changed to a letter that is neither a roster point nor a declared name,
    with that line's index, the letter's column and the letter.  The names
    `segment`, `rectfig` and `gnomon` declare are left alone."""
    lines = corpusdata.read_script_text(draw(st.sampled_from(FILES))).splitlines()
    taken = set()
    spots = []
    for line in lines:
        code = line.split("#", 1)[0]
        head = code.split()[:1]
        if head == ["points"] or head and head[0] in ("segment", "rectfig", "gnomon"):
            taken.update(re.findall("[A-Z]", code.split("=")[0]))
    for k in _construction_span(lines):
        code = lines[k].split("#", 1)[0]
        names = list(re.finditer("[A-Z]+", code))
        if code.split()[0] in ("segment", "rectfig"):
            continue
        if code.split()[0] == "gnomon":
            names = names[1:]
        spots += [(k, m.start() + i) for m in names for i in range(len(m.group()))]
    k, j = draw(st.sampled_from(spots))
    letter = draw(st.sampled_from(sorted(set("ABCDEFGHIJKLMNOPQRSTUVWXYZ") - taken)))
    lines[k] = lines[k][:j] + letter + lines[k][j + 1:]
    return lines, k, j + 1, letter


@settings(max_examples=100, deadline=None)
@given(stray_letters())
def test_a_construction_letter_outside_the_roster_is_a_parse_error(case):
    """Every letter a construction command reads names a roster point, or
    a declared segment or figure, so a stray one fails at parse, at its own
    column, and not when the diagram is realized."""
    lines, k, col, letter = case
    try:
        sc.parse_script("\n".join(lines) + "\n")
    except ParseError as exc:
        assert (exc.line, exc.col) == (k + 1, col), (lines[k], str(exc))
        assert f"{letter!r} not" in str(exc), (lines[k], str(exc))
    else:
        raise AssertionError(f"parsed: {lines[k]}")


# ---------------------------------------------------------------------------
# command lines: mutated argument lists

_SCRIPT = "{dir}/script.e2p"
_BAD_VALUES = {
    "--profile": ["nope", "", "DEFAULT", "bm"],
    "--samples": ["0", "-2", "five", "", "2.5"],
    "--seed": ["x", "", "2.5", "-4"],
}
_UNKNOWN = ["--bogus", "-x", "--json=1", "--profile=nope", "--samples=0", "--", "-h", "--seed"]
_MISSING = ["{dir}/missing.e2p", "{dir}", "{dir}/no/such/dir.e2p"]


def _argv(command: str, profile: str) -> list[str]:
    """A valid argument list for the command, its paths under {dir}."""
    return {
        "check": ["check", _SCRIPT, "--json", "--timing", "--emit-certs", "{dir}/certs.json",
                  "--profile", profile],
        "annotate": ["annotate", _SCRIPT, "--profile", profile, "--compare", "{dir}/golden.txt"],
        "render": ["render", _SCRIPT, "--profile", profile, "-o", "{dir}/out.svg"],
        "oracle": ["oracle", _SCRIPT, "--samples", "3", "--seed", "4", "--json"],
    }[command]


@st.composite
def mutated_argvs(draw):
    """An entry and an argument list for one command with one to three
    mutations: a token dropped, duplicated or swapped, an unknown flag put
    in, a bad `--profile`, `--samples` or `--seed` value, or a missing file.
    No number above 5 is ever in the list and `--samples` is never dropped,
    so `oracle` either draws at most 5 samples or stops at a usage error."""
    entry = draw(st.sampled_from(ENTRIES))
    argv = _argv(draw(st.sampled_from(["check", "annotate", "render", "oracle"])), entry["profile"])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "duplicate", "swap", "unknown", "value", "missing"]))
        at = draw(st.integers(0, len(argv)))
        if kind == "drop" and argv:
            i = draw(st.integers(0, len(argv) - 1))
            if argv[i] != "--samples":
                del argv[i]
        elif kind == "duplicate" and argv:
            argv.insert(at, draw(st.sampled_from(argv)))
        elif kind == "swap" and len(argv) > 1:
            i, j = draw(st.lists(st.integers(0, len(argv) - 1), min_size=2, max_size=2))
            argv[i], argv[j] = argv[j], argv[i]
        elif kind == "unknown":
            argv.insert(at, draw(st.sampled_from(_UNKNOWN)))
        elif kind == "value":
            flag = draw(st.sampled_from(sorted(_BAD_VALUES)))
            bad = draw(st.sampled_from(_BAD_VALUES[flag]))
            if flag in argv[:-1]:
                argv[argv.index(flag) + 1] = bad
            else:
                argv[at:at] = [flag, bad]
        elif kind == "missing" and _SCRIPT in argv:
            argv[argv.index(_SCRIPT)] = draw(st.sampled_from(_MISSING))
    return entry["file"], argv


@settings(max_examples=80, deadline=None)
@given(case=mutated_argvs())
def test_mutated_argument_list_exits_with_a_documented_code(tmp_path_factory, case):
    """Every command on a mutated argument list ends in exit 0, 1 or 2, and
    never in a traceback.  It runs in a fresh temporary directory, so what it
    writes stays there even when a mutation leaves a bare word after `-o` or
    `--emit-certs`."""
    file, argv = case
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "script.e2p").write_text(corpusdata.read_script_text(file), encoding="utf-8")
    (tmp / "golden.txt").write_text("red blue\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{dir}", str(tmp)) for arg in argv])
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()
