"""Mutated corpus constructions: realizing and rendering them either works
or raises a typed `Euclid2Error`, never anything else."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from euclid2 import corpusdata
from euclid2 import diagram as dg
from euclid2 import script as sc
from euclid2 import svgout
from euclid2.errors import Euclid2Error

FILES = [e["file"] for e in corpusdata.all_entries()]
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
