"""Proof-checking toolkit for the deductive calculus of Euclid's Elements
Book II: a statement language for visible and invisible figures, a rule
engine with per-step color classes, an exact-geometry backend for
diagram-based steps, and a sampling oracle that cross-checks equalities on
realized constructions.
"""

from .rules import ColorClass, Rule, check_proof, color_of
from .script import CheckReport, emit_report, format_script, parse_script
from .terms import mk_segment, stmt_equal

__all__ = [
    "CheckReport",
    "ColorClass",
    "Rule",
    "check_proof",
    "color_of",
    "emit_report",
    "format_script",
    "mk_segment",
    "parse_script",
    "stmt_equal",
]

__version__ = "0.1.0"
