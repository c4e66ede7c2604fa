"""Access to the checked-in proof-script corpus and its expectations."""

from __future__ import annotations

import json
from importlib import resources


def corpus_root():
    return resources.files("euclid2") / "corpus"


def read_script_text(name: str) -> str:
    return (corpus_root() / name).read_text(encoding="utf-8")


def expected() -> dict:
    return json.loads((corpus_root() / "expected.json").read_text(encoding="utf-8"))


def report_schema() -> dict:
    path = resources.files("euclid2") / "schemas" / "report.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))
