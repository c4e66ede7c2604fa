"""Print every function in src/euclid2 that the commands never run.

    python tests/unrun.py

A profile hook is set before `euclid2` is imported.  The script then runs
`check` under each profile (as text with --timing, and as --json with
--emit-certs), `annotate`, `render` and `oracle --samples 1` over every
corpus script and every script under tests/data/.  It prints the qualified
name (`module.Class.method`) of each function defined in src/euclid2 whose
code never ran, one a line, sorted.  `tests/test_unrun.py` pins the list.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "euclid2"


def defined_functions() -> dict[tuple[str, int, str], str]:
    """{(file, first line, name): qualified name} of every def in the
    package; the first line is the first decorator's, as in `co_firstlineno`."""
    out = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(file, first, child.name)] = prefix + child.name
                walk(child, file, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, prefix + child.name + ".")
            else:
                walk(child, file, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        walk(tree, str(path), path.stem + ".")
    return out


def run_commands() -> set:
    """The code objects of every Python call made while the commands run."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    sys.setprofile(hook)
    try:
        from euclid2 import cli, corpusdata, rules

        if Path(cli.__file__).resolve().parent != PACKAGE:
            raise ImportError(f"euclid2 was imported from {cli.__file__}, not from {SRC}")
        corpus = Path(str(corpusdata.corpus_root()))
        files = [str(p) for p in sorted(corpus.glob("*.e2p")) + sorted(corpus.glob("neg/*.e2p"))]
        files += [str(p) for p in sorted((ROOT / "tests" / "data").glob("*.e2p"))]
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
            io.StringIO()
        ), contextlib.redirect_stderr(io.StringIO()):
            certs = str(Path(tmp) / "certs.json")
            for profile in rules.PROFILES:
                cli.main(["check", "--profile", profile, "--timing", *files])
                cli.main(["check", "--profile", profile, "--json", "--emit-certs", certs, *files])
            for path in files:
                cli.main(["annotate", path])
                cli.main(["render", path])
                cli.main(["oracle", "--samples", "1", path])
    finally:
        sys.setprofile(None)
    return codes


def unrun() -> list[str]:
    defined = defined_functions()
    ran = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in run_commands()}
    return sorted(name for key, name in defined.items() if key not in ran)


if __name__ == "__main__":
    for name in unrun():
        print(name)
