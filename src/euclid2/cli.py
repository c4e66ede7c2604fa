"""Command-line interface: check, annotate, render, oracle."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import diagram as dg
from . import rules
from . import script as sc
from .errors import Euclid2Error, ParseError, UnreadableFile, UnwritableFile
from .terms import Eq

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableFile(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UnwritableFile(f"cannot write {path}: {exc}") from exc


def _load(path: str) -> sc.Script:
    return sc.parse_script(_read(path))


def _cmd_check(args) -> int:
    code = EXIT_OK
    certificates: dict[str, list[dict]] = {}
    for path in sorted(args.files):
        try:
            script = _load(path)
        except (ParseError, UnreadableFile) as exc:
            # under --json, stdout holds only the reports
            kind = "read" if isinstance(exc, UnreadableFile) else "parse"
            (sys.stderr if args.json else sys.stdout).write(f"{path}: {kind} error: {exc}\n")
            code = max(code, EXIT_USAGE)
            continue
        report = rules.check_proof(script, profile=args.profile)
        sys.stdout.write(
            sc.emit_report(report, "json" if args.json else "text", timing=args.timing)
        )
        if args.emit_certs:  # kept to the end of the run only when written
            certificates[path] = report.certificates
        if not report.accepted:
            code = max(code, EXIT_REJECTED)
    if args.emit_certs:
        _write(args.emit_certs, json.dumps(certificates, indent=2, sort_keys=True) + "\n")
    return code


def _cmd_annotate(args) -> int:
    report = rules.check_proof(_load(args.file), profile=args.profile)
    for step in report.steps:
        sys.stdout.write(f"{step.index:>3}. [{step.color:<7}] {step.statement} ; {step.rule}\n")
    if not report.accepted:
        sys.stdout.write(
            f"rejected at step {report.reject_step}: {report.reject_cause}\n"
        )
        return EXIT_REJECTED
    if args.compare:
        golden = _read(args.compare).split()
        got = report.colors()
        if golden != got:
            sys.stdout.write(
                "color mismatch:\n  expected: " + " ".join(golden)
                + "\n  got:      " + " ".join(got) + "\n"
            )
            return EXIT_REJECTED
        sys.stdout.write("colors match\n")
    return EXIT_OK


def _cmd_render(args) -> int:
    from . import svgout  # only render needs it

    script = _load(args.file)
    try:
        inst = dg.realize(script)
    except Euclid2Error as exc:
        sys.stderr.write(f"realize failed: {exc}\n")
        return EXIT_REJECTED
    report = rules.check_proof(script, instance=inst, profile=args.profile)
    svg = svgout.render_svg(script, inst, report)
    if args.output:
        _write(args.output, svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from . import oracle as orc  # only oracle needs it

    script = _load(args.file)
    targets: list[tuple[str, Eq]] = [("diorismos", script.diorismos)]
    for step in script.steps:
        if isinstance(step.claim, Eq):
            targets.append((f"step {step.index}", step.claim))
    # every target reads the same draws, realized once
    draws, draw_error = orc.draw_samples(script, args.samples, args.seed)
    all_ok = True
    records_out = []
    for label, stmt in targets:
        try:
            records = orc.evaluate_draws(stmt, draws)
            if draw_error is not None:
                raise draw_error
        except Euclid2Error as exc:
            sys.stderr.write(f"{label}: oracle error: {exc}\n")
            return EXIT_REJECTED
        ok = all(r["ok"] for r in records)
        all_ok = all_ok and ok
        if args.json:
            records_out.append({"target": label, "ok": ok, "samples": records})
        else:
            sys.stdout.write(f"{label}: {'ok' if ok else 'FAILED'} ({len(records)} samples)\n")
    if args.json:
        sys.stdout.write(json.dumps(records_out, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all_ok else EXIT_REJECTED


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="euclid2",
        description="Proof checker for the Book II deductive calculus",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--profile", choices=tuple(rules.PROFILES), default="default")

    p = sub.add_parser("check", help="check proof scripts", parents=[profile])
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--emit-certs", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "annotate", help="print the proof with color classes", parents=[profile]
    )
    p.add_argument("file")
    p.add_argument("--compare", metavar="GOLDEN", default=None)
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser(
        "render", help="render the realized diagram as SVG", parents=[profile]
    )
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("oracle", help="cross-check equality claims numerically")
    p.add_argument("file")
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Euclid2Error as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
