"""Smoke test for the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Checks that a very short run of each workload, untraced and traced, emits
exactly the metrics BENCHMARK.json lists, each with its unit, and no failed
op; that one pass gives the same op count and
verdicts traced and untraced, so tracing never changes an outcome; that the
same seed gives the same inputs; and that the benchmark refuses to report
from a directory without the package.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import run
from tracing import Tracer
from workloads import ROOT, WORKLOADS, load_corpus, load_euclid2


def check(cond, what):
    if not cond:
        sys.exit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def short_runs():
    for name in WORKLOADS:
        for trace, units in (("0", run.END_TO_END_UNITS), ("1", run.PER_LAYER_UNITS)):
            proc, lines = run_bench("--workload", name, "--seed", "7", "--seconds", "0.5",
                                    "--trace", trace)
            check(proc.returncode == 0, f"{name} trace={trace} exits 0 ({proc.stderr[-300:]})")
            res = json.loads(lines[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{name} trace={trace} result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={trace} no failed op")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units, f"{name} trace={trace} emits exactly the listed metrics, with units")
            if trace == "0":
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{name} end-to-end metrics are never 0")
            check(any(line.startswith(f"{name}  failed_ratio = 0.0000") for line in lines),
                  f"{name} trace={trace} prints failed_ratio = 0")


def outcomes(m, workload, seed, traced):
    tracer = None
    if traced:
        tracer = Tracer(m)
        tracer.install()
    try:
        results, _ = run.run_passes(workload, random.Random(seed), 0, tracer, max_passes=1)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return [(r.label, r.outcome, r.error) for r in results]


def tracing_changes_nothing():
    m = load_euclid2()
    cases = load_corpus(m)
    for name, cls in WORKLOADS.items():
        workload = cls(m, cases)
        a = [label for label, _fn in workload.make_pass(random.Random(3))]
        b = [label for label, _fn in workload.make_pass(random.Random(3))]
        check(a == b, f"{name} same seed gives the same inputs")
        plain = outcomes(m, workload, 3, traced=False)
        traced = outcomes(m, workload, 3, traced=True)
        check(all(err is None for _l, _o, err in plain + traced), f"{name} one pass is correct")
        check(plain == traced, f"{name} traced and untraced: same {len(plain)} ops and verdicts")


def refuses_without_package():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc, lines = run_bench("--workload", "corpus-check", "--seconds", "1", cwd=bare)
        check(proc.returncode != 0 and not any(line.startswith("{") for line in lines),
              "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare)


def main():
    refuses_without_package()
    tracing_changes_nothing()
    short_runs()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
