"""One-command benchmark for euclid2.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see perfbench/NOTES.md for why each one exists):

    corpus-check   in-process parse -> realize -> check -> JSON report -> SVG
    oracle-sample  one numeric oracle sample per op
    cli-cold       one cold `python -m euclid2.cli check --json --timing` per op

Every op runs in a closed loop with one client, in whole passes until
`--seconds` have gone by, and every output is checked against
`expected.json`.  `--trace 0` reports the end-to-end metrics; `--trace 1`
first runs untraced for a third of the time, then rebinds the package's
public functions (perfbench/tracing.py) and reports the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`; a
summary with metadata (and, traced, the spans) goes to `.bench_out/`.
The exit code is 0 only when every op was correct.

The metric names and units, and the default run length, are read from
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from calibrate import NOMINAL_S, SpeedMeter
from tracing import Tracer
from workloads import ROOT, SRC, WORKLOADS, OpResult, cli_env, load_corpus, load_euclid2

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_REPEATS = 11
RSS_PASSES = 3
OUT_DIR = ROOT / ".bench_out"

# The per-workload names of the generic metrics, as the output prints them.
ALIASES = {
    "corpus-check": {"op_ms_p50": "check_ms_p50", "op_ms_p90": "check_ms_p90",
                     "throughput_per_s": "scripts_per_s"},
    "oracle-sample": {"op_ms_p50": "oracle_sample_ms_p50", "op_ms_p90": "oracle_sample_ms_p90",
                      "throughput_per_s": "oracle_samples_per_s"},
    "cli-cold": {"op_ms_p50": "cli_wall_ms_p50", "op_ms_p90": "cli_wall_ms_p90",
                 "throughput_per_s": "scripts_per_s"},
}


# ---------------------------------------------------------------------------
# running


def run_op(label, fn) -> OpResult:
    t0 = perf_counter()
    try:
        r = fn()
    except Exception as exc:  # the op failed; count it and go on
        r = OpResult("", perf_counter() - t0, "raised", f"{type(exc).__name__}: {exc}")
    r.label = label
    r.t_start = t0
    return r


def warm_up(workload, seed) -> list[OpResult]:
    ops = workload.make_pass(random.Random(f"warmup-{seed}"))[: workload.warmup_ops]
    return [run_op(label, fn) for label, fn in ops]


def run_passes(workload, rng, seconds, tracer=None, max_passes=None, meter=None,
               after_pass=None):
    """Whole passes until `seconds` have gone by (at least one, at most
    `max_passes`).  Returns the op results and the program time per pass.
    A `meter` samples machine speed between ops; `after_pass(n)` is called
    when n passes are done."""
    results: list[OpResult] = []
    pass_seconds: list[float] = []
    t_start = perf_counter()
    while (max_passes is None or len(pass_seconds) < max_passes) and (
        not pass_seconds or perf_counter() - t_start < seconds
    ):
        spent = 0.0
        for label, fn in workload.make_pass(rng):
            if tracer is not None:
                tracer.op = len(results)
                fn = tracer.span("bench.op", fn)
            r = run_op(label, fn)
            results.append(r)
            spent += r.seconds
            if meter is not None:
                meter.tick()
        pass_seconds.append(spent)
        if after_pass is not None:
            after_pass(len(pass_seconds))
    return results, pass_seconds


def child_numbers(code: str, env=None) -> list[float]:
    """Run `python -c code` in the checkout; the child prints numbers."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return [float(x) for x in proc.stdout.split()]


# The child times its own import and corpus load, then the reference task,
# so that its setup time can be expressed at reference speed.
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, 'perfbench')\n"
    "import workloads\n"
    "workloads.load_corpus(workloads.load_euclid2())\n"
    "setup = time.perf_counter() - t\n"
    "import calibrate\n"
    "print(setup, calibrate.reference_median())\n"
)
IMPORT_CLI_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import euclid2.cli\n"
    "print(time.perf_counter() - t)\n"
)


def setup_seconds() -> tuple[float, float]:
    """(raw, at reference speed): medians over SETUP_REPEATS fresh interpreters."""
    runs = [child_numbers(SETUP_CODE) for _ in range(SETUP_REPEATS)]
    return (statistics.median(s for s, _ in runs),
            statistics.median(s * NOMINAL_S / ref for s, ref in runs))


def latency_stats(results, ms):
    """p50 is the median over op labels (scripts, oracle targets) of each
    label's median: corpus-check is a fixed mix of 28 scripts, and the pooled
    median falls between clusters of scripts, where it moves with the shape
    of the timing noise rather than with the program.  p90 is pooled over
    every op."""
    lat = sorted(ms)
    by_label: dict[str, list[float]] = {}
    for r, x in zip(results, ms):
        by_label.setdefault(r.label, []).append(x)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "n": len(lat),
        "labels": len(by_label),
        "p50": statistics.median(statistics.median(v) for v in by_label.values()),
        "pooled_p50": statistics.median(lat),
        "p90": p90,
        "beyond_p90": sum(x > p90 for x in lat),
    }


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def stage_medians(results):
    """Median seconds of each stage per op label, over the ops that passed
    the check (an op that raised has no stages)."""
    by_label: dict[str, dict[str, list]] = {}
    for r in results:
        if r.error is not None:
            continue
        for stage, s in r.stages.items():
            by_label.setdefault(r.label, {}).setdefault(stage, []).append(s)
    return {lab: {st: statistics.median(v) for st, v in d.items()} for lab, d in by_label.items()}


def metadata(args, workload_name) -> dict:
    return {
        "workload": workload_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "euclid2").rglob("*.py"))
        ),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, name, workload):
    setup_raw, setup_s = setup_seconds()
    meter = SpeedMeter() if workload.in_process else None
    rss = []  # peak RSS after a fixed amount of work, not after whatever 30 s allowed

    def after_pass(n):
        if n == RSS_PASSES:
            rss.append(peak_rss_mb(workload))

    results, passes = run_passes(workload, random.Random(args.seed), args.seconds,
                                 meter=meter, after_pass=after_pass)
    raw_ms = [r.seconds * 1000 for r in results]
    # In-process op times are reported at reference machine speed (calibrate.py).
    ms = raw_ms if meter is None else [
        x * meter.factor_at(r.t_start + r.seconds / 2) for r, x in zip(results, raw_ms)
    ]
    raw_st, st = latency_stats(results, raw_ms), latency_stats(results, ms)
    per_s = workload.units_per_op * len(results) * 1000
    values = {
        "setup_s": setup_s,
        "op_ms_p50": st["p50"],
        "op_ms_p90": st["p90"],
        "throughput_per_s": per_s / sum(ms),
        "peak_rss_mb": rss[0] if rss else peak_rss_mb(workload),
    }
    raw = {
        "setup_s": setup_raw,
        "op_ms_p50": raw_st["p50"],
        "op_ms_p90": raw_st["p90"],
        "throughput_per_s": per_s / sum(raw_ms),
    }
    extra = {
        "latency": st,
        "passes": len(passes),
        "raw": raw,
        "speed": {"factor": meter.factor() if meter else 1.0,
                  "reference_samples": len(meter.samples) if meter else 0},
    }
    if name == "corpus-check":
        stages = {
            lab: {k: v * 1000 for k, v in d.items()} for lab, d in stage_medians(results).items()
        }
        positives = [f"{c.file}@{c.profile}" for c in workload.cases
                     if c.expect["verdict"] == "accepted"]
        extra["stages_ms"] = stages
        if all(lab in stages for lab in positives):
            extra["positive_totals_ms"] = {
                k: sum(stages[lab][k] for lab in positives) for k in ("parse", "realize", "check")
            }
            extra["positive_totals_ms"]["scripts"] = len(positives)
    return results, values, extra


def traced(m, args, name, workload):
    rng = random.Random(args.seed)
    t0 = perf_counter()
    plain, plain_passes = run_passes(workload, rng, args.seconds / 3)
    tracer = Tracer(m)
    tracer.install()
    try:
        results, passes = run_passes(
            workload, rng, max(0.0, args.seconds - (perf_counter() - t0)), tracer
        )
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics(len(passes), len(m.cr.Expr._table))
    values["trace.overhead_pct"] = (
        statistics.mean(passes) / statistics.mean(plain_passes) - 1
    ) * 100
    every = plain + results
    cli = {"cli.import_ms": 0.0, "cli.check_timing_ms": 0.0, "cli.overhead_ms": 0.0}
    if name == "cli-cold":
        good = [r for r in every if r.error is None]  # an op that raised has no report timing
        report_ms = [r.stages["report_timing"] * 1000 for r in good]
        cli["cli.import_ms"] = statistics.median(
            child_numbers(IMPORT_CLI_CODE, cli_env())[0] for _ in range(SETUP_REPEATS)
        ) * 1000
        if good:
            cli["cli.check_timing_ms"] = statistics.mean(report_ms)
            cli["cli.overhead_ms"] = statistics.mean(
                r.seconds * 1000 - ms for r, ms in zip(good, report_ms)
            )
    values.update(cli)
    OUT_DIR.mkdir(exist_ok=True)
    labels = {i: r.label for i, r in enumerate(results)}
    tracer.write_spans(OUT_DIR / f"{name}-seed{args.seed}-spans.jsonl", labels)
    extra = {
        "untraced_passes": len(plain_passes),
        "traced_passes": len(passes),
        "span_totals_ms": {
            k: {"calls": c, "inclusive_ms": inc * 1000, "self_ms": self_ * 1000, "raised": bad}
            for k, (c, inc, self_, bad) in sorted(tracer.span_totals().items())
        },
        "per_op": tracer.per_label(labels),
    }
    return every, values, extra


# ---------------------------------------------------------------------------
# reporting


def print_end_to_end(name, values, extra):
    alias = ALIASES[name]
    units = END_TO_END_UNITS
    st = extra["latency"]
    for key, value in values.items():
        shown = alias.get(key, key)
        note = ""
        if key in ("op_ms_p50", "op_ms_p90"):
            note = f"  (n={st['n']} over {st['labels']} labels"
            if key == "op_ms_p90":
                note += f", {st['beyond_p90']} beyond"
                if st["beyond_p90"] < 10:
                    note += "; fewer than 10 beyond, read as indicative"
            note += ")"
        if key in extra["raw"]:
            note += f"  [raw {extra['raw'][key]:.4f}]"
        print(f"{name}  {shown} = {value:.4f} {units[key]}{note}")
    sp = extra["speed"]
    if sp["reference_samples"]:
        print(f"{name}  speed factor {sp['factor']:.4f} over the run ({sp['reference_samples']} "
              f"reference samples; each op is scaled by the samples near it)")
    else:
        print(f"{name}  op times are raw: the work runs in child processes")
    if "positive_totals_ms" in extra:
        tot = extra["positive_totals_ms"]
        print(f"{name}  {tot['scripts']} positive scripts, sum of raw per-script medians: "
              f"parse {tot['parse']:.1f} ms, realize {tot['realize']:.1f} ms, "
              f"check {tot['check']:.1f} ms")
    ii8 = extra.get("stages_ms", {}).get("II_8.e2p@default")
    if ii8:
        print(f"{name}  II.8 check median {ii8['check']:.1f} ms")


def print_per_layer(name, values, extra):
    units = PER_LAYER_UNITS
    for key, value in values.items():
        print(f"{name}  {key} = {value:.4f} {units[key]}")
    ii8 = extra["per_op"].get("II_8.e2p@default")
    if ii8:
        get = lambda k: ii8.get(k, {"calls": 0, "ms": 0.0})  # noqa: E731
        print(
            f"{name}  II.8 traced: check {get('rules.check_proof')['ms']:.1f} ms, "
            f"VE {get('rules.VE')['ms']:.1f} ms over {get('rules.VE')['calls']:g} steps, "
            f"MERGE {get('rules.MERGE')['ms']:.1f} ms over {get('rules.MERGE')['calls']:g} step "
            f"({get('geometry.overlap')['calls']:g} overlap tests)"
        )


def run_one(m, args, name, cases):
    workload = WORKLOADS[name](m, cases)
    warm = warm_up(workload, args.seed)
    if args.trace:
        results, values, extra = traced(m, args, name, workload)
    else:
        results, values, extra = end_to_end(args, name, workload)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    results = warm + results
    failed = [r for r in results if r.error is not None]
    for r in failed[:5]:
        print(f"{name}  FAILED {r.label}: {r.error}", file=sys.stderr)
    ratio = len(failed) / len(results)
    if args.trace:
        print_per_layer(name, values, extra)
    else:
        print_end_to_end(name, values, extra)
    print(f"{name}  failed_ratio = {ratio:.4f} ratio ({len(failed)} of {len(results)} ops)")
    meta = metadata(args, name)
    print(f"{name}  meta {json.dumps(meta, sort_keys=True)}")
    summary = {
        "meta": meta,
        "attempted": len(results),
        "failed": len(failed),
        "failed_ratio": ratio,
        "failures": [{"label": r.label, "error": r.error} for r in failed[:20]],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "aliases": ALIASES[name],
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(results), len(failed), {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        m = load_euclid2()
    except ImportError as exc:
        print(f"cannot import euclid2 from {SRC}: {exc}", file=sys.stderr)
        return 2
    cases = load_corpus(m)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, mets = run_one(m, args, name, cases)
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = mets
        else:
            metrics.update({f"{name}/{k}": v for k, v in mets.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
