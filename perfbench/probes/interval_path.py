"""Show the one known input that reaches the interval sign path.

    python3 perfbench/probes/interval_path.py

Realizes probes/II_14_chained.e2p under the benchmark's tracer and prints
the sign queries by path, the largest interval precision asked for, and
how realize ends.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tracing import SIGN_PATHS, Tracer  # noqa: E402
from workloads import load_euclid2  # noqa: E402


def main() -> int:
    m = load_euclid2()
    text = (Path(__file__).parent / "II_14_chained.e2p").read_text(encoding="utf-8")
    script = m.sc.parse_script(text)
    tracer = Tracer(m)
    tracer.install()
    t0 = perf_counter()
    try:
        m.dg.realize(script)
        outcome = "realized"
    except m.errors.Euclid2Error as exc:
        cause = exc.__cause__
        outcome = f"{type(exc).__name__}: {exc}"
        if cause is not None:
            outcome += f" (from {type(cause).__name__})"
    finally:
        tracer.uninstall()
    print(f"realize: {outcome} after {perf_counter() - t0:.2f} s")
    for path in SIGN_PATHS:
        print(f"sign_calls.{path} = {tracer.counts['sign.' + path]}")
    print(f"max_interval_bits = {tracer.max_interval_bits}")
    print(f"undecidable = {tracer.counts['undecidable']}")
    print(f"budget = {m.cr.max_bits_budget()} bits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
