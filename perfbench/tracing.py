"""In-memory tracing of euclid2 by rebinding its public functions.

Nothing here edits the package: `Tracer.install()` replaces module
attributes (and the rule engine's handler table) with wrappers and
`Tracer.uninstall()` puts the originals back.  Every caller inside euclid2
reaches these functions through a module attribute (`geo.coverage_equal`,
`cr.add`, ...) or a module global, so a rebinding is seen everywhere.

Two kinds of wrapper:

* spans, for coarse layer boundaries: name, start, end, parent span and
  op id, kept in a list and written out when the run ends;
* counters with busy time, for calls too frequent to keep a span each
  (exact arithmetic, sign queries, point location).

Self time of a span is its duration minus the time its direct children
cover.  Busy time of a counter is not subtracted from the enclosing span.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# Rules that the corpus cites; SYM has no handler and is in no profile.
RULES = (
    "VE", "MERGE", "NAME", "I43", "I47", "DOUBLE",
    "CN1", "CN2", "CN3", "R1", "R2", "R3", "R4", "BM",
)
ARITH = ("add", "sub", "mul", "div", "sqrt")
SIGN_PATHS = ("rational", "quad", "interval")


class Tracer:
    def __init__(self, modules):
        self.m = modules  # namespace with cr, geo, dg, rules, sc, svgout, orc, errors
        # span: [name, start, end, parent index or None, op id, ok]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.max_interval_bits = 0
        self._in_sign = False
        self._interval_depth = 0
        self._patches: list[tuple[object, object, object]] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        """`fn` wrapped to record one span per call."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else None, self.op, False]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                rec[5] = True
                return result
            finally:
                stack.pop()
                rec[2] = perf_counter()
                if rec[5] and on_result is not None:
                    on_result(result)

        return wrapper

    def _timed(self, name, fn):
        counts, busy = self.counts, self.busy

        def wrapper(*args, **kwargs):
            counts[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += perf_counter() - t0

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sign(self, fn):
        counts, busy = self.counts, self.busy
        undecidable = self.m.errors.Undecidable

        def wrapper(x, *args, **kwargs):
            path = "rational" if x.rat is not None else "quad" if x.quad is not None else "interval"
            counts["sign." + path] += 1
            self._in_sign = path == "interval"
            t0 = perf_counter()
            try:
                return fn(x, *args, **kwargs)
            except undecidable:
                counts["undecidable"] += 1
                raise
            finally:
                busy["sign." + path] += perf_counter() - t0
                self._in_sign = False

        return wrapper

    def _interval(self, fn):
        # Records the precision refine_sign asks of its operand; the
        # recursive requests of sub-expressions run at depth > 0.
        def wrapper(node, bits):
            if self._in_sign and self._interval_depth == 0:
                self.max_interval_bits = max(self.max_interval_bits, bits)
            self._interval_depth += 1
            try:
                return fn(node, bits)
            finally:
                self._interval_depth -= 1

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = wrapper(original)
        else:
            setattr(owner, attr, wrapper(original))

    def install(self):
        m = self.m
        span = lambda name, **kw: (lambda fn: self.span(name, fn, **kw))  # noqa: E731
        counts = self.counts

        def facts(inst):
            counts["construction_facts"] += len(inst.facts)

        def svg_bytes(svg):
            counts["svg_bytes"] += len(svg.encode("utf-8"))

        self._patch(m.sc, "parse_script", span("script.parse"))
        self._patch(m.sc, "emit_report", span("script.emit"))
        self._patch(m.dg, "realize", span("diagram.realize", on_result=facts))
        self._patch(m.rules, "check_proof", span("rules.check_proof"))
        self._patch(m.rules, "_resolve_premises", span("rules.premises"))
        for rule in m.rules._HANDLERS:
            self._patch(m.rules._HANDLERS, rule, span("rules." + rule.value))
        self._patch(m.geo, "coverage_equal", span("geometry.coverage"))
        self._patch(m.geo, "polys_overlap", span("geometry.overlap"))
        self._patch(m.geo, "point_in_polygon", lambda fn: self._counted("point_in_polygon", fn))
        self._patch(m.svgout, "render_svg", span("svgout.render", on_result=svg_bytes))
        self._patch(m.orc, "check_numeric_detailed", span("oracle.check_numeric_detailed"))
        self._patch(m.orc, "sample_instance", span("oracle.sample_instance"))
        for name in ARITH:
            self._patch(m.cr, name, lambda fn, key="arith." + name: self._timed(key, fn))
        self._patch(m.cr, "refine_sign", self._sign)
        self._patch(m.cr.Expr, "interval", self._interval)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def span_totals(self):
        """{name: [calls, inclusive s, self s, raised]} with nested same-name
        spans counted once in the inclusive time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _ok in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, start, end, parent, _op, ok) in enumerate(self.spans):
            t = totals.setdefault(name, [0, 0.0, 0.0, 0])
            t[0] += 1
            if not self._has_ancestor_named(parent, name):
                t[1] += end - start
            t[2] += (end - start) - child_time[i]
            t[3] += not ok
        return totals

    def _has_ancestor_named(self, parent, name):
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def oracle_realize_attempts(self):
        """(attempts, successes) of realize calls made by sample_instance."""
        attempts = ok = 0
        for name, _s, _e, parent, _op, good in self.spans:
            if name == "diagram.realize" and parent is not None \
                    and self.spans[parent][0] == "oracle.sample_instance":
                attempts += 1
                ok += good
        return attempts, ok

    def layer_metrics(self, passes: int, intern_nodes: int) -> dict[str, float]:
        """Per-layer metrics, counts and times per pass."""
        totals = self.span_totals()

        def calls(name):
            return totals.get(name, [0])[0] / passes

        def ms(name):
            return totals.get(name, [0, 0.0])[1] * 1000 / passes

        out = {
            "geometry.coverage_calls": calls("geometry.coverage"),
            "geometry.coverage_ms": ms("geometry.coverage"),
            "geometry.overlap_calls": calls("geometry.overlap"),
            "geometry.overlap_ms": ms("geometry.overlap"),
            "geometry.point_in_polygon_calls": self.counts["point_in_polygon"] / passes,
        }
        for rule in RULES:
            out[f"rules.{rule}.calls"] = calls("rules." + rule)
            out[f"rules.{rule}.ms"] = ms("rules." + rule)
        for path in SIGN_PATHS:
            out[f"constructible.sign_calls.{path}"] = self.counts["sign." + path] / passes
            out[f"constructible.sign_ms.{path}"] = self.busy["sign." + path] * 1000 / passes
        attempts, useful = self.oracle_realize_attempts()
        out.update({
            "constructible.max_interval_bits": self.max_interval_bits,
            "constructible.undecidable": self.counts["undecidable"] / passes,
            "constructible.arith_calls": sum(self.counts["arith." + a] for a in ARITH) / passes,
            "constructible.arith_ms": sum(self.busy["arith." + a] for a in ARITH) * 1000 / passes,
            "constructible.intern_nodes": intern_nodes,
            "diagram.realize_calls": calls("diagram.realize"),
            "diagram.realize_ms": ms("diagram.realize"),
            "diagram.realize_failed": totals.get("diagram.realize", [0, 0, 0, 0])[3] / passes,
            "diagram.construction_facts": self.counts["construction_facts"] / passes,
            "oracle.sample_calls": calls("oracle.sample_instance"),
            "oracle.realize_attempts": attempts / passes,
            "oracle.realize_useful_ratio": useful / attempts if attempts else 0.0,
            "script.parse_ms": ms("script.parse"),
            "script.emit_ms": ms("script.emit"),
            "svgout.render_calls": calls("svgout.render"),
            "svgout.render_ms": ms("svgout.render"),
            "svgout.bytes": self.counts["svg_bytes"] / passes,
        })
        return out

    def per_label(self, labels: dict) -> dict:
        """Per op label: median over that label's ops of each span name's
        calls and inclusive ms."""
        per_op: dict[int, dict[str, list]] = {}
        for name, start, end, parent, op, _ok in self.spans:
            if op is None or self._has_ancestor_named(parent, name):
                continue
            cell = per_op.setdefault(op, {}).setdefault(name, [0, 0.0])
            cell[0] += 1
            cell[1] += (end - start) * 1000
        by_label: dict[str, dict[str, list]] = {}
        for op, names in per_op.items():
            for name, cell in names.items():
                by_label.setdefault(labels[op], {}).setdefault(name, []).append(cell)
        return {
            lab: {
                name: {"calls": statistics.median(c[0] for c in cells),
                       "ms": statistics.median(c[1] for c in cells)}
                for name, cells in sorted(d.items())
            }
            for lab, d in sorted(by_label.items())
        }

    def write_spans(self, path, op_labels: dict):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, ok) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "label": op_labels.get(op), "ok": ok,
                }) + "\n")
