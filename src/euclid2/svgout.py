"""Deterministic SVG rendering of realized diagrams.

1 diagram unit = 100 px; element ids derive from point labels and drawing
order, and every coordinate is formatted from exact values, so the output is
byte-identical across runs.  A diagram repeats few coordinates many times
(endpoints, labels, overlay vertices), so each distinct x and y value is
formatted once per render and looked up after that.
"""

from __future__ import annotations

from . import constructible as cr
from . import diagram as dg
from . import geometry as geo
from . import script as sc
from .errors import Euclid2Error
from .terms import Eq, Fig, Multiple

SCALE = 100
PAD = cr.rational(2, 5)  # diagram units of padding


def _fmt(e: cr.Expr) -> str:
    return cr.decimal_text(e, 2)


class _View:
    def __init__(self, inst: dg.DiagramInstance):
        # the distinct x and y values by exact_key; a drawing repeats a few
        # values many times, so the extent scans each value once.  Every
        # standalone segment and built outline is drawn, and a gnomon's
        # vertices lie on its parts' drawn sides, so the points, the drawn
        # segments and the circles bound the picture.
        xs: dict = {}
        ys: dict = {}

        def see(p):
            xs.setdefault(cr.exact_key(p[0]), p[0])
            ys.setdefault(cr.exact_key(p[1]), p[1])

        for p in inst.coords.values():
            see(p)
        for a, b in inst.drawn_list:
            see(a)
            see(b)
        self.radius: dict[str, cr.Expr] = {}
        for label, circ in inst.circles.items():
            r = self.radius[label] = cr.sqrt(circ.radius2)
            see((cr.add(circ.center[0], r), cr.add(circ.center[1], r)))
            see((cr.sub(circ.center[0], r), cr.sub(circ.center[1], r)))
        if not xs:  # nothing is drawn: the picture is its padding
            see((cr.const(0), cr.const(0)))
        self.minx = min(xs.values(), key=geo.by_value)
        self.maxy = max(ys.values(), key=geo.by_value)
        self.maxx = max(xs.values(), key=geo.by_value)
        self.miny = min(ys.values(), key=geo.by_value)
        self.scale = cr.const(SCALE)
        self.width = cr.mul(
            cr.add(cr.sub(self.maxx, self.minx), cr.mul(cr.const(2), PAD)), self.scale
        )
        self.height = cr.mul(
            cr.add(cr.sub(self.maxy, self.miny), cr.mul(cr.const(2), PAD)), self.scale
        )
        # exact_key -> text
        self._x_text: dict = {}
        self._y_text: dict = {}

    def x(self, v: cr.Expr) -> str:
        key = cr.exact_key(v)
        if key not in self._x_text:
            shifted = cr.add(cr.sub(v, self.minx), PAD)
            self._x_text[key] = _fmt(cr.mul(shifted, self.scale))
        return self._x_text[key]

    def y(self, v: cr.Expr) -> str:
        key = cr.exact_key(v)
        if key not in self._y_text:
            shifted = cr.add(cr.sub(self.maxy, v), PAD)
            self._y_text[key] = _fmt(cr.mul(shifted, self.scale))
        return self._y_text[key]

    def xy(self, p) -> tuple[str, str]:
        return self.x(p[0]), self.y(p[1])


def render_svg(
    script: sc.Script,
    inst: dg.DiagramInstance,
    report: sc.CheckReport | None = None,
) -> str:
    view = _View(inst)
    width, height = _fmt(view.width), _fmt(view.height)
    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(f"  <title>{script.prop_id}</title>")
    out.append('  <g id="segments" stroke="#222222" stroke-width="1.5" fill="none">')
    for k, (a, b) in enumerate(inst.drawn_list):
        ax, ay = view.xy(a)
        bx, by = view.xy(b)
        out.append(
            f'    <line id="seg-{k}" x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" />'
        )
    out.append("  </g>")
    if inst.circles:
        out.append('  <g id="arcs" stroke="#222222" stroke-width="1.5" fill="none">')
        for label in sorted(inst.circles):
            circ = inst.circles[label]
            a, b = circ.endpoints
            pa, pb = inst.point(a), inst.point(b)
            sweep = int((geo.cmp(pa[0], pb[0]) < 0) != (circ.side == "above"))
            sx, sy = view.xy(pa)
            ex, ey = view.xy(pb)
            rr = _fmt(cr.mul(view.radius[label], view.scale))
            out.append(
                f'    <path id="arc-{label}" d="M {sx} {sy} A {rr} {rr} 0 0 {sweep} {ex} {ey}" />'
            )
        out.append("  </g>")
    ve_figures: list[str] = []
    if report is not None:
        claims = {step.index: step.claim for step in script.steps}
        for step in report.steps:
            stmt = claims[step.index]
            if step.rule == "VE" and isinstance(stmt, Eq):
                for t in stmt.lhs.terms + stmt.rhs.terms:
                    inner = t.inner if isinstance(t, Multiple) else t
                    if isinstance(inner, Fig) and inner.name.letters not in ve_figures:
                        ve_figures.append(inner.name.letters)
    if ve_figures:
        out.append(
            '  <g id="ve-figures" stroke="#aa1111" stroke-width="2.5" '
            'stroke-dasharray="6,3" fill="none">'
        )
        for letters in ve_figures:
            try:
                poly = inst.region(letters)
            except Euclid2Error:
                continue
            pts = " ".join(",".join(view.xy(p)) for p in poly)
            out.append(f'    <polygon id="ve-{letters}" points="{pts}" />')
        out.append("  </g>")
    out.append('  <g id="points" fill="#000000" font-family="serif" font-size="14">')
    for label in sorted(inst.coords):
        p = inst.coords[label]
        px, py = view.xy(p)
        out.append(f'    <circle id="pt-{label}" cx="{px}" cy="{py}" r="2.5" />')
        out.append(
            f'    <text id="lbl-{label}" x="{px}" y="{py}" dx="5" dy="-5">{label}</text>'
        )
    for name in sorted(inst.standalone):
        a, b = inst.standalone[name]
        ax, ay = view.xy(a)
        out.append(
            f'    <text id="lbl-seg-{name}" x="{ax}" y="{ay}" dx="-2" dy="-6">{name}</text>'
        )
    for name in sorted(inst.declared):
        if len(name) == 1:
            poly = inst.declared[name]
            cx = cr.div(cr.add(poly[0][0], poly[2][0]), cr.const(2))
            cy = cr.div(cr.add(poly[0][1], poly[2][1]), cr.const(2))
            out.append(
                f'    <text id="lbl-fig-{name}" x="{view.x(cx)}" y="{view.y(cy)}">{name}</text>'
            )
    out.append("  </g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
