"""Independent semantic cross-check by sampling.

The construction is realized at seeded random rational parameter draws, and
both sides of an equality are evaluated there as exact areas and lengths
(rationals, Q(sqrt r) values or tower elements) and compared exactly, by
the comparison `diagram.statement_holds` uses.  The floats in a record are
for display only.  Realizing the construction is what lets the oracle read every
statement, including those that hold only because the construction fixes a
length (the golden cut of II.11).

The oracle validates statements, never proofs.
"""

from __future__ import annotations

import random

from . import constructible as cr
from . import diagram as dg
from . import geometry as geo
from . import script as sc
from . import terms as T
from .errors import DiagramError, Euclid2Error, RealizeFailed


# Draws tried before a draw-dependent realize failure is final.
_RETRIES = 50


def _base_params(script: sc.Script) -> dict[str, cr.Expr]:
    """Each parameter's default, or 1/2 when it has none: what a draw scales."""
    return {
        n: cr.const(d) if d is not None else cr.rational(1, 2) for n, d in script.params.items()
    }


def _draw_params(base: dict[str, cr.Expr], rng: random.Random) -> dict[str, cr.Expr]:
    """Each base value times a random k/2^20 in [1/2, 3/2)."""
    return {
        name: cr.mul(b, cr.rational(rng.randrange(1 << 19, 3 << 19), 1 << 20))
        for name, b in base.items()
    }


def _realize_error(script: sc.Script, params: dict[str, cr.Expr]) -> str | None:
    try:
        dg.realize(script, params)
    except DiagramError as exc:
        return str(exc)
    return None


def sample_instance(
    script: sc.Script, rng: random.Random
) -> tuple[dg.DiagramInstance, dict[str, cr.Expr]]:
    """Realize the script at a random parameter draw, retrying failed draws.
    The first failure is final when the script fails the same way at the
    base values the draws scale (a script without parameters has only
    those), as it then does not depend on the draw."""
    base = _base_params(script)
    last = None
    for _ in range(_RETRIES):
        params = _draw_params(base, rng)
        try:
            return dg.realize(script, params), params
        except DiagramError as exc:
            if last is None and (not base or _realize_error(script, base) == str(exc)):
                raise RealizeFailed(f"realize failed: {exc}") from exc
            last = exc
    raise RealizeFailed(f"no valid parameter draw after {_RETRIES} tries: {last}")


Draw = tuple[dg.DiagramInstance, dict[str, cr.Expr]]  # as sample_instance returns


def draw_samples(
    script: sc.Script, samples: int, seed: int = 0
) -> tuple[list[Draw], Euclid2Error | None]:
    """The first `samples` draws of `Random(seed)`, each realized once by
    `sample_instance`.  Drawing stops at the first draw that fails: its
    error comes back with the draws before it, and is due once those are
    evaluated."""
    rng = random.Random(seed)
    draws = []
    for _ in range(samples):
        try:
            draws.append(sample_instance(script, rng))
        except Euclid2Error as exc:
            return draws, exc
    return draws, None


def evaluate_draws(stmt: T.Eq, draws: list[Draw]) -> list[dict]:
    """One record per draw: both sides of the equality evaluated once in
    its instance and compared exactly."""
    records = []
    for k, (inst, params) in enumerate(draws):
        lhs, rhs = dg.sum_value(inst, stmt.lhs), dg.sum_value(inst, stmt.rhs)
        (llo, lhi), (rlo, rhi) = cr.bounds(lhs, 128), cr.bounds(rhs, 128)
        records.append(
            {
                "sample": k,
                "params": {n: cr.exact_text(v) for n, v in params.items()},
                # int true division rounds each midpoint once, correctly
                "lhs": (llo + lhi) / (1 << 129),
                "rhs": (rlo + rhi) / (1 << 129),
                "ok": geo.cmp(lhs, rhs) == 0,
            }
        )
    return records


def check_numeric_detailed(
    stmt: T.Eq,
    script: sc.Script,
    samples: int = 20,
    seed: int = 0,
) -> list[dict]:
    """One record per seeded sample; the statement holds numerically when
    every record is `ok`."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    draws, error = draw_samples(script, samples, seed)
    records = evaluate_draws(stmt, draws)
    if error is not None:
        raise error
    return records
