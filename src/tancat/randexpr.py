"""Random tame expression DAGs for property checks.

"Tame" means: every intermediate stays bounded on the sampling box, all
partial primitives are applied well inside their domains (shifted
squares under ``log``/``sqrt``/division), and coefficients are kept
small so finite-difference derivative checks are well conditioned.  A
conservative magnitude bound is tracked per node and recipes that would
blow past it fall back to a bounded one.
"""

from __future__ import annotations

import numpy as np

from .expr import Expr, ExprBuilder, cos, exp, log, sin, sqrt

_BOUND_CAP = 30.0
_INPUT_BOUND = 1.5   # magnitude bound assumed for every input


def random_expr(rng: np.random.Generator, n_in: int, n_out: int,
                depth: int = 6) -> Expr:
    """Draw a random smooth program ``R^n_in -> R^n_out``."""
    b = ExprBuilder(n_in)
    pool: list[tuple] = [(b.input(i), _INPUT_BOUND) for i in range(n_in)]
    for _ in range(2):
        c = float(rng.uniform(-1.0, 1.0))
        pool.append((b.const(c), abs(c)))

    def pick():
        return pool[int(rng.integers(len(pool)))]

    def step():
        (a, ba), (bb_h, bb) = pick(), pick()
        kind = int(rng.integers(8))
        if kind == 0:
            c1, c2, c0 = rng.uniform(-1.2, 1.2, size=3)
            return (float(c1) * a + float(c2) * bb_h + float(c0),
                    abs(c1) * ba + abs(c2) * bb + abs(c0))
        if kind == 1:
            return ((0.5 * a) * (0.5 * bb_h), 0.25 * ba * bb)
        if kind == 2:
            c = float(rng.uniform(-1.2, 1.2))
            p = float(rng.uniform(-1.0, 1.0))
            h = sin(c * a + p) if rng.integers(2) else cos(c * a + p)
            return (h, 1.0)
        if kind == 3:
            c = float(rng.uniform(0.2, 1.0))
            if c * ba > 1.5:
                c = 1.5 / ba
            return (exp(c * a), float(np.exp(1.5)))
        if kind == 4:
            k = int(rng.integers(2, 4))
            c = float(rng.uniform(0.3, 1.0))
            if (c * ba) ** k > 8.0:
                c = 8.0 ** (1.0 / k) / ba
            return ((c * a) ** k, (c * ba) ** k)
        if kind == 5:
            shift = float(rng.uniform(1.0, 2.0))
            c = float(rng.uniform(0.3, 1.0))
            return (1.0 / (shift + (c * a) ** 2), 1.0 / shift)
        if kind == 6:
            shift = float(rng.uniform(1.0, 2.0))
            c = float(rng.uniform(0.3, 1.0))
            return (log(shift + (c * a) ** 2), abs(np.log(shift + (c * ba) ** 2)) + 1.0)
        shift = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.3, 1.0))
        return (sqrt(shift + (c * a) ** 2), float(np.sqrt(shift + (c * ba) ** 2)))

    for _ in range(depth):
        for _ in range(2):
            h, bound = step()
            if bound > _BOUND_CAP:
                (a, ba) = pick()
                c = float(rng.uniform(-1.0, 1.0))
                h, bound = sin(c * a), 1.0
            pool.append((h, bound))

    outs = []
    for _ in range(n_out):
        # bias outputs toward the most recently built (deepest) nodes
        j = len(pool) - 1 - int(rng.integers(min(len(pool), 2 * depth) or 1))
        outs.append(pool[j][0])
    return b.finish(outs)
