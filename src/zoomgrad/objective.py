"""Node cost functions: strongly convex quadratics with exact-rational math.

Each node i owns f_i(x) = beta_i/2 * (x - x0_i)^2, so the network objective
(1/n) * sum f_i is minimized at the curvature-weighted mean of the x0_i.
For this family the strong-convexity and gradient-Lipschitz constants of the
summed objective coincide: mu = L = sum(beta_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rng import PCG32, STREAM_COSTS

__all__ = ["QuadraticCost", "CostSuite", "random_cost_suite"]


@dataclass(frozen=True)
class QuadraticCost:
    beta: Fraction  # curvature, > 0
    x0: Fraction  # local minimizer

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def grad(self, x: Fraction) -> Fraction:
        return self.beta * (x - self.x0)


class CostSuite:
    """The n per-node costs of one experiment instance."""

    def __init__(self, costs):
        self.costs = tuple(costs)
        if not self.costs:
            raise ValueError("need at least one cost")

    def __len__(self):
        return len(self.costs)

    def __iter__(self):
        return iter(self.costs)

    @cached_property
    def global_optimum(self) -> Fraction:
        """argmin of sum f_i: curvature-weighted mean of the x0_i (exact).

        Both sums run in integers over the common denominator ``d`` of every
        ``beta_i * x0_i``; one ``Fraction`` is built at the end.
        """
        parts = [(c.beta.numerator, c.beta.denominator, c.x0.numerator, c.x0.denominator) for c in self.costs]
        d = math.lcm(*(bd * xd for _, bd, _, xd in parts))
        weighted = sum(bn * xn * (d // (bd * xd)) for bn, bd, xn, xd in parts)
        curvature = sum(bn * (d // bd) for bn, bd, _, _ in parts)
        return Fraction(weighted, curvature)


def random_cost_suite(
    n: int,
    seed: int,
    value_set=(1, 2, 3, 4, 5),
    shared_x0: bool = False,
) -> CostSuite:
    """Draw beta_i and x0_i uniformly from ``value_set``.

    Draw order is part of the determinism contract: with per-node optima the
    stream is beta_0, x0_0, beta_1, x0_1, ...; with ``shared_x0`` the common
    x0 is drawn first, then the betas.
    """
    rng = PCG32(seed, STREAM_COSTS)
    values = [Fraction(v) for v in value_set]
    if shared_x0:
        x0 = values[rng.randbelow(len(values))]
        return CostSuite(
            QuadraticCost(values[rng.randbelow(len(values))], x0) for _ in range(n)
        )
    out = []
    for _ in range(n):
        beta = values[rng.randbelow(len(values))]
        x0 = values[rng.randbelow(len(values))]
        out.append(QuadraticCost(beta, x0))
    return CostSuite(out)
