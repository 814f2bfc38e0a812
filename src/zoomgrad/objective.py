"""Node cost functions: strongly convex quadratics with exact-rational math.

Each node i owns f_i(x) = beta_i/2 * (x - x0_i)^2, so the network objective
(1/n) * sum f_i is minimized at the curvature-weighted mean of the x0_i.
For this family the strong-convexity and gradient-Lipschitz constants of the
summed objective coincide: mu = L = sum(beta_i).

A suite is a class table, ``CostSuite(classes, node_class)``: its distinct
costs (beta, x0), one ``QuadraticCost`` each, and every node's index into
them.  A random suite draws from a value set of v values, so it has at most
v**2 classes however many nodes it has; the optimum here and the
optimizer's cost-class table (``optimizer.cost_classes``) work once per
class, and no per-node cost is built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .graph import randbelow_each
from .rng import PCG32, STREAM_COSTS

__all__ = ["QuadraticCost", "CostSuite", "random_cost_suite"]


@dataclass(frozen=True)
class QuadraticCost:
    beta: Fraction  # curvature, > 0
    x0: Fraction  # local minimizer

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")


class CostSuite:
    """The n per-node costs of one experiment instance, as a class table.

    ``classes`` holds each distinct cost once, in order of first appearance,
    and ``node_class`` the index into ``classes`` of every node's cost.
    ``random_cost_suite`` and ``runner.build_costs`` group the costs.
    """

    def __init__(self, classes: tuple, node_class: tuple):
        if not classes:
            raise ValueError("need at least one cost")
        self.classes = classes
        self.node_class = node_class

    @cached_property
    def global_optimum(self) -> Fraction:
        """argmin of sum f_i: curvature-weighted mean of the x0_i (exact).

        Both sums run once per class, weighted by its node count, in
        integers over the common denominator ``d`` of every
        ``beta_c * x0_c``; one ``Fraction`` is built at the end.
        """
        counts = Counter(self.node_class)
        parts = [
            (counts[i], c.beta.numerator, c.beta.denominator, c.x0.numerator, c.x0.denominator)
            for i, c in enumerate(self.classes)
        ]
        d = math.lcm(*(bd * xd for _, _, bd, _, xd in parts))
        weighted = sum(k * bn * xn * (d // (bd * xd)) for k, bn, bd, xn, xd in parts)
        curvature = sum(k * bn * (d // bd) for k, bn, bd, _, _ in parts)
        return Fraction(weighted, curvature)


def random_cost_suite(n: int, seed: int, value_set, shared_x0: bool) -> CostSuite:
    """Draw beta_i and x0_i uniformly from ``value_set``.

    Draw order is part of the determinism contract: with per-node optima the
    stream is beta_0, x0_0, beta_1, x0_1, ...; with ``shared_x0`` the common
    x0 is drawn first, then the betas.  The draws are taken in one
    ``randbelow_each`` call and the class table is built from them: node i's
    class is the pair of value positions it drew, each position mapped to the
    first one holding an equal value, so the classes are distinct.
    """
    rng = PCG32(seed, STREAM_COSTS)
    values = [Fraction(v) for v in value_set]
    v = len(values)
    first = [values.index(x) for x in values]
    if shared_x0:
        draws = randbelow_each(rng, [v] * (n + 1))
        x0 = first[draws[0]]
        codes = [v * first[b] + x0 for b in draws[1:]]
    else:
        draws = randbelow_each(rng, [v] * (2 * n))
        codes = [v * first[b] + first[x] for b, x in zip(draws[0::2], draws[1::2])]
    index = {code: i for i, code in enumerate(dict.fromkeys(codes))}
    classes = tuple(QuadraticCost(values[code // v], values[code % v]) for code in index)
    return CostSuite(classes, tuple(map(index.__getitem__, codes)))
