"""Node cost functions: strongly convex quadratics with exact-rational math.

Each node i owns f_i(x) = beta_i/2 * (x - x0_i)^2, so the network objective
(1/n) * sum f_i is minimized at the curvature-weighted mean of the x0_i.
For this family the strong-convexity and gradient-Lipschitz constants of the
summed objective coincide: mu = L = sum(beta_i).

A suite is a class table: its distinct costs (beta, x0), one
``QuadraticCost`` each, and every node's index into them.  A random suite
draws from a value set of v values, so it has at most v**2 classes however
many nodes it has; the optimum here and the optimizer's cost-class table
(``optimizer.cost_classes``) work once per class, and no per-node cost is
built.  ``CostSuite.costs`` still reads the costs node by node.
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

    def grad(self, x: Fraction) -> Fraction:
        return self.beta * (x - self.x0)


class CostSuite:
    """The n per-node costs of one experiment instance, as a class table.

    ``classes`` holds each distinct cost once, in order of first appearance,
    and ``node_class`` the index into ``classes`` of every node's cost.
    ``CostSuite(costs)`` takes the costs node by node and groups equal ones,
    keyed on their integers (hashing a ``Fraction`` computes a modular
    inverse), so equal costs held by distinct objects share one class.
    """

    def __init__(self, costs):
        index = {}  # (beta, x0) as reduced integers -> class index
        classes = []
        node_class = []
        for c in costs:
            key = (c.beta.numerator, c.beta.denominator, c.x0.numerator, c.x0.denominator)
            if key not in index:
                index[key] = len(classes)
                classes.append(c)
            node_class.append(index[key])
        self._set_table(tuple(classes), tuple(node_class))

    @classmethod
    def _from_table(cls, classes: tuple, node_class: tuple) -> CostSuite:
        """Wrap a table whose classes are already distinct and each used."""
        s = cls.__new__(cls)
        s._set_table(classes, node_class)
        return s

    def _set_table(self, classes, node_class):
        if not classes:
            raise ValueError("need at least one cost")
        self.classes = classes
        self.node_class = node_class

    @property
    def costs(self) -> tuple:
        """The cost of every node, in node order."""
        return tuple(map(self.classes.__getitem__, self.node_class))

    def __len__(self):
        return len(self.node_class)

    def __iter__(self):
        return iter(self.costs)

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


def random_cost_suite(
    n: int,
    seed: int,
    value_set=(1, 2, 3, 4, 5),
    shared_x0: bool = False,
) -> CostSuite:
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
    return CostSuite._from_table(classes, tuple(map(index.__getitem__, codes)))
