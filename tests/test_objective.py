"""Quadratic cost suites: exact gradients, closed-form optimum, seeded draws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cost_suite, node_costs, per_node_optimum, total_curvature
from zoomgrad.config import RunConfig
from zoomgrad.objective import QuadraticCost, random_cost_suite
from zoomgrad.optimizer import gradient_step
from zoomgrad.rng import PCG32, STREAM_COSTS
from zoomgrad.runner import build_costs


def random_suite(n, seed, **spec):
    """The random suite of a config whose cost block sets ``spec``, the rest
    at the defaults of ``config.BLOCKS`` (``runner.build_costs``)."""
    return build_costs(RunConfig(n=n, seed=seed, cost_spec=dict(kind="random", **spec)))


def grad(s, x):
    """Each node's exact gradient at its own ``x``: ``gradient_step``'s pull at step size 1."""
    return [xi - yi for xi, yi in zip(x, gradient_step(x, s, F(1)))]


def test_value_and_grad_exact():
    c = QuadraticCost(beta=F(2), x0=F(3))
    assert grad(cost_suite([c, c]), [F(1), F(7, 2)]) == [F(-4), F(1)]


def test_beta_must_be_positive():
    with pytest.raises(ValueError):
        QuadraticCost(beta=F(0), x0=F(1))
    with pytest.raises(ValueError):
        QuadraticCost(beta=F(-1), x0=F(1))


def test_suite_closed_forms():
    s = cost_suite([QuadraticCost(F(1), F(0)), QuadraticCost(F(3), F(4))])
    assert total_curvature(s) == F(4)
    # optimum: (1*0 + 3*4)/4 = 3; gradient of the sum vanishes there
    assert s.global_optimum == F(3)
    assert sum(grad(s, [s.global_optimum] * 2)) == 0
    assert len(s.node_class) == 2


def test_suite_requires_costs():
    with pytest.raises(ValueError):
        cost_suite([])


def test_optimum_is_curvature_weighted_mean():
    betas = [F(1), F(2), F(5)]
    x0s = [F(1), F(4), F(2)]
    s = cost_suite([QuadraticCost(b, x) for b, x in zip(betas, x0s)])
    want = sum(b * x for b, x in zip(betas, x0s)) / sum(betas)
    assert s.global_optimum == want


DENOMINATORS = st.integers(min_value=1, max_value=1000)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.builds(F, st.integers(min_value=1, max_value=50_000), DENOMINATORS),
            st.builds(F, st.integers(min_value=-50_000, max_value=50_000), DENOMINATORS),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_integer_optimum_matches_the_fraction_sums(pairs):
    # Two integer sums over one common denominator give the same rational as
    # sum(beta*x0)/sum(beta) in Fractions, for fractional betas and optima.
    s = cost_suite([QuadraticCost(b, x) for b, x in pairs])
    assert s.global_optimum == per_node_optimum(s)


def test_random_suite_deterministic():
    a = random_suite(10, 42)
    b = random_suite(10, 42)
    assert node_costs(a) == node_costs(b)
    c = random_suite(10, 43)
    assert node_costs(a) != node_costs(c)


def test_random_suite_values_from_value_set():
    s = random_cost_suite(50, 7, value_set=(2, 3), shared_x0=False)
    for c in node_costs(s):
        assert c.beta in (F(2), F(3))
        assert c.x0 in (F(2), F(3))


def test_shared_x0():
    s = random_suite(12, 5, shared_x0=True)
    assert len({c.x0 for c in node_costs(s)}) == 1
    assert s.global_optimum == s.classes[0].x0  # optimum is the common x0


def test_draw_order_contract():
    # per-node draws interleave beta then x0; replaying the stream by hand
    # must reproduce the suite
    rng = PCG32(9, STREAM_COSTS)
    values = [F(v) for v in (1, 2, 3, 4, 5)]
    want = []
    for _ in range(4):
        beta = values[rng.randbelow(5)]
        x0 = values[rng.randbelow(5)]
        want.append((beta, x0))
    s = random_suite(4, 9)
    assert [(c.beta, c.x0) for c in node_costs(s)] == want


def test_shared_x0_draw_order_contract():
    # the common x0 first, then one beta per node
    rng = PCG32(9, STREAM_COSTS)
    values = [F(v) for v in (1, 2, 3, 4, 5)]
    x0 = values[rng.randbelow(5)]
    want = [(values[rng.randbelow(5)], x0) for _ in range(6)]
    s = random_suite(6, 9, shared_x0=True)
    assert [(c.beta, c.x0) for c in node_costs(s)] == want


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=0, max_value=2**32),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
    st.booleans(),
)
def test_random_suite_table_is_the_per_node_table(n, seed, value_set, shared_x0):
    # The table built from the draws is the one an explicit cost list of the
    # same costs gets: distinct classes in order of first appearance, even
    # when the value set repeats a value.
    s = random_cost_suite(n, seed, value_set=tuple(value_set), shared_x0=shared_x0)
    again = cost_suite(node_costs(s))
    assert (s.classes, s.node_class) == (again.classes, again.node_class)
    assert len(s.node_class) == n
    assert len(s.classes) <= len(set(value_set)) ** 2


def fresh(c):
    """An equal cost held by new objects."""
    return QuadraticCost(F(c.beta.numerator, c.beta.denominator), F(c.x0.numerator, c.x0.denominator))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=F(1, 50), max_value=20, max_denominator=50),
            st.fractions(min_value=-20, max_value=20, max_denominator=50),
        ),
        min_size=1,
        max_size=6,
    ),
    st.data(),
)
def test_class_table_matches_the_per_node_costs(pool, data):
    # Equal costs share a class whether they are one object or several;
    # the optimum summed per class is the per-node one.
    classes = [QuadraticCost(b, x) for b, x in pool]
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(classes) - 1), st.booleans()), min_size=1, max_size=40))
    costs = [fresh(classes[i]) if copy else classes[i] for i, copy in picks]
    s = cost_suite(costs)
    assert node_costs(s) == tuple(costs)
    assert len(set(s.classes)) == len(s.classes)
    for i, c in enumerate(costs):
        for j, d in enumerate(costs):
            assert (s.node_class[i] == s.node_class[j]) == (c == d)
    assert s.global_optimum == per_node_optimum(s)
