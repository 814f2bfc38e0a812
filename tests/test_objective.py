"""Quadratic cost suites: exact gradients, closed-form optimum, seeded draws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_node_optimum
from zoomgrad.objective import CostSuite, QuadraticCost, random_cost_suite
from zoomgrad.rng import PCG32, STREAM_COSTS


def test_value_and_grad_exact():
    c = QuadraticCost(beta=F(2), x0=F(3))
    assert c.grad(F(1)) == F(-4)
    assert c.grad(F(7, 2)) == F(1)


def test_beta_must_be_positive():
    with pytest.raises(ValueError):
        QuadraticCost(beta=F(0), x0=F(1))
    with pytest.raises(ValueError):
        QuadraticCost(beta=F(-1), x0=F(1))


def test_suite_closed_forms():
    s = CostSuite([QuadraticCost(F(1), F(0)), QuadraticCost(F(3), F(4))])
    assert s.total_curvature == F(4)
    # optimum: (1*0 + 3*4)/4 = 3; gradient of the sum vanishes there
    assert s.global_optimum == F(3)
    assert sum(c.grad(s.global_optimum) for c in s.costs) == 0
    assert len(s) == 2


def test_suite_requires_costs():
    with pytest.raises(ValueError):
        CostSuite([])


def test_optimum_is_curvature_weighted_mean():
    betas = [F(1), F(2), F(5)]
    x0s = [F(1), F(4), F(2)]
    s = CostSuite(QuadraticCost(b, x) for b, x in zip(betas, x0s))
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
    s = CostSuite(QuadraticCost(b, x) for b, x in pairs)
    assert s.global_optimum == per_node_optimum(s)


def test_random_suite_deterministic():
    a = random_cost_suite(10, 42)
    b = random_cost_suite(10, 42)
    assert [(c.beta, c.x0) for c in a] == [(c.beta, c.x0) for c in b]
    c = random_cost_suite(10, 43)
    assert [(d.beta, d.x0) for d in a] != [(d.beta, d.x0) for d in c]


def test_random_suite_values_from_value_set():
    s = random_cost_suite(50, 7, value_set=(2, 3))
    for c in s:
        assert c.beta in (F(2), F(3))
        assert c.x0 in (F(2), F(3))


def test_shared_x0():
    s = random_cost_suite(12, 5, shared_x0=True)
    assert len({c.x0 for c in s}) == 1
    assert s.global_optimum == next(iter(s)).x0  # optimum is the common x0


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
    s = random_cost_suite(4, 9)
    assert [(c.beta, c.x0) for c in s] == want


def test_accepts_rng_instance():
    rng = PCG32(9, STREAM_COSTS)
    s = random_cost_suite(4, rng)
    assert [(c.beta, c.x0) for c in s] == [
        (c.beta, c.x0) for c in random_cost_suite(4, 9)
    ]
