"""Quantizer conformance: the full branch/boundary table, zoom algebra,
and the structural properties (accuracy, idempotence, monotonicity,
index bijection, step-size trajectory identity).
"""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import ADAPTIVE, clamped_quantize, level_index, saturation_half_range
from zoomgrad.quantizer import QuantizerState, grid_point, quantize

Q0 = QuantizerState.of(b_q=F(0), delta=F(1, 2))
C_IN, C_OUT = F(4, 3), F(2)  # the adaptive policy's default zoom factors
ZOOM = ADAPTIVE  # 3 bits: levels in [-3, 3) zoom in, the others out

# (input, midpoint, code) for b_q=0, delta=1/2: every one of the 8 output
# cells is hit in its interior and at its left (closed) boundary, plus both
# saturation regions and the outer cell edges.  Cells are [t*d, (t+1)*d)
# for t = -4..3, code c = t+4, midpoint (2c-7)*d/2.
BRANCH_TABLE = [
    (F(-100), F(-7, 4), 0),  # deep low saturation
    (F(-21, 10), F(-7, 4), 0),  # just below the bottom cell: clamps
    (F(-2), F(-7, 4), 0),  # bottom cell edge
    (F(-7, 4), F(-7, 4), 0),  # bottom cell interior (own midpoint)
    (F(-3, 2), F(-5, 4), 1),  # boundary -3d belongs to the upper cell
    (F(-6, 5), F(-5, 4), 1),
    (F(-1), F(-3, 4), 2),  # boundary -2d
    (F(-7, 10), F(-3, 4), 2),
    (F(-1, 2), F(-1, 4), 3),  # boundary -d
    (F(-1, 5), F(-1, 4), 3),
    (F(0), F(1, 4), 4),  # the basis itself maps one cell up
    (F(1, 5), F(1, 4), 4),
    (F(1, 2), F(3, 4), 5),  # boundary +d
    (F(9, 10), F(3, 4), 5),
    (F(1), F(5, 4), 6),  # boundary +2d
    (F(13, 10), F(5, 4), 6),
    (F(3, 2), F(7, 4), 7),  # boundary +3d: already the top midpoint
    (F(19, 10), F(7, 4), 7),
    (F(2), F(7, 4), 7),  # top cell edge: clamps
    (F(100), F(7, 4), 7),  # deep high saturation
]


@pytest.mark.parametrize("xi,midpoint,code", BRANCH_TABLE)
def test_branch_table(xi, midpoint, code):
    assert clamped_quantize(Q0, xi, 3) == midpoint
    assert level_index(Q0, xi, 3) == code


def test_shifted_basis():
    q = QuantizerState.of(b_q=F(2), delta=F(1, 2))
    assert clamped_quantize(q, F(2), 3) == F(9, 4)  # basis input -> b_q + d/2
    assert clamped_quantize(q, F(2) - F(1, 100), 3) == F(7, 4)
    assert level_index(q, F(100), 3) == 7
    assert level_index(q, F(-100), 3) == 0


def test_non_dyadic_grid():
    q = QuantizerState.of(b_q=F(1), delta=F(3, 8))
    assert clamped_quantize(q, F(1), 3) == F(1) + F(3, 16)
    assert clamped_quantize(q, F(1) - F(3, 8), 3) == F(1) - F(3, 16)
    assert saturation_half_range(q, 3) == F(9, 8)


def test_wider_quantizer():
    q = QuantizerState.of(b_q=F(0), delta=F(1))
    assert saturation_half_range(q, 4) == F(7)  # (2^3 - 1) * delta
    assert clamped_quantize(q, F(100), 4) == F(15, 2)  # (2*15 - 15)/2
    assert clamped_quantize(q, F(-100), 4) == F(-15, 2)
    assert level_index(q, F(0), 4) == 8


def test_unsaturated_variant():
    # no width: agrees with the 3-bit quantizer inside its range ...
    for xi, midpoint, _ in BRANCH_TABLE:
        if F(-3, 2) <= xi < F(3, 2):
            assert quantize(Q0, xi) == midpoint
    # ... but never clamps outside it
    assert quantize(Q0, F(-10)) == F(-39, 4)
    assert quantize(Q0, F(100)) == F(401, 4)


def test_zoom_out_examples():
    # on Q0 level m is the point m/2
    assert ZOOM.on_repeat(Q0, 4) == (QuantizerState.of(F(2), F(1)), "zoom_out", 0)
    q2, _, _ = ZOOM.on_repeat(Q0, -10)
    assert (q2.b_q, q2.delta) == (F(-5), F(1))
    q3, _, _ = replace(ZOOM, quantizer_width=1).on_repeat(q2, 0)  # a 1-bit range holds no level
    assert q3.delta == F(2)  # delta_0 * c_out^2
    assert replace(ZOOM, c_out=F(5, 2)).on_repeat(Q0, 4)[0].delta == F(5, 4)


def test_zoom_in_examples():
    q1, event, _ = ZOOM.on_repeat(Q0, 2)
    assert (q1, event) == (QuantizerState.of(F(1), F(3, 8)), "zoom_in")
    q2, _, _ = ZOOM.on_repeat(q1, 0)
    assert q2.delta == F(9, 32)
    assert replace(ZOOM, c_in=F(7, 5)).on_repeat(Q0, 2)[0].delta == F(5, 14)


def test_validation():
    with pytest.raises(ValueError):
        QuantizerState.of(b_q=F(0), delta=F(0))
    with pytest.raises(ValueError):
        QuantizerState.of(b_q=F(0), delta=F(-1, 2))
    # the zoom rule's factors and width are checked by the policy that owns them
    with pytest.raises(ValueError):
        replace(ZOOM, c_in=F(1))
    with pytest.raises(ValueError):
        replace(ZOOM, c_out=F(9, 10))
    with pytest.raises(ValueError):
        replace(ZOOM, quantizer_width=0)


# --- property tests -------------------------------------------------------

bases = st.fractions(min_value=-8, max_value=8, max_denominator=64)
deltas = st.fractions(min_value=F(1, 64), max_value=4, max_denominator=64)


@given(bases, deltas, st.fractions(min_value=-4, max_value=4, max_denominator=512))
def test_in_range_accuracy(b_q, delta, off):
    # |Q(x) - x| <= delta/2 whenever x lies inside the dynamic range
    q = QuantizerState.of(b_q=b_q, delta=delta)
    xi = b_q + off * delta  # off in [-4, 4] spans the range and beyond
    if not (b_q - 3 * delta <= xi < b_q + 3 * delta):
        return
    assert abs(clamped_quantize(q, xi, 3) - xi) <= delta / 2


@given(bases, deltas, st.fractions(min_value=-3, max_value=F(295, 100), max_denominator=512))
def test_idempotent_in_range(b_q, delta, off):
    q = QuantizerState.of(b_q=b_q, delta=delta)
    y = clamped_quantize(q, b_q + off * delta, 3)
    assert clamped_quantize(q, y, 3) == y


@given(
    bases,
    deltas,
    st.fractions(min_value=-20, max_value=20, max_denominator=512),
    st.fractions(min_value=-20, max_value=20, max_denominator=512),
)
def test_monotone(b_q, delta, a, b):
    q = QuantizerState.of(b_q=b_q, delta=delta)
    lo, hi = min(a, b), max(a, b)
    assert clamped_quantize(q, lo, 3) <= clamped_quantize(q, hi, 3)


@given(bases, deltas, st.fractions(min_value=-20, max_value=20, max_denominator=512))
def test_output_is_always_one_of_the_8_midpoints(b_q, delta, xi):
    q = QuantizerState.of(b_q=b_q, delta=delta)
    midpoints = [b_q + F(2 * c - 7, 2) * delta for c in range(8)]
    y = clamped_quantize(q, xi, 3)
    assert y in midpoints
    assert midpoints[level_index(q, xi, 3)] == y


@given(bases, deltas, st.integers(min_value=0, max_value=7))
def test_code_midpoint_bijection(b_q, delta, c):
    q = QuantizerState.of(b_q=b_q, delta=delta)
    midpoint = b_q + F(2 * c - 7, 2) * delta
    assert level_index(q, midpoint, 3) == c
    assert clamped_quantize(q, midpoint, 3) == midpoint


@given(st.lists(st.booleans(), max_size=40))
def test_delta_trajectory_identity(zoom_sequence):
    # delta = delta_0 * c_out^nu_out / c_in^nu_in after any interleaving
    q = Q0
    for out in zoom_sequence:
        q, _, _ = ZOOM.on_repeat(q, 10 if out else 0)
    n_out = sum(zoom_sequence)
    n_in = len(zoom_sequence) - n_out
    assert q.delta == Q0.delta * C_OUT**n_out / C_IN**n_in


wide = st.fractions(min_value=-(2**70), max_value=2**70, max_denominator=2**70)


@given(wide, wide.filter(lambda d: d > 0), st.integers(-(2**70), 2**70), wide)
def test_the_grid_holds_one_integer_form(b_q, delta, m, level):
    # b_q = base/den and delta = step/den over den = lcm of their
    # denominators, and the grid's points, at an int or a Fraction level,
    # are b_q + level*delta.
    q = QuantizerState.of(b_q=b_q, delta=delta)
    assert q.den == math.lcm(b_q.denominator, delta.denominator)
    assert F(q.base, q.den) == b_q and F(q.step, q.den) == delta
    for lv in (m, F(m), level):
        assert grid_point(q, lv) == b_q + lv * delta


@given(wide, wide.filter(lambda d: d > 0), st.integers(-(2**70), 2**70), st.fractions(min_value=F(11, 10), max_value=2**20))
def test_a_grid_move_is_the_fraction_move_reduced(b_q, delta, m, c):
    # moved re-centres on level m and scales the step with one gcd; the
    # grid it gives is the one the Fraction arithmetic gives, in the same
    # reduced integers (gcd(base, step, den) = 1), for a zoom-out by c, a
    # zoom-in by c and a refine by c.
    q = QuantizerState.of(b_q, delta)
    x = b_q + m * delta
    moves = [
        (q.moved(m, c.numerator, c.denominator), QuantizerState.of(x, delta * c)),
        (q.moved(m, c.denominator, c.numerator), QuantizerState.of(x, delta / c)),
        (q.moved(0, c.denominator, c.numerator), QuantizerState.of(b_q, delta / c)),
    ]
    for got, want in moves:
        assert got == want
        assert math.gcd(got.den, got.base, got.step) == 1
        assert (got.b_q, got.delta) == (want.b_q, want.delta)
