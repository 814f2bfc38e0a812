"""Quantizer conformance: the full branch/boundary table, zoom algebra,
and the structural properties (accuracy, idempotence, monotonicity,
index bijection, step-size trajectory identity).
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from zoomgrad.quantizer import (
    QuantizerState,
    level_index,
    quantize,
    saturation_half_range,
    zoom_in,
    zoom_out,
)

Q0 = QuantizerState(b_q=F(0), delta=F(1, 2))

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
    assert quantize(Q0, xi) == midpoint
    assert level_index(Q0, xi) == code


def test_shifted_basis():
    q = QuantizerState(b_q=F(2), delta=F(1, 2))
    assert quantize(q, F(2)) == F(9, 4)  # basis input -> b_q + d/2
    assert quantize(q, F(2) - F(1, 100)) == F(7, 4)
    assert level_index(q, F(100)) == 7
    assert level_index(q, F(-100)) == 0


def test_non_dyadic_grid():
    q = QuantizerState(b_q=F(1), delta=F(3, 8))
    assert quantize(q, F(1)) == F(1) + F(3, 16)
    assert quantize(q, F(1) - F(3, 8)) == F(1) - F(3, 16)
    assert saturation_half_range(q) == F(9, 8)


def test_wider_quantizer():
    q = QuantizerState(b_q=F(0), delta=F(1), width=4)
    assert saturation_half_range(q) == F(7)  # (2^3 - 1) * delta
    assert quantize(q, F(100)) == F(15, 2)  # (2*15 - 15)/2
    assert quantize(q, F(-100)) == F(-15, 2)
    assert level_index(q, F(0)) == 8


def test_unsaturated_variant():
    qu = QuantizerState(b_q=F(0), delta=F(1, 2), width=None)
    # agrees with the 3-bit quantizer inside its range ...
    for xi, midpoint, _ in BRANCH_TABLE:
        if F(-3, 2) <= xi < F(3, 2):
            assert quantize(qu, xi) == midpoint
    # ... but never clamps outside it
    assert quantize(qu, F(-10)) == F(-39, 4)
    assert quantize(qu, F(100)) == F(401, 4)
    with pytest.raises(ValueError):
        saturation_half_range(qu)
    with pytest.raises(ValueError):
        level_index(qu, F(0))


def test_zoom_out_examples():
    q1 = zoom_out(Q0, F(2))
    assert (q1.b_q, q1.delta, q1.nu_out, q1.nu_in, q1.nu_total) == (F(2), F(1), 1, 0, 1)
    q2 = zoom_out(Q0, F(-5))
    assert (q2.b_q, q2.delta) == (F(-5), F(1))
    q3 = zoom_out(q1, q1.b_q)
    assert q3.delta == F(2)  # delta_0 * c_out^2
    assert q3.nu_out == 2 == q3.nu_total


def test_zoom_in_examples():
    q1 = zoom_in(Q0, F(1))
    assert (q1.b_q, q1.delta, q1.nu_in, q1.nu_total) == (F(1), F(3, 8), 1, 1)
    q2 = zoom_in(q1, q1.b_q)
    assert q2.delta == F(9, 32)
    assert q2.nu_in == 2 == q2.nu_total
    assert q2.nu_out == 0


def test_validation():
    with pytest.raises(ValueError):
        QuantizerState(b_q=F(0), delta=F(0))
    with pytest.raises(ValueError):
        QuantizerState(b_q=F(0), delta=F(-1, 2))
    with pytest.raises(ValueError):
        QuantizerState(b_q=F(0), delta=F(1), c_in=F(1))
    with pytest.raises(ValueError):
        QuantizerState(b_q=F(0), delta=F(1), c_out=F(9, 10))
    with pytest.raises(ValueError):
        QuantizerState(b_q=F(0), delta=F(1), width=0)


# --- property tests -------------------------------------------------------

bases = st.fractions(min_value=-8, max_value=8, max_denominator=64)
deltas = st.fractions(min_value=F(1, 64), max_value=4, max_denominator=64)


@given(bases, deltas, st.fractions(min_value=-4, max_value=4, max_denominator=512))
def test_in_range_accuracy(b_q, delta, off):
    # |Q(x) - x| <= delta/2 whenever x lies inside the dynamic range
    q = QuantizerState(b_q=b_q, delta=delta)
    xi = b_q + off * delta  # off in [-4, 4] spans the range and beyond
    if not (b_q - 3 * delta <= xi < b_q + 3 * delta):
        return
    assert abs(quantize(q, xi) - xi) <= delta / 2


@given(bases, deltas, st.fractions(min_value=-3, max_value=F(295, 100), max_denominator=512))
def test_idempotent_in_range(b_q, delta, off):
    q = QuantizerState(b_q=b_q, delta=delta)
    y = quantize(q, b_q + off * delta)
    assert quantize(q, y) == y


@given(
    bases,
    deltas,
    st.fractions(min_value=-20, max_value=20, max_denominator=512),
    st.fractions(min_value=-20, max_value=20, max_denominator=512),
)
def test_monotone(b_q, delta, a, b):
    q = QuantizerState(b_q=b_q, delta=delta)
    lo, hi = min(a, b), max(a, b)
    assert quantize(q, lo) <= quantize(q, hi)


@given(bases, deltas, st.fractions(min_value=-20, max_value=20, max_denominator=512))
def test_output_is_always_one_of_the_8_midpoints(b_q, delta, xi):
    q = QuantizerState(b_q=b_q, delta=delta)
    midpoints = [b_q + F(2 * c - 7, 2) * delta for c in range(8)]
    y = quantize(q, xi)
    assert y in midpoints
    assert midpoints[level_index(q, xi)] == y


@given(bases, deltas, st.integers(min_value=0, max_value=7))
def test_code_midpoint_bijection(b_q, delta, c):
    q = QuantizerState(b_q=b_q, delta=delta)
    midpoint = b_q + F(2 * c - 7, 2) * delta
    assert level_index(q, midpoint) == c
    assert quantize(q, midpoint) == midpoint


@given(st.lists(st.booleans(), max_size=40))
def test_delta_trajectory_identity(zoom_sequence):
    # delta = delta_0 * c_out^nu_out / c_in^nu_in after any interleaving
    q = Q0
    for out in zoom_sequence:
        q = zoom_out(q, q.b_q + 5) if out else zoom_in(q, q.b_q)
    n_out = sum(zoom_sequence)
    n_in = len(zoom_sequence) - n_out
    assert q.delta == Q0.delta * q.c_out**n_out / q.c_in**n_in
    assert (q.nu_out, q.nu_in, q.nu_total) == (n_out, n_in, len(zoom_sequence))
