"""Outer optimization loop: local gradient steps glued together by the
quantized consensus subroutine, plus the zoom policies that re-parameterize
the quantizer between steps.  A policy is its zoom rule and nothing else:
what a message costs is the run's width schedule, which ``runner`` picks
and its report writers apply.

One iteration is: every node takes a gradient step on its private cost,
the quantized half-steps enter ``run_consensus`` as integer masses (so all
nodes land on one common grid point, the estimate the state keeps), and
then, on a repeat, the active zoom policy's ``on_repeat`` updates the
shared quantizer.  The adaptive policy zooms out (coarser, recentered) when
the common value sits in a saturated outer cell and zooms in (finer,
recentered) otherwise; the two baseline policies either only refine the
step size on repeats or never touch it.

A node's half-step is a linear function of the estimate it holds, with
coefficients fixed by its cost class (beta, x0).  The ``CostClasses`` table
holds those coefficients as integers, so each initial mass is one integer
floor division over the grid's integers (``QuantizerState``).  The part of
that floor that depends only on the grid is worked out once per grid
(``grid_offsets``), as is the error's (``metrics.error_terms``); the
state keeps both and ``OptimizerState.regrid`` refreshes them when the
grid moves.  They live on the state, not on the grid, because every
``RunRecord`` keeps its grid alive.  The starts come as one integer table
too (``Starts``: distinct numerators over one denominator, and each node's
index into them), and ``initial_state`` builds everything the run's fixed
inputs determine: the class table, step 1's masses (``start_masses``, from
every node's own start) and the start level.
After step 1 every node holds the one common estimate, so a step that moves
the grid or the estimate refreshes the next step's masses with one floor
per class (``grid_masses``), on small integers at an integer level.  The
per-node path, an exact ``Fraction`` gradient step (``gradient_step``)
quantized node by node (``engine.init_consensus``), is the oracle both are
tested against; no step calls it, and the benchmark's
``perfbench/tracing.py`` ``HOOKS`` pin both.
The error's inputs are fixed at the start too: ``initial_state`` stores the
optimum ``x_star`` and the normalizer ``start_spread``, summed once per
entry of the starts' table, weighted by its node count, as a balanced
tree of unreduced integer fractions reduced once at the end; each step logs
its error from the error terms of its grid.

The loop runs in grid coordinates.  ``run_consensus`` returns the level
``m`` of its output ``b_q + m*delta`` (it does not read the grid ``q`` it
is passed, which stays for the benchmark's parity replay), and the state
keeps the estimate as its level on the current grid
(``OptimizerState.level``): ``m`` after a step without an event, 0 after a
zoom (the grid re-centres on the estimate) and the ``Fraction``
``m*c_refine`` after a refine, the one place a ``Fraction`` level comes
from (not an integer only when ``c_refine`` is not).  Before step 1 the
level is the start's, an int, when the starts' table holds one value and
that value is a grid point, else None, so step 1 is a repeat only when
every start equals its output.  A zoom or a refine is one
``QuantizerState.moved``, integer arithmetic with one gcd.  The masses, the
repeat and saturation tests, the grid moves and the error metric read only
levels and integers, so after step 1 no step builds a ``Fraction`` but a
refine's level.  A fixed level's repeat leaves grid and estimate
unchanged, so the next step sends the same masses again.

Each step appends one ``RunRecord`` to ``OptimizerState.history``, step k's
at ``history[k - 1]``: what the step measured and nothing more, the output's
``level``, the ``error``, the grid ``q`` it ran on, the ``zoom_event``, the
``consensus_rounds`` and the ``alphabet_size``.  The estimate
(``RunRecord.x_value``) is built only when read, and the runner takes the
step number from the record's position.

All estimate arithmetic is exact (``fractions.Fraction`` or integers);
floats appear only in the logged error column.
"""

import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .consensus import run_consensus
from .metrics import error_metric, error_terms
from .quantizer import QuantizerState, grid_point


@dataclass(frozen=True)
class AdaptiveZoom:
    """Zoom-in/zoom-out policy driven by a saturating quantizer.

    The policy owns the zoom rule: the ``quantizer_width``-bit dynamic range
    around the grid's basis, and the factors ``c_in`` and ``c_out`` by which
    a zoom-in divides and a zoom-out multiplies the grid's step.
    """

    quantizer_width: int
    c_in: Fraction
    c_out: Fraction

    def __post_init__(self):
        if self.quantizer_width < 1:
            raise ValueError("width must be >= 1 bit")
        if self.c_in <= 1 or self.c_out <= 1:
            raise ValueError("zoom factors must exceed 1")

    def on_repeat(self, q, m):
        """Re-centre on the estimate ``b_q + m*delta`` (its new level is 0):
        zoom out when ``m >= H or m < -H``, ``H = 2**(width-1) - 1``, else in.
        The test compares bit lengths, so no ``2**(width-1)`` is built."""
        if (m + 1 if m >= 0 else -m).bit_length() >= self.quantizer_width:
            return q.moved(m, self.c_out.numerator, self.c_out.denominator), "zoom_out", 0
        return q.moved(m, self.c_in.denominator, self.c_in.numerator), "zoom_in", 0


@dataclass(frozen=True)
class RefineOnly:
    """Baseline: on every repeated estimate, divide the step by c_refine.

    The basis never moves and the quantizer is unsaturated.
    """

    c_refine: Fraction

    def on_repeat(self, q, m):
        """Divide the step in place: the level ``m`` becomes ``m*c_refine``."""
        c = self.c_refine
        return q.moved(0, c.denominator, c.numerator), "refine", m * c


@dataclass(frozen=True)
class FixedLevel:
    """Baseline: the quantizer is never re-parameterized."""

    def on_repeat(self, q, m):
        """Leave grid and estimate as they are."""
        return q, "none", m


class RunRecord(NamedTuple):
    """One row of the per-step log: what the step measured, nothing derived.

    Step k's record is ``history[k - 1]``, so it holds no step number.
    ``q`` is the grid that was in force during this step's consensus (i.e.
    before any zoom event recorded in the same row), and ``level`` is the
    consensus output's level on it; the estimate ``x_value`` is that grid
    point, built when read.  ``alphabet_size`` counts the distinct pieces
    the consensus sent.  The record holds counts, not prices: the runner
    charges them (``runner.step_costs``).  A run keeps every record, and
    ``step`` builds one per step, positionally: a tuple is the cheapest.
    """

    level: int
    error: float
    q: QuantizerState
    zoom_event: str  # none | zoom_in | zoom_out | refine
    consensus_rounds: int
    alphabet_size: int

    @property
    def x_value(self):
        return grid_point(self.q, self.level)


@dataclass(frozen=True)
class CostClasses:
    """The distinct cost classes (beta, x0) of one run, in integer form.

    From a common estimate x, class c's half-step is
    ``x - alpha*beta_c*(x - x0_c) = (u_c*x + v_c) / lcm`` with the integers
    ``u_c = lcm*(1 - alpha*beta_c)`` and ``v_c = lcm*alpha*beta_c*x0_c``;
    ``lcm`` is the least common denominator of all the classes' rationals.
    """

    node_class: tuple  # class index of each node
    lcm: int
    coeffs: tuple  # (u_c, v_c) per class


def cost_classes(s, alpha):
    """The ``CostClasses`` table of suite ``s`` under step size ``alpha``.

    One row per class of the suite's own table (``CostSuite.classes``), whose
    node indices it shares.  In integers: each class's pull
    ``alpha*beta = pn/pd`` and ``alpha*beta*x0 = vn/vd`` is reduced by one
    gcd each, ``1 - pn/pd`` has the reduced denominator ``pd`` too, and
    ``lcm`` is the least common multiple of every ``pd`` and ``vd``.
    """
    an, ad = alpha.numerator, alpha.denominator
    pulls = []
    for c in s.classes:
        pn, pd = an * c.beta.numerator, ad * c.beta.denominator
        vn, vd = pn * c.x0.numerator, pd * c.x0.denominator
        g, h = math.gcd(pn, pd), math.gcd(vn, vd)
        pulls.append((pn // g, pd // g, vn // h, vd // h))
    lcm = math.lcm(*(d for _, pd, _, vd in pulls for d in (pd, vd)))
    coeffs = tuple((lcm - pn * (lcm // pd), vn * (lcm // vd)) for pn, pd, vn, vd in pulls)
    return CostClasses(s.node_class, lcm, coeffs)


# The run's starts as one integer table: start j is ``nums[j]/den``, and
# node i starts at entry ``node_start[i]``.  The entries of ``nums`` are
# distinct values, so one entry means that every node holds one estimate
# (``initial_state`` reads it so).  ``runner.sample_x_init`` builds it.
Starts = namedtuple("Starts", "den nums node_start")


def grid_offsets(classes, q):
    """The masses' constants on the grid ``q``: ``(u_c, K_c, kappa_c)`` per class.

    Class c's half-step of the estimate ``x`` is ``(u_c*x + v_c) / lcm``;
    on the unsaturated grid its bin index is
    ``t = floor((half - b_q)/delta)`` and its mass ``2*t + 1``.  With
    ``x - b_q = p/(den*r)`` that is ``t = (u_c*p + K_c*r) // (lcm*step*r)``
    for ``K_c = (u_c - lcm)*base + v_c*den``, and at an integer level ``L``
    (``p = L*step``, ``r = 1``) the nested floor gives
    ``t = (u_c*L + kappa_c) // lcm`` with ``kappa_c = K_c // step``.
    """
    lcm, base, den, step = classes.lcm, q.base, q.den, q.step
    offsets = []
    for u, v in classes.coeffs:
        k = (u - lcm) * base + v * den
        offsets.append((u, k, k // step))
    return offsets


def _masses(classes, q, r, points):
    """``2*t + 1`` of each point ``((u_c, K_c, kappa_c), p)`` at the estimate
    ``x = b_q + p/(den*r)`` (``grid_offsets``)."""
    den = classes.lcm * q.step * r
    return [2 * ((u * p + k * r) // den) + 1 for (u, k, _), p in points]


def start_masses(classes, q, offsets, starts):
    """Step 1's initial masses: every node's half-step from its own start.

    Equal to ``init_consensus(gradient_step(xs, s, alpha), q)`` for the
    per-node starts ``xs`` of the ``Starts`` table ``starts``, from the
    ``grid_offsets`` of ``q``: start ``a/d`` lies at
    ``b_q + (a*den - base*d)/(den*d)``.
    """
    d = starts.den
    gaps = [a * q.den - q.base * d for a in starts.nums]
    pulls = map(offsets.__getitem__, classes.node_class)
    return _masses(classes, q, d, zip(pulls, map(gaps.__getitem__, starts.node_start)))


def grid_masses(classes, q, offsets, level):
    """Initial masses of every node from the common estimate ``b_q + level*delta``.

    Equal to ``init_consensus(gradient_step([x]*n, s, alpha), q)`` at that
    estimate, with one floor per class from the ``grid_offsets`` of ``q``:
    on small integers at an integer level (a ``Fraction`` of denominator 1
    counts as one), and at a ``Fraction`` level ``ln/ld`` over ``r = ld``.
    """
    ln, ld = level.numerator, level.denominator
    if ld == 1:
        lcm = classes.lcm
        ys = [2 * ((u * ln + kappa) // lcm) + 1 for u, _, kappa in offsets]
    else:
        ys = _masses(classes, q, ld, zip(offsets, repeat(ln * q.step)))
    return list(map(ys.__getitem__, classes.node_class))


def start_spread(starts, x_star):
    """``sum_i 1/(x_i - x*)^2`` over every node's start ``x_i``, exact.

    Summed over the ``Starts`` table's entries, each weighted by the number
    k of nodes that hold it: with ``x* = sn/sd``, an entry ``a/den`` adds
    ``k/g^2`` with the integer ``g = a*sd - sn*den``, and the sum is
    ``(den*sd)^2`` times the tree sum of those terms (``_tree_sum``), reduced
    once: the same ``Fraction`` as the per-node sum.  Raises ValueError,
    naming the first node, when a start equals the optimum.
    """
    counts = Counter(starts.node_start)
    d = starts.den
    sn, sd = x_star.numerator, x_star.denominator
    terms = []
    for j, a in enumerate(starts.nums):
        gap = a * sd - sn * d
        if gap == 0:
            i = starts.node_start.index(j)
            raise ValueError("initial estimate at node %d equals the optimum; error metric undefined" % i)
        terms.append((counts[j], gap * gap))
    num, den = _tree_sum(terms)
    return Fraction(num * (d * sd) ** 2, den)


def _tree_sum(terms):
    """``sum n/d`` over the integer pairs ``(n, d)``, d > 0, as one unreduced pair.

    Neighbours are added pairwise, level by level, so each multiply takes
    operands of about equal size and no pair is reduced: a left-to-right
    ``Fraction`` sum would reduce a denominator that grows with every term.
    """
    terms = terms or [(0, 1)]
    while len(terms) > 1:
        paired = [(n1 * d2 + n2 * d1, d1 * d2) for (n1, d1), (n2, d2) in zip(terms[0::2], terms[1::2])]
        terms = paired + terms[2 * len(paired) :]
    return terms[0]


@dataclass
class OptimizerState:
    """The run between steps.  ``regrid`` moves it to a grid and works out
    that grid's constants, which live here and not on the grid: every
    ``RunRecord`` keeps its grid alive."""

    q: QuantizerState  # the current grid
    level: int | Fraction | None  # the common estimate's level on q's grid; None until the nodes share a grid point
    classes: CostClasses  # the run's cost-class table, for its (s, alpha)
    x_star: Fraction  # the suite's optimum
    spread: Fraction  # the error's normalizer, start_spread of the starts
    masses: list = field(default=None, init=False)  # the next step's initial consensus masses
    offsets: list = field(init=False)  # grid_offsets of q
    error_terms: tuple = field(init=False)  # metrics.error_terms of q
    history: list = field(default_factory=list, init=False)  # one RunRecord per step taken

    def __post_init__(self):
        self.regrid(self.q)

    def regrid(self, q):
        """Move to the grid ``q``, with its ``grid_offsets`` and ``error_terms``."""
        self.q = q
        self.offsets = grid_offsets(self.classes, q)
        self.error_terms = error_terms(q, self.x_star, self.spread)


def initial_state(starts, q, s, alpha, like):
    """The state before step 1 of a run on suite ``s`` with step size ``alpha``.

    ``starts`` is the run's ``Starts`` table.  Step 1's masses are every
    node's half-step from its own start.  When the table holds one start
    ``x0`` (its entries are distinct values) on a point of the grid, the
    nodes already hold a common estimate, at the int level
    ``(x0 - b_q)/delta``, so step 1 is a repeat exactly when its output
    equals ``x0``; otherwise the level is None.  A start off the grid needs
    no level: a consensus output is a grid point, so it never repeats it.
    The error is measured against the suite's optimum, normalized by the
    spread of the starts; ``start_spread`` raises ValueError when a start
    equals it.  The class table, the optimum and the spread depend only on
    ``starts``, ``s`` and ``alpha``: ``like`` is None, or a state of a run on
    the same three, which lends its own instead of working them out again.
    """
    if like is None:
        x_star = s.global_optimum
        classes, spread = cost_classes(s, alpha), start_spread(starts, x_star)
    else:
        classes, x_star, spread = like.classes, like.x_star, like.spread
    m, off = divmod(starts.nums[0] * q.den - q.base * starts.den, q.step * starts.den)
    level = m if len(starts.nums) == 1 and not off else None
    state = OptimizerState(q, level, classes, x_star, spread)
    state.masses = start_masses(classes, q, state.offsets, starts)
    return state


def gradient_step(x, s, alpha):
    """Per-node local update x_i - alpha * grad f_i(x_i), exact, where
    grad f_i(x) = beta_i * (x - x0_i) for node i's cost class.

    No step calls it: the masses come from ``start_masses`` and
    ``grid_masses``, which the tests check against this per-node path.  It
    stays here, rather than in ``tests/``, because the benchmark's
    ``perfbench/tracing.py`` ``HOOKS`` hooks it for the
    ``optimizer.gradient_step_s`` layer.
    """
    costs = map(s.classes.__getitem__, s.node_class)
    return [xi - alpha * (c.beta * (xi - c.x0)) for xi, c in zip(x, costs)]


def zoom_decide(q, m_new, level_old, policy):
    """Quantizer update after a consensus step: (grid, event, level).

    ``m_new`` is the consensus output's level on the grid ``q`` and
    ``level_old`` the previous estimate's (None when the nodes held no
    common estimate).  On an exact repeat (``m_new == level_old``) the
    policy's ``on_repeat`` gives the next grid, the event and the
    estimate's level on that grid; otherwise nothing changes and the event
    is "none".  The event stays at index 1: the benchmark's
    ``perfbench/tracing.py`` hooks this function and counts zooms from it.
    """
    if m_new != level_old:
        return q, "none", m_new
    return policy.on_repeat(q, m_new)


def step(state, g, policy, rng):
    """Advance one full iteration in place; append and return its RunRecord.

    The record's error is ``error_metric`` of the common estimate, the level
    ``m`` on the grid of this step's consensus, from that grid's
    ``error_terms``.
    """
    pre_q = state.q
    level_old = state.level
    # The averaging subroutine exchanges integer offsets on the (b_q, delta)
    # grid without clamping them to the quantizer's dynamic range.  Clamping
    # would collapse every out-of-range half-step to a +/- extreme, and near
    # the optimum (where individual gradient pulls stay O(1) while delta
    # shrinks) those extremes cancel into a sign vote that pins the iterate
    # wherever the votes balance — the range limit instead governs the zoom
    # decision below.
    m, stats = run_consensus(state.masses, pre_q, g, rng)
    error = error_metric(state.error_terms, m)
    q, event, state.level = zoom_decide(pre_q, m, level_old, policy)
    if q is not pre_q:
        state.regrid(q)
    # A repeat without an event keeps grid and estimate, and with them the
    # masses.
    if event != "none" or m != level_old:
        state.masses = grid_masses(state.classes, q, state.offsets, state.level)

    rec = RunRecord(m, error, pre_q, event, stats.rounds, stats.alphabet_size)
    state.history.append(rec)
    return rec


def run_until(state, g, policy, stop, rng):
    """Iterate ``step`` until an error target or a step budget is hit.

    ``stop`` is the config's validated stop block: ``max_steps`` and/or a
    finite ``target_error``, None (or absent) meaning unset.  The steps'
    records are ``state.history``.
    """
    max_steps = stop.get("max_steps")
    target = stop.get("target_error")
    while max_steps is None or len(state.history) < max_steps:
        rec = step(state, g, policy, rng)
        if target is not None and rec.error <= target:
            break
