"""Outer optimization loop: local gradient steps glued together by the
quantized consensus subroutine, plus the zoom policies that re-parameterize
the quantizer between steps.

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
floor division over a common denominator.  ``initial_state`` builds
everything the run's fixed inputs determine: the table, step 1's masses
(``start_masses``: the floor applied to every node's own start, each
distinct start scaled to the common denominator once) and the start level.
After step 1 every node holds the one common estimate, so a step that moves
the grid or the estimate refreshes the next step's masses with one floor
per class (``grid_masses``).  The per-node path, an exact ``Fraction``
gradient step (``gradient_step``) quantized node by node
(``engine.init_consensus``), is the oracle both are tested against; no step
calls it, and the benchmark's ``perfbench/tracing.py`` ``HOOKS`` pin both.
The error's normalizer ``start_spread`` is summed once per distinct start,
weighted by its multiplicity, as a balanced tree of unreduced integer
fractions reduced once at the end.

The loop runs in grid coordinates.  ``run_consensus`` returns the level
``m`` of its output ``b_q + m*delta`` (it does not read the grid ``q`` it
is passed, which stays for the benchmark's parity replay), and the state
keeps the estimate as its level on the current grid
(``OptimizerState.level``): ``m`` after a step without an event, 0 after a
zoom (the grid re-centres on the estimate) and ``m*c_refine`` after a
refine.  Before step 1 the level is the start's when every node starts at
one value, else None, so step 1 is a repeat only when every start equals
its output.  The masses, the repeat and saturation tests and the error
metric read the level and the grid's integers, so a step without an event
builds no ``Fraction``; the estimate itself (``RunRecord.x_value``) is built
only when read, and a zoom builds the point it re-centres on.  A fixed
level's repeat leaves grid and estimate unchanged, so the next step sends
the same masses again.

All estimate arithmetic is exact (``fractions.Fraction`` or integers);
floats appear only in the logged error column.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

from .consensus import run_consensus
from .metrics import REFINE_WIDTH_SCHEDULE, error_metric, schedule_width
from .quantizer import QuantizerState, grid_point


@dataclass(frozen=True)
class AdaptiveZoom:
    """Zoom-in/zoom-out policy driven by a saturating quantizer.

    The policy owns the zoom rule: the ``quantizer_width``-bit dynamic range
    around the grid's basis, and the factors ``c_in`` and ``c_out`` by which
    a zoom-in divides and a zoom-out multiplies the grid's step.

    ``b_pm`` is the width each mass transmission is charged in the
    ``bits_paper_mode`` column; ``None`` charges the quantizer width (a
    w-bit quantizer has 2**w cells, and the payloads are modeled as w-bit
    symbols).  ``runner.build_policy`` sets it to ``accounting.b_pm`` under
    paper_faithful accounting and leaves it ``None`` under measured.
    """

    quantizer_width: int = 3
    c_in: Fraction = Fraction(4, 3)
    c_out: Fraction = Fraction(2)
    b_pm: int | None = None

    def __post_init__(self):
        if self.quantizer_width < 1:
            raise ValueError("width must be >= 1 bit")
        if self.c_in <= 1 or self.c_out <= 1:
            raise ValueError("zoom factors must exceed 1")

    def message_width(self, k):
        return self.quantizer_width if self.b_pm is None else self.b_pm

    def on_repeat(self, q, m):
        """Re-centre on the estimate ``b_q + m*delta`` (its new level is 0):
        zoom out when ``m >= H or m < -H``, ``H = 2**(width-1) - 1``, else in.
        The test compares bit lengths, so no ``2**(width-1)`` is built."""
        x_new = grid_point(q.b_q, q.delta, m)
        if (m + 1 if m >= 0 else -m).bit_length() >= self.quantizer_width:
            return QuantizerState(x_new, q.delta * self.c_out), "zoom_out", 0
        return QuantizerState(x_new, q.delta / self.c_in), "zoom_in", 0


@dataclass(frozen=True)
class RefineOnly:
    """Baseline: on every repeated estimate, divide the step by c_refine.

    The basis never moves and the quantizer is unsaturated.  Step ``k`` is
    priced by the width schedule ``metrics.REFINE_WIDTH_SCHEDULE``.
    """

    c_refine: Fraction = Fraction(10)

    def message_width(self, k):
        return schedule_width(REFINE_WIDTH_SCHEDULE, k)

    def on_repeat(self, q, m):
        """Divide the step in place: the level ``m`` becomes ``m*c_refine``."""
        return QuantizerState(q.b_q, q.delta / self.c_refine), "refine", m * self.c_refine


@dataclass(frozen=True)
class FixedLevel:
    """Baseline: the quantizer is never re-parameterized.

    Every message costs ``b_pm`` bits; a run without an explicit width
    takes its level's standard one from ``metrics.FIXED_LEVEL_WIDTHS``
    (``runner.build_policy``).
    """

    b_pm: int

    def message_width(self, k):
        return self.b_pm

    def on_repeat(self, q, m):
        """Leave grid and estimate as they are."""
        return q, "none", m


@dataclass(frozen=True)
class RunRecord:
    """One row of the per-step log.

    ``delta`` and ``b_q`` are the quantizer parameters that were in force
    during this step's consensus (i.e. before any zoom event recorded in
    the same row), and ``level`` is the consensus output's level on that
    grid.  The estimate ``x_value = b_q + level*delta`` is built when read.
    """

    k: int
    level: int
    error: float
    delta: Fraction
    b_q: Fraction
    zoom_event: str  # none | zoom_in | zoom_out | refine
    consensus_rounds: int
    mass_transmissions: int
    bits_paper_mode: int
    bits_measured_mode: int

    @property
    def x_value(self):
        return grid_point(self.b_q, self.delta, self.level)


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
    node indices it shares.
    """
    pulls = []
    for c in s.classes:
        pull = alpha * c.beta
        pulls.append((1 - pull, pull * c.x0))
    lcm = math.lcm(*(r.denominator for pair in pulls for r in pair))
    coeffs = tuple((int(u * lcm), int(v * lcm)) for u, v in pulls)
    return CostClasses(s.node_class, lcm, coeffs)


def _masses(classes, q, d, points):
    """Initial consensus mass of the half-step of each point ``((u_c, v_c), a)``.

    A node of class c holding the estimate x has the half-step
    ``(u_c*x + v_c) / lcm``; on the unsaturated grid of ``q`` its bin index
    is ``t = floor((half - b_q)/delta)`` and its mass ``2*t + 1``.  With x
    and ``b_q`` over their common denominator ``d`` and ``delta = dn/dd``,
    ``t = (u_c*a + v_c*w + k) // den`` in integers, where ``a = x*d*dd``,
    ``w = d*dd``, ``k = -lcm*b_q*d*dd`` and ``den = lcm*d*dn``.  Nothing
    assumes that ``x - b_q`` is a whole number of steps.
    """
    dn, dd = q.delta.numerator, q.delta.denominator
    w = d * dd
    k = -classes.lcm * q.b_q.numerator * (d // q.b_q.denominator) * dd
    den = classes.lcm * d * dn
    return [2 * ((u * a + v * w + k) // den) + 1 for (u, v), a in points]


def _distinct(x_init):
    """The distinct start objects of ``x_init``, keyed on identity.

    ``runner.sample_x_init`` hands every node that drew the same grid index
    the same object, so this finds its distinct starts without hashing a
    ``Fraction`` (which computes a modular inverse).  Equal starts held by
    distinct objects become equal entries, which changes no sum.
    """
    return {id(x): x for x in x_init}


def start_masses(classes, x_init, q):
    """Step 1's initial masses: every node's half-step from its own start.

    Equal to ``init_consensus(gradient_step(x_init, s, alpha), q)``, over one
    denominator shared by ``b_q`` and every start; each distinct start is
    scaled to it once.
    """
    starts = _distinct(x_init)
    d = math.lcm(q.b_q.denominator, *(x.denominator for x in starts.values()))
    dd = q.delta.denominator
    scaled = {i: x.numerator * (d // x.denominator) * dd for i, x in starts.items()}
    pulls = map(classes.coeffs.__getitem__, classes.node_class)
    return _masses(classes, q, d, zip(pulls, map(scaled.__getitem__, map(id, x_init))))


def grid_masses(classes, level, q):
    """Initial masses of every node from the common estimate ``b_q + level*delta``.

    Equal to ``init_consensus(gradient_step([x]*n, s, alpha), q)`` at that
    estimate, with one floor per class.  With ``level = ln/ld`` the estimate
    and ``b_q`` share the denominator ``d = bd*ld``, and ``x*d*dd`` is
    ``bn*dd*ld + ln*dn*bd``.
    """
    ln, ld = level.numerator, level.denominator
    bn, bd = q.b_q.numerator, q.b_q.denominator
    a = bn * q.delta.denominator * ld + ln * q.delta.numerator * bd
    ys = _masses(classes, q, bd * ld, zip(classes.coeffs, repeat(a)))
    return [ys[c] for c in classes.node_class]


def start_spread(x_init, x_star):
    """``sum_j 1/(x_init_j - x*)^2``, the error's normalizer, exact.

    Summed over the distinct starts, each weighted by its multiplicity k:
    with every start over one denominator ``d`` and ``x* = sn/sd``, a start
    ``a/d`` adds ``k/g^2`` with the integer ``g = a*sd - sn*d``, and the sum
    is ``(d*sd)^2`` times the tree sum of those terms (``_tree_sum``), reduced
    once: the same ``Fraction`` as the per-node sum.  Raises ValueError,
    naming the first node, when a start equals the optimum.
    """
    counts = Counter(map(id, x_init))
    starts = _distinct(x_init)
    d = math.lcm(*(x.denominator for x in starts.values()))
    sn, sd = x_star.numerator, x_star.denominator
    terms = []
    for i, x in starts.items():
        gap = x.numerator * (d // x.denominator) * sd - sn * d
        if gap == 0:
            j = next(j for j, x0 in enumerate(x_init) if x0 == x_star)
            raise ValueError("initial estimate at node %d equals the optimum; error metric undefined" % j)
        terms.append((counts[i], gap * gap))
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
    x_init: tuple  # per-node starting estimates
    q: QuantizerState  # the current grid
    level: int | Fraction | None  # the common estimate's level on q's grid; None while the starts differ
    classes: CostClasses  # the run's cost-class table, for its (s, alpha)
    masses: list  # the next step's initial consensus masses
    history: list = field(default_factory=list)  # one RunRecord per step taken


def initial_state(x_init, q, s, alpha):
    """The state before step 1 of a run on suite ``s`` with step size ``alpha``.

    Step 1's masses are every node's half-step from its own start.  When
    every start equals one value ``x0`` the nodes already hold a common
    estimate, at level ``(x0 - b_q)/delta``, so step 1 is a repeat exactly
    when its output equals ``x0``; otherwise the level is None.
    """
    x_init = tuple(x_init)
    classes = cost_classes(s, alpha)
    x0 = x_init[0]
    level = (x0 - q.b_q) / q.delta if all(x == x0 for x in x_init) else None
    return OptimizerState(x_init, q, level, classes, start_masses(classes, x_init, q))


def gradient_step(x, s, alpha):
    """Per-node local update x_i - alpha * grad f_i(x_i), exact.

    No step calls it: the masses come from ``start_masses`` and
    ``grid_masses``, which the tests check against this per-node path.  It
    stays here, rather than in ``tests/``, because the benchmark's
    ``perfbench/tracing.py`` ``HOOKS`` hooks it for the
    ``optimizer.gradient_step_s`` layer.
    """
    return [xi - alpha * c.grad(xi) for xi, c in zip(x, s.costs)]


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


def step(state, g, policy, rng, error_fn=None):
    """Advance one full iteration in place and append its RunRecord.

    ``error_fn(q, m)`` maps the post-step common estimate, the level ``m``
    on the grid ``q`` of this step's consensus, to the logged error (NaN
    when absent, e.g. in unit tests that only exercise dynamics).
    """
    pre_q = state.q
    level_old = state.level
    # The averaging subroutine exchanges integer offsets on the (b_q, delta)
    # grid without clamping them to the quantizer's dynamic range.  Clamping
    # would collapse every out-of-range half-step to a +/- extreme, and near
    # the optimum (where individual gradient pulls stay O(1) while delta
    # shrinks) those extremes cancel into a sign vote that pins the iterate
    # wherever the votes balance — the range limit instead governs the zoom
    # decision below and the idealized per-message bit price.
    m, stats = run_consensus(state.masses, pre_q, g, rng)
    state.q, event, state.level = zoom_decide(pre_q, m, level_old, policy)
    # A repeat without an event keeps grid and estimate, and with them the
    # masses.
    if event != "none" or m != level_old:
        state.masses = grid_masses(state.classes, state.level, state.q)

    k = len(state.history)
    tx = stats.mass_transmissions
    rec = RunRecord(
        k=k + 1,
        level=m,
        error=float("nan") if error_fn is None else error_fn(pre_q, m),
        delta=pre_q.delta,
        b_q=pre_q.b_q,
        zoom_event=event,
        consensus_rounds=stats.rounds,
        mass_transmissions=tx,
        bits_paper_mode=policy.message_width(k) * tx,
        bits_measured_mode=(len(stats.measured_alphabet) - 1).bit_length() * tx,
    )
    state.history.append(rec)
    return state, rec


def run_until(state, g, s, policy, stop, rng):
    """Iterate ``step`` until an error target or a step budget is hit.

    ``stop`` carries ``max_steps`` and/or ``target_error``; at least one
    must be set (a non-finite target_error counts as unset).  The error is
    measured against the closed-form optimum, normalized by the spread of
    the starting estimates.  ``s`` is the suite the state was built for.
    """
    max_steps = stop.get("max_steps")
    target = stop.get("target_error")
    if target is not None and not (float("-inf") < target < float("inf")):  # NaN fails too
        target = None
    if max_steps is None and target is None:
        raise ValueError("stop needs max_steps or a finite target_error")

    x_star = s.global_optimum
    spread = start_spread(state.x_init, x_star)

    def error_fn(q, m):
        return error_metric(q, m, x_star, spread)

    while max_steps is None or len(state.history) < max_steps:
        _, rec = step(state, g, policy, rng, error_fn=error_fn)
        if target is not None and rec.error <= target:
            break
    return state.history
