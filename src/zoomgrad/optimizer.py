"""Outer optimization loop: local gradient steps glued together by the
quantized consensus subroutine, plus the zoom policies that re-parameterize
the quantizer between steps.

One iteration is: every node takes a gradient step on its private cost,
the quantized half-steps enter ``run_consensus`` as integer masses (so all
nodes land on one common grid point, the estimate the state keeps), and
then the shared quantizer is updated according to the active zoom policy.
The adaptive policy zooms out (coarser, recentered) when the common value
sits in a saturated outer cell and zooms in (finer, recentered) when it
repeats inside the range; the two baseline policies either only refine the
step size on repeats or never touch it.

A node's half-step is a linear function of the estimate it holds, with
coefficients fixed by its cost class (beta, x0).  The ``CostClasses`` table,
built once per run and kept on the state, holds those coefficients as
integers, so each initial mass is one integer floor division over a common
denominator.  Step 1 applies the floor to every node's own start
(``start_masses``); from step 2 on every node holds the one common estimate,
so the floor runs once per class (``grid_masses``).  The per-node path, an
exact ``Fraction`` gradient step (``gradient_step``) quantized node by node
(``engine.init_consensus``), is the oracle both are tested against; no step
calls it.

All estimate arithmetic is exact (``fractions.Fraction`` or integers);
floats appear only in the logged error column.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

from .consensus import run_consensus
from .metrics import FIXED_LEVEL_WIDTHS, error_metric
from .quantizer import QuantizerState, saturation_half_range, zoom_in, zoom_out


@dataclass(frozen=True)
class AdaptiveZoom:
    """Zoom-in/zoom-out policy driven by a saturating quantizer.

    The policy owns the zoom rule: the ``quantizer_width``-bit dynamic range
    around the grid's basis, and the factors ``c_in`` and ``c_out`` by which
    a zoom-in divides and a zoom-out multiplies the grid's step.

    ``b_pm`` is the message width charged per mass transmission in the
    idealized accounting mode; it defaults to the quantizer width (a w-bit
    quantizer has 2**w cells, and the consensus payloads are modeled as
    w-bit symbols in that mode).
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

    def message_width(self, k, delta):
        return self.quantizer_width if self.b_pm is None else self.b_pm


@dataclass(frozen=True)
class RefineOnly:
    """Baseline: on every repeated estimate, divide the step by c_refine.

    The basis never moves and the quantizer is unsaturated.  Accounting
    uses a step-indexed width schedule: entries are (first_k_not_covered,
    width), with ``None`` meaning "every remaining step".
    """

    c_refine: Fraction = Fraction(10)
    width_schedule: tuple = ((3, 7), (9, 10), (None, 14))

    def message_width(self, k, delta):
        for end, width in self.width_schedule:
            if end is None or k < end:
                return width
        raise ValueError("width schedule ended before step %d" % k)


@dataclass(frozen=True)
class FixedLevel:
    """Baseline: the quantizer is never re-parameterized.

    ``b_pm`` may be given explicitly; otherwise it is looked up in the
    standard level table ``metrics.FIXED_LEVEL_WIDTHS`` (7/10/14 bits for
    steps 0.1/0.01/0.001), which ``RunConfig.validate`` checks against.
    """

    b_pm: int | None = None

    def message_width(self, k, delta):
        if self.b_pm is not None:
            return self.b_pm
        try:
            return FIXED_LEVEL_WIDTHS[delta]
        except KeyError:
            raise ValueError(
                "no standard message width for fixed level %s; set b_pm" % delta
            ) from None


@dataclass(frozen=True)
class RunRecord:
    """One row of the per-step log.

    ``delta`` and ``b_q`` are the quantizer parameters that were in force
    during this step's consensus (i.e. before any zoom event recorded in
    the same row).
    """

    k: int
    x_value: Fraction
    error: float
    delta: Fraction
    b_q: Fraction
    zoom_event: str  # none | zoom_in | zoom_out | refine
    consensus_rounds: int
    mass_transmissions: int
    bits_paper_mode: int
    bits_measured_mode: int


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
    """The ``CostClasses`` table of suite ``s`` under step size ``alpha``."""
    index = {}  # keyed on integers: hashing a Fraction computes a modular inverse
    node_class = tuple(
        index.setdefault((c.beta.numerator, c.beta.denominator, c.x0.numerator, c.x0.denominator), len(index))
        for c in s.costs
    )
    pulls = []
    for bn, bd, xn, xd in index:
        pull = alpha * Fraction(bn, bd)
        pulls.append((1 - pull, pull * Fraction(xn, xd)))
    lcm = math.lcm(*(r.denominator for pair in pulls for r in pair))
    coeffs = tuple((int(u * lcm), int(v * lcm)) for u, v in pulls)
    return CostClasses(node_class, lcm, coeffs)


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


def start_masses(classes, x_init, q):
    """Step 1's initial masses: every node's half-step from its own start.

    Equal to ``init_consensus(gradient_step(x_init, s, alpha), q)``, over one
    denominator shared by ``b_q`` and every start.
    """
    d = math.lcm(q.b_q.denominator, *(x.denominator for x in x_init))
    dd = q.delta.denominator
    pulls = map(classes.coeffs.__getitem__, classes.node_class)
    return _masses(classes, q, d, zip(pulls, (x.numerator * (d // x.denominator) * dd for x in x_init)))


def grid_masses(classes, x, q):
    """Initial masses of every node from the common estimate ``x``.

    Equal to ``init_consensus(gradient_step([x]*n, s, alpha), q)``, with one
    floor per class.
    """
    d = math.lcm(x.denominator, q.b_q.denominator)
    a = x.numerator * (d // x.denominator) * q.delta.denominator
    ys = _masses(classes, q, d, zip(classes.coeffs, repeat(a)))
    return [ys[c] for c in classes.node_class]


def start_spread(x_init, x_star):
    """``sum_j 1/(x_init_j - x*)^2``, the error's normalizer, exact.

    Summed over the distinct starts, each weighted by its multiplicity: the
    same rational as the per-node sum.  Raises ValueError, naming the first
    node, when a start equals the optimum.
    """
    # Keyed on integers: hashing a Fraction computes a modular inverse.
    counts = Counter((x0.numerator, x0.denominator) for x0 in x_init)
    sn, sd = x_star.numerator, x_star.denominator
    spread = Fraction(0)
    for (xn, xd), k in counts.items():
        gap = xn * sd - sn * xd  # (x0 - x*) * xd * sd
        if gap == 0:
            j = next(j for j, x0 in enumerate(x_init) if x0 == x_star)
            raise ValueError("initial estimate at node %d equals the optimum; error metric undefined" % j)
        spread += Fraction(k * (xd * sd) ** 2, gap**2)
    return spread


@dataclass
class OptimizerState:
    x_init: tuple  # per-node starting estimates
    q: QuantizerState
    x: Fraction | None = None  # the common estimate; None before step 1
    history: list = field(default_factory=list)  # one RunRecord per step taken
    classes: CostClasses | None = None  # built at step 1 for the run's (s, alpha)


def initial_state(x_init, q):
    return OptimizerState(x_init=tuple(x_init), q=q)


def gradient_step(x, s, alpha):
    """Per-node local update x_i - alpha * grad f_i(x_i), exact.

    No step calls it: the masses come from ``start_masses`` and
    ``grid_masses``, which the tests check against this per-node path.  It
    stays here, rather than in ``tests/``, while the benchmark's tracing
    hooks (``perfbench/tracing.py``) still name it.
    """
    return [xi - alpha * c.grad(xi) for xi, c in zip(x, s.costs)]


def zoom_decide(q, x_new, x_old, policy):
    """Quantizer update after a consensus step.

    Fires only on an exact repeat (x_new == x_old).  The adaptive policy
    then recenters on x_new and either coarsens (when x_new sits at or
    beyond the saturation range that was in force) or refines; the refine
    baseline shrinks the step in place; the fixed baseline does nothing.
    Returns (updated quantizer, event string).
    """
    if x_new != x_old:
        return q, "none"
    if isinstance(policy, AdaptiveZoom):
        half = saturation_half_range(q, policy.quantizer_width)
        if x_new >= q.b_q + half or x_new < q.b_q - half:
            return zoom_out(q, x_new, policy.c_out), "zoom_out"
        return zoom_in(q, x_new, policy.c_in), "zoom_in"
    if isinstance(policy, RefineOnly):
        return QuantizerState(q.b_q, q.delta / policy.c_refine), "refine"
    if isinstance(policy, FixedLevel):
        return q, "none"
    raise TypeError("unknown zoom policy %r" % (policy,))


def step(state, g, s, alpha, policy, rng, error_fn=None):
    """Advance one full iteration in place and append its RunRecord.

    ``s`` and ``alpha`` must stay the same for all steps of one state: the
    cost-class table built at step 1 serves every later step.
    ``error_fn`` maps the post-step common estimate to the logged error
    (NaN when absent, e.g. in unit tests that only exercise dynamics).
    """
    pre_q = state.q
    # The averaging subroutine exchanges integer offsets on the (b_q, delta)
    # grid without clamping them to the quantizer's dynamic range.  Clamping
    # would collapse every out-of-range half-step to a +/- extreme, and near
    # the optimum (where individual gradient pulls stay O(1) while delta
    # shrinks) those extremes cancel into a sign vote that pins the iterate
    # wherever the votes balance — the range limit instead governs the zoom
    # decision below and the idealized per-message bit price.
    if state.x is None:
        state.classes = cost_classes(s, alpha)
        y = start_masses(state.classes, state.x_init, pre_q)
    else:
        y = grid_masses(state.classes, state.x, pre_q)
    x_new, stats = run_consensus(y, pre_q, g, rng)

    # A repeat needs every node's previous estimate to equal x_new; before
    # the first consensus those are the starts.
    x_old = x_new if state.x is None and all(x0 == x_new for x0 in state.x_init) else state.x
    new_q, event = zoom_decide(pre_q, x_new, x_old, policy)

    k = len(state.history)
    width = policy.message_width(k, pre_q.delta)
    state.x = x_new
    state.q = new_q
    n_symbols = len(stats.measured_alphabet)
    measured_width = (n_symbols - 1).bit_length() if n_symbols else 0
    error = float("nan") if error_fn is None else error_fn(x_new)
    rec = RunRecord(
        k=k + 1,
        x_value=x_new,
        error=error,
        delta=pre_q.delta,
        b_q=pre_q.b_q,
        zoom_event=event,
        consensus_rounds=stats.rounds,
        mass_transmissions=stats.mass_transmissions,
        bits_paper_mode=width * stats.mass_transmissions,
        bits_measured_mode=measured_width * stats.mass_transmissions,
    )
    state.history.append(rec)
    return state, rec


def run_until(state, g, s, alpha, policy, stop, rng):
    """Iterate ``step`` until an error target or a step budget is hit.

    ``stop`` carries ``max_steps`` and/or ``target_error``; at least one
    must be set (a non-finite target_error counts as unset).  The error is
    measured against the closed-form optimum, normalized by the spread of
    the starting estimates.
    """
    max_steps = stop.get("max_steps")
    target = stop.get("target_error")
    if target is not None and target != target:  # NaN guard
        target = None
    if target is not None and not (float("-inf") < target < float("inf")):
        target = None
    if max_steps is None and target is None:
        raise ValueError("stop needs max_steps or a finite target_error")

    x_star = s.global_optimum
    spread = start_spread(state.x_init, x_star)

    def error_fn(x):
        return error_metric(x, x_star, spread)

    while max_steps is None or len(state.history) < max_steps:
        _, rec = step(state, g, s, alpha, policy, rng, error_fn=error_fn)
        if target is not None and rec.error <= target:
            break
    return state.history
