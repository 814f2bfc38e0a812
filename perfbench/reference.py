"""A fixed pure-Python kernel that measures how fast the host runs right now.

The CPU speed of a shared host drifts: on the shared 2-core Xeon host this
benchmark was written on, the same CLI invocation took anywhere from 3.3 to
5.4 s in successive 20-second windows.  The gated times are therefore reported in
reference seconds: each sample's host seconds times ``NOMINAL_S`` over the
mean time of this kernel run just before and just after it.  Over ten runs
per workload on that host this cut the spread of wall times (quartile
distance over median) from 0.12-0.28 to 0.06-0.11, and it keeps the unit
close to a host second.

The kernel does what zoomgrad's exact arithmetic does, big-integer
``Fraction`` steps and dict updates, but uses no zoomgrad code, so a change
to zoomgrad cannot move it.  Changing this file changes the unit of the
gated times; do so only in a change that measures the baseline again.
"""

from fractions import Fraction
from time import perf_counter

REPS = 45
NOMINAL_S = 0.11  # what ``seconds()`` took on that host


def seconds(reps=REPS):
    """Host seconds for ``reps`` rounds of the fixed kernel."""
    start = perf_counter()
    for _ in range(reps):
        f = Fraction(1, 3)
        pairs = []
        for _ in range(300):
            f = f * Fraction(3, 4) + Fraction(1, 7)
            pairs.append((f.numerator // 3, f.denominator % 1000))
        widths = {}
        for a, b in pairs:
            widths[b] = max(widths.get(b, 0), a.bit_length())
    return perf_counter() - start


def scaled(host_seconds, before, after):
    """``host_seconds`` in reference seconds, given the kernel times around it."""
    return host_seconds * NOMINAL_S * 2 / (before + after)
