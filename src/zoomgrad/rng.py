"""Seeded portable random number generator (PCG32).

Every random choice in the simulator flows through this generator so that a
run is reproducible bit-for-bit across platforms and across the pure-Python
and compiled backends (the C kernel, which runs the consensus rounds, the
graph's shuffle and edge draws and bulk ``randbelow`` draws, re-implements the same
three-line state transition and ``randbelow``'s rejection rule on C
integers).

Algorithm: PCG XSH-RR 64/32 (O'Neill's pcg32).  State advances by a 64-bit
LCG ``state = state * 6364136223846793005 + inc``; each 32-bit output applies
an xorshift followed by a data-dependent rotate to the *previous* state:

    xorshifted = ((state >> 18) ^ state) >> 27     (low 32 bits)
    rot        = state >> 59
    output     = xorshifted rotated right by rot

Seeding follows the reference ``pcg32_srandom``: the stream selector is
folded into the increment (``inc = 2*initseq + 1``), so distinct stream ids
give statistically independent sequences for the same seed.  The simulator
reserves one stream per concern (graph topology, costs, initial states,
protocol coin flips) so that, e.g., changing the cost draw does not perturb
the generated graph.
"""

from __future__ import annotations

__all__ = [
    "PCG32",
    "STREAM_GRAPH",
    "STREAM_COSTS",
    "STREAM_XINIT",
    "STREAM_PROTOCOL",
]

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1

# Stream ids: one sub-generator per source of randomness in a run.
STREAM_GRAPH = 1
STREAM_COSTS = 2
STREAM_XINIT = 3
STREAM_PROTOCOL = 4


class PCG32:
    """pcg32 generator; ``PCG32(seed, stream)`` picks a stream of the seed."""

    __slots__ = ("state", "inc")

    # initseq keeps its default for the benchmark's backend parity replay
    # (``perfbench/run.py`` ``parity_run``), which calls ``type(rng)(0)``.
    def __init__(self, initstate: int, initseq: int = 0):
        self.state = 0
        self.inc = ((initseq << 1) | 1) & _MASK64
        self.next_u32()
        self.state = (self.state + initstate) & _MASK64
        self.next_u32()

    def next_u32(self) -> int:
        """Return the next output, a uniform integer in [0, 2^32)."""
        old = self.state
        self.state = (old * _MULT + self.inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased).

        ``n <= 1`` returns 0 without consuming a draw; the compiled kernel
        mirrors this so both backends see identical streams.  ``n`` must fit
        a single 32-bit output — beyond that the rejection region would
        swallow every draw and the loop could never accept.
        """
        if n <= 1:
            return 0
        if n > 1 << 32:
            raise ValueError("randbelow bound %d exceeds the 32-bit output range" % n)
        threshold = ((1 << 32) - n) % n
        while True:
            r = self.next_u32()
            if r >= threshold:
                return r % n

    # Only the benchmark's backend parity replay (``perfbench/run.py``
    # ``parity_run``) reads getstate and setstate.
    def getstate(self) -> tuple[int, int]:
        return (self.state, self.inc)

    def setstate(self, snapshot: tuple[int, int]) -> None:
        self.state, self.inc = snapshot

