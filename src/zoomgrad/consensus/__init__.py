"""Quantized average consensus subsystem (pure engine + optional C kernel)."""

from .engine import (
    ROUND_CAP,
    ConsensusCapError,
    ConsensusStats,
    FloodState,
    MassState,
    active_backend,
    check_stop,
    consensus_round,
    effective_epoch,
    init_consensus,
    run_consensus,
    sample_out_target,
    trace_header,
)

__all__ = [
    "ROUND_CAP",
    "ConsensusCapError",
    "ConsensusStats",
    "FloodState",
    "MassState",
    "active_backend",
    "check_stop",
    "consensus_round",
    "effective_epoch",
    "init_consensus",
    "run_consensus",
    "sample_out_target",
    "trace_header",
]
