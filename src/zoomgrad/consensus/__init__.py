"""Quantized average consensus subsystem (pure engine + optional C kernel).

Only the product's entry points are exported here; the engine's internals
are imported from ``zoomgrad.consensus.engine``.
"""

from .engine import ConsensusCapError, active_backend, run_consensus

__all__ = ["ConsensusCapError", "active_backend", "run_consensus"]
