"""Desk-scale laboratory for relativistic bit commitment.

Finite-field arithmetic, colored-tree topology, executable commitment
protocols, a causality-checked event simulator with station failures,
exact cheating oracles, restricted nonlocal games, and closed-form
performance analysis.
"""

from .field import Field, derived_rng, is_prime
from .protocol import (
    KIND_FQ,
    KIND_SINGLE,
    KIND_TREE,
    Transcript,
    Verdict,
    verify_fq,
    verify_tree,
)
from .sim import Geometry, LossModel, ResourceGuardError, run_protocol

__version__ = "1.0.0"

__all__ = [
    "Field",
    "Geometry",
    "KIND_FQ",
    "KIND_SINGLE",
    "KIND_TREE",
    "LossModel",
    "ResourceGuardError",
    "Transcript",
    "Verdict",
    "derived_rng",
    "is_prime",
    "run_protocol",
    "verify_fq",
    "verify_tree",
]
