"""Desk-scale laboratory for relativistic bit commitment.

Finite-field arithmetic, colored-tree topology, executable commitment
protocols, a causality-checked event simulator with station failures,
exact cheating oracles, restricted nonlocal games, and closed-form
performance analysis.

The namespace is lazy: ``import relbc`` loads no layer, and each name of
``__all__`` imports its module on first use (PEP 562), so a command of
``relbc.cli`` pays only for the layers it runs.  ``from relbc import X``
and ``from relbc import *`` work as for any package.
"""

import importlib

__version__ = "1.0.0"

# each public name and the module it lives in
_HOMES = {
    "Field": "field",
    "Geometry": "sim",
    "KIND_FQ": "base",
    "KIND_SINGLE": "base",
    "KIND_TREE": "base",
    "LossModel": "sim",
    "ResourceGuardError": "base",
    "Transcript": "protocol",
    "Verdict": "protocol",
    "derived_rng": "field",
    "is_prime": "field",
    "run_protocol": "sim",
    "verify_tree": "protocol",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
