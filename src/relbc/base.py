"""The names every relbc layer shares, in a module that imports nothing
from relbc.

The protocol kinds and ``resolve``, the one place that says which kind a
request runs; the Monte Carlo engine names; ``ResourceGuardError``, the
refusal of every work budget, with ``capped_product``, which sizes a
search without multiplying it out; and ``_real``, which turns an integer
parameter into a float or names it.
``relbc.protocol`` and ``relbc.sim`` re-export them, and the layers that
need nothing else (``relbc.games``, ``relbc.formulas``, ``relbc.cli``)
import them from here, so loading one of those loads no other layer.
"""

from __future__ import annotations

from typing import Iterable

KIND_SINGLE = "single"
KIND_FQ = "fq"
KIND_TREE = "tree"
KINDS = (KIND_SINGLE, KIND_FQ, KIND_TREE)

# The Monte Carlo engines: the station walk alone, or every trial also
# run through the event engine (``analysis.monte_carlo_reliability``).
ENGINES = ("fast", "events")


def resolve(kind: str, k: int, n_stations: int = 3) -> tuple[str, int, int]:
    """The (kind, k, n_stations) of the protocol a request runs.

    A tree runs as asked.  Any other kind is the chained protocol on two
    stations, named ``single`` exactly when k = 1; a request for
    ``single`` always means k = 1.  An unknown kind raises ValueError;
    the depth is left for the caller to check.
    """
    if kind == KIND_TREE:
        return kind, k, n_stations
    if kind not in KINDS:
        raise ValueError(f"unknown protocol kind {kind!r}")
    if kind == KIND_SINGLE:
        k = 1
    return (KIND_SINGLE if k == 1 else KIND_FQ), k, 2


class ResourceGuardError(RuntimeError):
    """A requested computation exceeds the configured enumeration budget."""


def _real(value: int, name: str) -> float:
    """An integer parameter as a float; ValueError naming it when it is
    too large for one."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: too large for a float, got {value!r:.40}") from None


def capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of ``factors``, or the first partial product over
    ``cap``.  Factors are multiplied one at a time, so a guard can refuse
    a q**q search without computing q**q; pass the factors as lazy
    iterables (``itertools.repeat``), and any factor that may be 0 first.
    """
    size = 1
    for f in factors:
        size *= f
        if size > cap:
            break
    return size
