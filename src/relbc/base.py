"""The names every relbc layer shares, in a module that loads no other
relbc layer until a modulus is checked, alone or in a ``Request``, which
loads ``relbc.field``.

The protocol kinds and the engine names; ``Request``, each rule of a
simulation request stated once, the protocol it runs among them, with
``check_int``, ``check_modulus`` and ``check_tree_stations`` for a count,
a modulus or a station range checked alone; ``ResourceGuardError``, the
refusal of every work budget, with ``capped_product``, which sizes a
search without multiplying it out; and ``_real``, an integer parameter
as a float or a ValueError naming it.  ``relbc.protocol``, ``relbc.sim`` and
``relbc.tree`` re-export some of them; ``relbc.games``,
``relbc.formulas`` and ``relbc.cli`` need nothing else.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Mapping, Optional

KIND_SINGLE = "single"
KIND_FQ = "fq"
KIND_TREE = "tree"
KINDS = (KIND_SINGLE, KIND_FQ, KIND_TREE)

# The Monte Carlo engines: the station walk alone, or every trial also
# run through the event engine (``analysis.monte_carlo_reliability``).
ENGINES = ("fast", "events")

# Each level of a node label is one digit, so a node has at most ten
# children and a tree at most eleven stations.
MAX_STATIONS = 11


def check_modulus(q: int) -> None:
    """ValueError naming q unless ``relbc.field.Field`` takes it: a prime below its cap."""
    from .field import Field  # loaded only when a modulus is checked

    try:
        Field(q)
    except ValueError as exc:
        raise ValueError(f"q: {exc}") from None


def check_tree_stations(n_stations: int) -> None:
    """ValueError unless the tree protocol runs on ``n_stations`` stations:
    3 to MAX_STATIONS, since two stations color the chain's path."""
    if not 3 <= n_stations <= MAX_STATIONS:
        raise ValueError(f"n_stations: a tree takes 3 to {MAX_STATIONS} stations, got {n_stations}")


_WANTS = {str: "a string", int: "an integer", numbers.Real: "a number"}


def type_fault(name: str, value, took: type) -> str:
    """The fault of a field ``name`` whose ``value`` is no ``took``."""
    return f"{name}: expected {_WANTS[took]}, got {value!r:.40}"


def _mistyped(value, took) -> bool:
    return isinstance(value, bool) or not isinstance(value, took)  # a bool is no count or number


def _below(name: str, value: int, least: int) -> str:
    return f"{name}: must be >= {least}, got {value}"


def check_int(value, name: str, least: Optional[int] = None) -> None:
    """``Request``'s rule of a count, for one checked alone: ValueError
    naming ``name`` unless ``value`` is an int, at least ``least`` if given."""
    if _mistyped(value, int):
        raise ValueError(type_fault(name, value, int))
    if least is not None and value < least:
        raise ValueError(_below(name, value, least))


# The type each field of a Request takes, in the order its faults are listed
_TYPES = {"kind": str, "k": int, "q": int, "p": numbers.Real, "m": int, "n_stations": int,
          "prune_lag": int, "seed": int, "trials": int, "engine": str}


class Request:
    """A simulation request, checked as it is made: protocol ``kind``, depth
    ``k``, ``n_stations``, pruning lag ``prune_lag``, station loss ``p``,
    dead time ``m``, modulus ``q``, ``seed``, ``trials`` and ``engine``.
    Every default passes, so a caller sets only the fields it has, and no
    field can be set after.

    A bad request raises one ValueError, its faults joined by "; ": the
    type faults if there are any, else every range fault, in the order
    and with the texts of ``relbc simulate``, which names the lag ``LAG``.
    A request that passes holds the protocol it runs: a tree as asked,
    any other kind the chained protocol on two stations, named ``single``
    exactly when k = 1, where a request for ``single`` always means k = 1.
    It holds p as given, so an exact Fraction stays exact.  It is a
    plain class: a dataclass takes about 1 ms to build at import on a
    2-core host, a tenth of ``import relbc.cli``.
    """

    LAG = "prune_lag"

    def __init__(self, kind: str = KIND_TREE, k: int = 1, n_stations: int = 3, prune_lag: int = 2,
                 p: float = 0.0, m: int = 1, q: int = 2, seed: Optional[int] = 0, trials: int = 1,
                 engine: str = "fast"):
        self.__dict__.update(kind=kind, k=k, n_stations=n_stations, prune_lag=prune_lag, p=p, m=m, q=q,
                             seed=seed, trials=trials, engine=engine)
        faults = self.type_faults(vars(self)) or self._range_faults()
        if faults:
            raise ValueError("; ".join(faults))
        if kind != KIND_TREE:
            k = 1 if kind == KIND_SINGLE else k
            self.__dict__.update(kind=KIND_SINGLE if k == 1 else KIND_FQ, k=k, n_stations=2)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Request is frozen: cannot set {name}")

    @classmethod
    def type_faults(cls, fields: Mapping[str, object]) -> list[str]:
        """The faults of ``fields``, a request's values by name, of the wrong type."""
        names = {"kind": "protocol", "prune_lag": cls.LAG}
        return [type_fault(names.get(name, name), fields[name], took) for name, took in _TYPES.items()
                if _mistyped(fields[name], took) and not (name == "seed" and fields[name] is None)]

    def _range_faults(self) -> list[str]:
        faults = [  # one rule a line, each a fault or None
            None if self.kind in KINDS else f"protocol: must be one of {KINDS}, got {self.kind!r}",
            None if self.k >= 1 else _below("k", self.k, 1),
            _raised(check_modulus, self.q),
            None if 0 <= self.p <= 1 else f"p: must be in [0,1], got {self.p}",
            _below("m", self.m, 1) if self.m < 1 else _raised(_real, self.m, "m"),
            _raised(check_tree_stations, self.n_stations) if self.kind == KIND_TREE else None,
            None if self.prune_lag >= 1 else f"{self.LAG}: pruning lag must be >= 1, got {self.prune_lag}",
            ("seed: required for simulation (reproducibility contract)" if self.seed is None
             else None if self.seed >= 0 else _below("seed", self.seed, 0)),
            None if self.trials >= 1 else _below("trials", self.trials, 1),
            None if self.engine in ENGINES
            else f"engine: must be {' or '.join(map(repr, ENGINES))}, got {self.engine!r}",
        ]
        return [fault for fault in faults if fault]


def _raised(check, *args) -> Optional[str]:
    """The text of the ValueError ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


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
