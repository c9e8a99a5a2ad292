"""Complete n-ary tree topology: node addressing, coloring, liveness.

Nodes are strings over the digit alphabet ``'0'..'n-1'`` (``'0'`` = left,
``'1'`` = right for the binary tree); the root is the empty string.  Depth
equals string length, and lexicographic order of equal-length strings is
the left-to-right order of a level.

Canonical coloring: the root has color 1, and child t of a color-c node
has the t-th (0-based) of the colors 1..n other than c, in increasing
order, which is ``t + 1 if t + 1 < c else t + 2``.  Every family
{v} + children(v) thus uses each of the n station colors once.  A node's
color is this rule folded over its digits, so no coloring is ever
stored.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, Optional

ROOT = ""

ALIVE = "alive"
DEAD = "dead"
UNQUERIED = "unqueried"


def depth(v: str) -> int:
    return len(v)


def parent(v: str) -> str:
    if not v:
        raise ValueError("the root has no parent")
    return v[:-1]


def brother(v: str) -> str:
    """The other child of v's parent (binary trees only)."""
    if not v:
        raise ValueError("the root has no brother")
    t = v[-1]
    if t not in "01":
        raise ValueError("brother() is defined for binary trees; use siblings()")
    return v[:-1] + ("1" if t == "0" else "0")


def siblings(v: str, arity: int) -> list[str]:
    if not v:
        raise ValueError("the root has no siblings")
    return [v[:-1] + str(t) for t in range(arity) if str(t) != v[-1]]


def child(v: str, t: int, arity: int = 2) -> str:
    if not 0 <= t < arity:
        raise ValueError(f"child index {t} out of range for arity {arity}")
    return v + str(t)


def children(v: str, arity: int = 2) -> list[str]:
    return [v + str(t) for t in range(arity)]


def nodes_at_depth(j: int, arity: int = 2) -> Iterator[str]:
    """All depth-j nodes in left-to-right order."""
    if j == 0:
        yield ROOT
        return
    from itertools import product

    digits = [str(t) for t in range(arity)]
    for combo in product(digits, repeat=j):
        yield "".join(combo)


def from_lr(s: str) -> str:
    """Convenience parser for binary node labels written with l/r letters."""
    table = {"l": "0", "r": "1"}
    return "".join(table[ch] for ch in s)


def to_lr(v: str) -> str:
    table = {"0": "l", "1": "r"}
    return "".join(table[ch] for ch in v) if v else "root"


class Coloring:
    """Station assignment for every node of the depth-k complete tree.

    With ``n_stations`` stations the tree has arity ``n_stations - 1`` and
    every internal node's family {v} + children(v) must use all station
    colors exactly once.  Colors are 1-based.

    Without an explicit assignment the coloring is the canonical rule,
    computed per node on demand (see the module docstring), and
    ``assignment`` is a read-only view of it.  An explicit assignment is
    validated against the family rule over the whole tree.
    """

    def __init__(
        self, k: int, n_stations: int, assignment: Optional[Mapping[str, int]] = None
    ):
        if k < 1:
            raise ValueError("depth k must be >= 1")
        if n_stations < 3:
            raise ValueError("need at least 3 stations")
        self.k = k
        self.n_stations = n_stations
        self.arity = n_stations - 1
        if assignment is None:
            self.assignment: Mapping[str, int] = CanonicalColors(self)
        else:
            self.assignment = dict(assignment)
            self.validate()

    @property
    def is_canonical(self) -> bool:
        return isinstance(self.assignment, CanonicalColors)

    def color(self, v: str) -> int:
        return self.assignment[v]

    def validate(self) -> None:
        all_colors = set(range(1, self.n_stations + 1))
        for j in range(self.k):
            for v in nodes_at_depth(j, self.arity):
                family = {self.assignment[v]}
                family.update(self.assignment[c] for c in children(v, self.arity))
                if family != all_colors:
                    raise ValueError(
                        f"coloring violated at node {v!r}: family colors {family}"
                    )

    def child_colors(self, color: int) -> list[int]:
        """Colors of the children of any node with the given color, in
        left-to-right order (canonical rule: the t-th missing color)."""
        return [t + 1 if t + 1 < color else t + 2 for t in range(self.arity)]


class CanonicalColors(Mapping[str, int]):
    """Read-only node -> color view of the canonical rule; stores nothing.

    A lookup folds the rule over the node's digits, O(depth).  ``len()``
    is the node count of the depth-k tree, so like ``range`` it raises
    OverflowError once that count exceeds ``sys.maxsize``.
    """

    def __init__(self, coloring: Coloring):
        self.k = coloring.k
        self.arity = coloring.arity
        self._rows = [None] + [
            coloring.child_colors(c) for c in range(1, coloring.n_stations + 1)
        ]

    def __getitem__(self, v: str) -> int:
        if not isinstance(v, str) or len(v) > self.k:
            raise KeyError(v)
        c = 1
        for ch in v:
            t = ord(ch) - ord("0")
            if not 0 <= t < self.arity:
                raise KeyError(v)
            c = self._rows[c][t]
        return c

    def __iter__(self) -> Iterator[str]:
        for j in range(self.k + 1):
            yield from nodes_at_depth(j, self.arity)

    def __len__(self) -> int:
        return (self.arity ** (self.k + 1) - 1) // (self.arity - 1)


def make_coloring(k: int, n_stations: int = 3) -> Coloring:
    return Coloring(k, n_stations)


@dataclass
class Liveness:
    """Per-node status map; nodes never touched by the receiver stay
    unqueried."""

    status: dict[str, str] = field(default_factory=dict)

    def set(self, v: str, st: str) -> None:
        if st not in (ALIVE, DEAD, UNQUERIED):
            raise ValueError(f"unknown status {st!r}")
        self.status[v] = st

    def get(self, v: str) -> str:
        return self.status.get(v, UNQUERIED)

    def is_alive(self, v: str) -> bool:
        return self.status.get(v) == ALIVE


def leftmost_alive(j: int, live: Liveness, arity: int = 2) -> Optional[str]:
    """Leftmost depth-j node whose whole root path is alive, or None.

    Depth-first with backtracking: a branch that goes dead above depth j
    does not hide alive nodes further right.
    """
    if not live.is_alive(ROOT):
        return None
    stack = [ROOT]
    while stack:
        v = stack.pop()
        if depth(v) == j:
            return v
        for t in reversed(range(arity)):
            w = v + str(t)
            if live.is_alive(w):
                stack.append(w)
    return None


def is_accessible(w: str, v: str, coloring: Coloring, acc_delay: int = 2) -> bool:
    """Whether the challenge at w is available to the agent answering v.

    Everything at least ``acc_delay`` rounds old is globally known (the
    signal had time to reach every station); same-color history is local
    and always known.  The committed bit is tracked separately and is not
    part of this rule.  Only internal nodes (depth < k) carry challenges.
    """
    dw, dv = len(w), len(v)
    if dw >= dv or dw >= coloring.k:
        return False
    return dw <= dv - acc_delay or coloring.color(w) == coloring.color(v)


def accessible_set(v: str, coloring: Coloring, acc_delay: int = 2) -> set[str]:
    """Every node w with ``is_accessible(w, v, ...)``.

    The set holds whole tree levels, so it costs O(arity^depth(v)); run
    paths filter the nodes they scheduled with ``is_accessible`` instead.
    """
    return {
        w
        for j in range(min(depth(v), coloring.k))
        for w in nodes_at_depth(j, coloring.arity)
        if is_accessible(w, v, coloring, acc_delay)
    }
