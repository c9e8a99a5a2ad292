"""Complete n-ary tree topology: node addressing, coloring, accessibility.

Nodes are strings over the digit alphabet ``'0'..'n-1'`` (``'0'`` = left,
``'1'`` = right for the binary tree); the root is the empty string.  Depth
equals string length, and lexicographic order of equal-length strings is
the left-to-right order of a level.

Canonical coloring: the root has color 1, and child t of a color-c node
has the t-th (0-based) of the colors 1..n other than c, in increasing
order, which is ``t + 1 if t + 1 < c else t + 2``.  Every family
{v} + children(v) thus uses each of the n station colors once.  A node's
color is this rule folded over its digits, so no coloring is ever
stored.  At n = 2 the tree is a path, "", "0", "00", ..., whose colors
alternate 1 and 2: the chained protocol's station schedule.
"""

from __future__ import annotations

from typing import Iterator

# the tree's station range is a request rule, re-exported here
from .base import MAX_STATIONS, check_int, check_tree_stations  # noqa: F401

ROOT = ""


def depth(v: str) -> int:
    return len(v)


def parent(v: str) -> str:
    if not v:
        raise ValueError("the root has no parent")
    return v[:-1]


def nodes_at_depth(j: int, arity: int = 2) -> Iterator[str]:
    """All depth-j nodes in left-to-right order."""
    if j == 0:
        yield ROOT
        return
    from itertools import product

    digits = [str(t) for t in range(arity)]
    for combo in product(digits, repeat=j):
        yield "".join(combo)


class Coloring:
    """Station assignment for every node of the depth-k complete tree.

    With ``n_stations`` stations the tree has arity ``n_stations - 1`` and
    every internal node's family {v} + children(v) uses all station colors
    exactly once.  Colors are 1-based.  The coloring is the canonical
    rule, computed per node on demand (see the module docstring); nothing
    is stored.  Two stations give the chain's path; the protocol tree
    itself takes 3 or more, which ``sim.run_protocol`` checks.  A depth or
    station count that is no int or out of range raises ValueError.
    """

    def __init__(self, k: int, n_stations: int):
        check_int(k, "k", 1)
        check_int(n_stations, "n_stations")
        if not 2 <= n_stations <= MAX_STATIONS:
            raise ValueError(
                f"n_stations: a coloring takes 2 to {MAX_STATIONS} stations, got {n_stations}"
            )
        self.k = k
        self.n_stations = n_stations
        self.arity = n_stations - 1

    def color(self, v: str) -> int:
        """The color of node v, folding the rule over its digits, O(depth).

        Raises KeyError for a label that is not a node of the depth-k tree.
        """
        if not isinstance(v, str) or len(v) > self.k:
            raise KeyError(v)
        c = 1
        for ch in v:
            t = ord(ch) - ord("0")
            if not 0 <= t < self.arity:
                raise KeyError(v)
            c = t + 1 if t + 1 < c else t + 2
        return c

    def child_colors(self, color: int) -> list[int]:
        """Colors of the children of any node with the given color, in
        left-to-right order (canonical rule: the t-th missing color)."""
        return [t + 1 if t + 1 < color else t + 2 for t in range(self.arity)]


def make_coloring(k: int, n_stations: int = 3) -> Coloring:
    return Coloring(k, n_stations)


def in_light_cone(src_time: int, src_station: int, time: int, station: int) -> bool:
    """The strict light cone: whether an event at (src_time, src_station)
    can be used at (time, station).  At its own station it can from the
    same moment on; at another only strictly after its signal has crossed
    the distance, one light-round between distinct stations.

    The rule is exact for any layout whose pairwise station distances lie
    in [D, 2D), with a round of D/c: at whole rounds, t' - t > d/D holds
    for every such d exactly when t' - t >= 2.  Any n <= 11 stations fit,
    on n vertices of a regular icosahedron of edge D (distances D, 1.618D
    and 1.902D)."""
    return src_time <= time if src_station == station else src_time + 1 < time


def is_accessible(w: str, v: str, coloring: Coloring) -> bool:
    """Whether the challenge at w is available to the agent answering v.

    The challenge at depth j is sent at time j from its node's station and
    v is answered at time depth(v), so the agent knows the challenges of
    earlier rounds ``in_light_cone``.  The committed bit is tracked
    separately.  Only internal nodes (depth < k) carry challenges.
    """
    dw, dv = len(w), len(v)
    if dw >= dv or dw >= coloring.k:
        return False
    return in_light_cone(dw, coloring.color(w), dv, coloring.color(v))


def accessible_set(v: str, coloring: Coloring) -> set[str]:
    """Every node w with ``is_accessible(w, v, coloring)``.

    The set is built from whole tree levels, so it costs O(arity^depth(v));
    the strategy tables of ``relbc.adversary`` use it on trees a few
    levels deep.
    """
    return {
        w
        for j in range(min(depth(v), coloring.k))
        for w in nodes_at_depth(j, coloring.arity)
        if is_accessible(w, v, coloring)
    }
