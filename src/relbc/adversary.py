"""Cheating-committer strategies and exact sum-binding oracles.

A deterministic strategy is a set of lookup tables: for every internal
node a response table keyed by the node's own challenge plus the history
values its station can legitimately have seen, and for every (leaf, bit)
pair a reveal table keyed by the leaf's accessible history.  Keeping the
tables keyed by accessible values makes the no-signaling constraint
structural rather than policed at evaluation time.

The brute-force oracles enumerate every deterministic strategy for tiny
instances and return the exact maximum of
    success(open 0) + success(open 1),
which exceeds 1 by the binding parameter.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from .field import Field, derived_rng
from . import tree as tt
from .protocol import (
    KIND_FQ,
    KIND_SINGLE,
    KIND_TREE,
    Record,
    Reveal,
    ShareTable,
    Transcript,
    verify_tree,
)
from .sim import ResourceGuardError

DEFAULT_BUDGET = 20_000_000


def _acc_nodes(v: str, coloring: tt.Coloring, acc_delay: int) -> list[str]:
    return sorted(tt.accessible_set(v, coloring, acc_delay))


class StrategyTable:
    """Deterministic cheating strategy for the tree protocol.

    ``responses[v]`` maps ``(b_v, *history values)`` to an answer or None
    (stay silent); ``reveals[(leaf, d)]`` maps the leaf's history values to
    the share claimed when trying to open ``d``, or None (leaf silent).
    """

    def __init__(
        self,
        k: int,
        field: Field,
        coloring: tt.Coloring,
        responses: dict[str, dict[tuple, Optional[int]]],
        reveals: dict[tuple[str, int], dict[tuple, Optional[int]]],
        acc_delay: int = 2,
        name: str = "",
    ):
        self.k = k
        self.field = field
        self.coloring = coloring
        self.responses = responses
        self.reveals = reveals
        self.acc_delay = acc_delay
        self.name = name
        self.needs_history = True

    def _key(self, v: str, acc_view: dict[str, int]) -> tuple:
        return tuple(acc_view[w] for w in _acc_nodes(v, self.coloring, self.acc_delay))

    def respond(self, v: str, b_v: int, acc_view: dict[str, int]) -> Optional[int]:
        return self.responses[v][(b_v,) + self._key(v, acc_view)]

    def reveal_claim(self, leaf: str, acc_view: dict[str, int], d: int) -> Optional[int]:
        return self.reveals[(leaf, d)][self._key(leaf, acc_view)]

    @classmethod
    def from_functions(
        cls,
        k: int,
        field: Field,
        respond_fn: Callable[[str, int, dict[str, int]], Optional[int]],
        reveal_fn: Callable[[str, dict[str, int], int], Optional[int]],
        n_stations: int = 3,
        acc_delay: int = 2,
        budget: int = DEFAULT_BUDGET,
        name: str = "",
    ) -> "StrategyTable":
        """Tabulate arbitrary functions over every accessible-history tuple."""
        coloring = tt.make_coloring(k, n_stations)
        q = field.q
        responses: dict[str, dict[tuple, Optional[int]]] = {}
        reveals: dict[tuple[str, int], dict[tuple, Optional[int]]] = {}
        cost = 0
        for j in range(k):
            for v in tt.nodes_at_depth(j, coloring.arity):
                acc = _acc_nodes(v, coloring, acc_delay)
                cost += q ** (1 + len(acc))
                if cost > budget:
                    raise ResourceGuardError(
                        f"strategy tabulation needs more than {budget} entries"
                    )
                tab = {}
                for combo in product(range(q), repeat=1 + len(acc)):
                    view = dict(zip(acc, combo[1:]))
                    tab[combo] = respond_fn(v, combo[0], view)
                responses[v] = tab
        for leaf in tt.nodes_at_depth(k, coloring.arity):
            acc = _acc_nodes(leaf, coloring, acc_delay)
            for d in (0, 1):
                cost += q ** len(acc)
                if cost > budget:
                    raise ResourceGuardError(
                        f"strategy tabulation needs more than {budget} entries"
                    )
                tab = {}
                for combo in product(range(q), repeat=len(acc)):
                    view = dict(zip(acc, combo))
                    tab[combo] = reveal_fn(leaf, view, d)
                reveals[(leaf, d)] = tab
        return cls(k, field, coloring, responses, reveals, acc_delay, name)


def audit_information_constraint(strat: StrategyTable) -> None:
    """Check the tables are total functions of exactly the allowed inputs.

    Raises on a missing or extraneous key; by construction a table lookup
    can then never depend on anything outside the accessible set.
    """
    q = strat.field.q
    for j in range(strat.k):
        for v in tt.nodes_at_depth(j, strat.coloring.arity):
            acc = _acc_nodes(v, strat.coloring, strat.acc_delay)
            expected = set(product(range(q), repeat=1 + len(acc)))
            got = set(strat.responses[v])
            if got != expected:
                raise AssertionError(f"response table at {v!r} keyed incorrectly")
            if v == tt.ROOT and any(y is None for y in strat.responses[v].values()):
                raise AssertionError("a silent root is an immediate abort; not allowed")
    for leaf in tt.nodes_at_depth(strat.k, strat.coloring.arity):
        acc = _acc_nodes(leaf, strat.coloring, strat.acc_delay)
        expected = set(product(range(q), repeat=len(acc)))
        for d in (0, 1):
            if set(strat.reveals[(leaf, d)]) != expected:
                raise AssertionError(f"reveal table at {leaf!r} (d={d}) keyed incorrectly")


def _internal_nodes(k: int, arity: int) -> list[str]:
    out = []
    for j in range(k):
        out.extend(tt.nodes_at_depth(j, arity))
    return out


def strategy_eval(
    strat: StrategyTable, budget: int = DEFAULT_BUDGET
) -> tuple[float, float]:
    """Exact per-bit success probabilities of a fixed tree strategy.

    Enumerates every receiver challenge assignment (uniform product
    measure over the internal nodes, no pruning) and runs the real
    verifier on the induced transcript, once per target bit.
    """
    field, k, coloring = strat.field, strat.k, strat.coloring
    q = field.q
    internals = _internal_nodes(k, coloring.arity)
    n_hist = q ** len(internals)
    if n_hist * (2 * q) > budget:
        raise ResourceGuardError(
            f"{n_hist} histories at q={q}, k={k} exceed the evaluation budget"
        )
    leaves = list(tt.nodes_at_depth(k, coloring.arity))
    wins = [0, 0]
    for combo in product(range(q), repeat=len(internals)):
        bs = dict(zip(internals, combo))
        base = Transcript(kind=KIND_TREE, k=k, q=q, n_stations=coloring.n_stations)
        for v in internals:
            acc_view = {w: bs[w] for w in _acc_nodes(v, coloring, strat.acc_delay)}
            y = strat.respond(v, bs[v], acc_view)
            base.records[v] = Record(
                b=bs[v], y=y, round=len(v) + 1, color=coloring.color(v)
            )
        for d in (0, 1):
            tr = Transcript(
                kind=KIND_TREE,
                k=k,
                q=q,
                n_stations=coloring.n_stations,
                records=base.records,
            )
            for leaf in leaves:
                acc_view = {w: bs[w] for w in _acc_nodes(leaf, coloring, strat.acc_delay)}
                claim = strat.reveal_claim(leaf, acc_view, d)
                if claim is not None:
                    tr.reveals[leaf] = Reveal(d=d, claim=claim)
            verdict = verify_tree(tr, tr.liveness(), coloring, field)
            if verdict.outcome == "accept" and verdict.revealed == d:
                wins[d] += 1
    return wins[0] / n_hist, wins[1] / n_hist


def leftmost_distribution(strat: StrategyTable, j: int) -> dict[str, float]:
    """Diagnostic: distribution of the leftmost alive node at depth j over
    uniform challenge histories (nodes with zero mass omitted; missing
    total mass corresponds to aborted histories)."""
    field, k, coloring = strat.field, strat.k, strat.coloring
    q = field.q
    internals = _internal_nodes(k, coloring.arity)
    counts: dict[str, int] = {}
    total = q ** len(internals)
    for combo in product(range(q), repeat=len(internals)):
        bs = dict(zip(internals, combo))
        live = tt.Liveness()
        for v in internals:
            acc_view = {w: bs[w] for w in _acc_nodes(v, coloring, strat.acc_delay)}
            y = strat.respond(v, bs[v], acc_view)
            live.set(v, tt.ALIVE if y is not None else tt.DEAD)
        node = tt.leftmost_alive(j, live, coloring.arity)
        if node is not None:
            counts[node] = counts.get(node, 0) + 1
    return {v: c / total for v, c in sorted(counts.items())}


@dataclass
class BindingReport:
    kind: str
    k: int
    q: int
    sum: float
    epsilon: float
    bound: float
    search_size: int
    seconds: float
    strategy_id: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "k": self.k,
                "q": self.q,
                "sum": self.sum,
                "epsilon": self.epsilon,
                "bound": self.bound,
                "search_size": self.search_size,
                "seconds": self.seconds,
                "strategy": self.strategy_id,
            },
            indent=2,
        )


def reference_bound(kind: str, k: int, q: int) -> float:
    """Published sum upper bounds (1 + binding parameter); may exceed 2,
    in which case they are vacuous."""
    if kind == KIND_TREE:
        return 1 + 5 * k / (2 * q) ** 0.5
    # Chained protocols: binding parameter 2*sqrt(2)*k/sqrt(q).
    return 1 + 2 * (2**0.5) * k / q**0.5


def brute_force_single(field: Field, budget: int = DEFAULT_BUDGET) -> BindingReport:
    """Exact optimum for the single-round scheme.

    The committing agent's answer is any function y(b); the revealing
    agent is spacelike separated from the challenge, so each open attempt
    is a constant claim.  For fixed y the best claim per bit is the most
    frequent value of y(b) - d*b.
    """
    q = field.q
    if q**q * q > budget:
        raise ResourceGuardError(f"single-round search over q={q} exceeds budget")
    t0 = time.perf_counter()
    best_sum, best_y = -1.0, None
    for y_tab in product(range(q), repeat=q):
        total = 0
        for d in (0, 1):
            counts = [0] * q
            for b in range(q):
                counts[field.sub(y_tab[b], field.mul(d, b))] += 1
            total += max(counts)
        s = total / q
        if s > best_sum:
            best_sum, best_y = s, y_tab
    return BindingReport(
        kind=KIND_SINGLE,
        k=1,
        q=q,
        sum=best_sum,
        epsilon=best_sum - 1,
        bound=reference_bound(KIND_SINGLE, 1, q),
        search_size=q**q,
        seconds=time.perf_counter() - t0,
        strategy_id=f"y={best_y}",
    )


def brute_force_chain(field: Field, k: int, budget: int = DEFAULT_BUDGET) -> BindingReport:
    """Exact optimum for the chained protocol at k=2.

    Round-2 answers cannot depend on the round-1 challenge (the signal
    arrives exactly at the deadline, too late), so both answers are
    functions of the round's own challenge only.  The revealing agent sits
    at the round-1 station and legitimately knows b_1, hence the claim per
    bit is a function of b_1.
    """
    if k == 1:
        return brute_force_single(field, budget)
    if k != 2:
        raise ResourceGuardError("chained-protocol search supports k <= 2 only")
    q = field.q
    if q ** (2 * q) * q * q > budget:
        raise ResourceGuardError(f"chained search over q={q} exceeds budget")
    t0 = time.perf_counter()
    best_sum, best_id = -1.0, ""
    n_hist = q * q
    for y1 in product(range(q), repeat=q):
        for y2 in product(range(q), repeat=q):
            total = 0
            for d in (0, 1):
                # best claim per observed b_1: majority of the chain value
                per_b1 = 0
                for b1 in range(q):
                    counts = [0] * q
                    a1 = field.sub(y1[b1], field.mul(b1, d))
                    for b2 in range(q):
                        counts[field.sub(y2[b2], field.mul(b2, a1))] += 1
                    per_b1 += max(counts)
                total += per_b1
            s = total / n_hist
            if s > best_sum:
                best_sum, best_id = s, f"y1={y1}, y2={y2}"
    return BindingReport(
        kind=KIND_FQ,
        k=2,
        q=q,
        sum=best_sum,
        epsilon=best_sum - 1,
        bound=reference_bound(KIND_FQ, 2, q),
        search_size=q ** (2 * q),
        seconds=time.perf_counter() - t0,
        strategy_id=best_id,
    )


def _tree2_optimal_open(
    field: Field,
    y_root: tuple,
    y_left: tuple,
    y_right: tuple,
    d: int,
) -> tuple[float, dict]:
    """Best reveal-phase success for a fixed depth-2 commit strategy and
    target bit, maximizing over claim tables and over which sibling leaf
    stays silent (a silent brother frees the survivor from the consistency
    check)."""
    q = field.q
    # histories grouped by which depth-1 node carries the leftmost path
    per_path: dict[str, list[tuple[tuple, int]]] = {"0": [], "1": []}
    for b0 in range(q):
        for bl in range(q):
            for br in range(q):
                a0 = field.sub(y_root[b0], field.mul(b0, d))
                if y_left[bl] is not None:
                    alpha = field.sub(y_left[bl], field.mul(bl, a0))
                    per_path["0"].append(((b0, bl, br), alpha))
                elif y_right[br] is not None:
                    alpha = field.sub(y_right[br], field.mul(br, a0))
                    per_path["1"].append(((b0, bl, br), alpha))
                # else: both depth-1 nodes silent, the run aborts
    total = 0
    chosen: dict = {}
    # Accessible histories: left-of-left and left-of-right leaves know b_root;
    # the right leaves additionally know the same-colored depth-1 challenge.
    leaf_keys = {
        "00": lambda h: (h[0],),
        "01": lambda h: (h[0], h[2]),
        "10": lambda h: (h[0],),
        "11": lambda h: (h[0], h[1]),
    }
    for path, hists in per_path.items():
        best_leaf, best_score, best_tab = None, -1, None
        for leaf in (path + "0", path + "1"):
            keyf = leaf_keys[leaf]
            groups: dict[tuple, dict[int, int]] = {}
            for h, alpha in hists:
                groups.setdefault(keyf(h), {}).setdefault(alpha, 0)
                groups[keyf(h)][alpha] += 1
            score = 0
            tab = {}
            for key, alpha_counts in groups.items():
                alpha_best = max(sorted(alpha_counts), key=lambda a: alpha_counts[a])
                tab[key] = alpha_best
                score += alpha_counts[alpha_best]
            if score > best_score:
                best_leaf, best_score, best_tab = leaf, score, tab
        total += best_score
        chosen[path] = (best_leaf, best_tab)
    return total / q**3, chosen


def brute_force_tree(
    field: Field, k: int = 2, reduced: bool = True, budget: int = DEFAULT_BUDGET
) -> BindingReport:
    """Exact optimum for the depth-2 tree protocol.

    Commit strategies: the root always answers (silence there is an
    immediate abort); depth-1 nodes answer or refuse per challenge value.
    With ``reduced`` the right depth-1 node always answers, following the
    optimal-structure argument that refusing on the fallback branch can
    only lose; the unreduced search keeps the refusal option to verify the
    reduction is lossless.
    """
    if k != 2:
        raise ResourceGuardError("tree-protocol search supports k=2 only")
    q = field.q
    opts_left = list(product(list(range(q)) + [None], repeat=q))
    opts_right = (
        list(product(range(q), repeat=q)) if reduced else opts_left
    )
    search_size = q**q * len(opts_left) * len(opts_right)
    if search_size * 2 * q**3 > budget:
        raise ResourceGuardError(f"tree search over q={q} exceeds budget")
    t0 = time.perf_counter()
    best_sum, best_id, best_detail = -1.0, "", None
    for y_root in product(range(q), repeat=q):
        for y_left in opts_left:
            for y_right in opts_right:
                s = 0.0
                detail = []
                for d in (0, 1):
                    win, chosen = _tree2_optimal_open(field, y_root, y_left, y_right, d)
                    s += win
                    detail.append(chosen)
                if s > best_sum:
                    best_sum = s
                    best_id = f"root={y_root}, left={y_left}, right={y_right}"
                    best_detail = (y_root, y_left, y_right, detail)
    return BindingReport(
        kind=KIND_TREE,
        k=2,
        q=q,
        sum=best_sum,
        epsilon=best_sum - 1,
        bound=reference_bound(KIND_TREE, 2, q),
        search_size=search_size,
        seconds=time.perf_counter() - t0,
        strategy_id=best_id,
    ), best_detail


def argmax_strategy_table(field: Field, detail) -> StrategyTable:
    """Materialize the oracle's winning depth-2 strategy as an explicit
    lookup-table strategy, for replay through the real verifier."""
    y_root, y_left, y_right, per_d = detail

    def respond_fn(v, b, view):
        if v == tt.ROOT:
            return y_root[b]
        return y_left[b] if v == "0" else y_right[b]

    def reveal_fn(leaf, view, d):
        chosen = per_d[d]
        path = leaf[0]
        best_leaf, tab = chosen[path]
        if leaf != best_leaf:
            return None
        if leaf in ("00", "10"):
            key = (view[tt.ROOT],)
        elif leaf == "01":
            key = (view[tt.ROOT], view["1"])
        else:
            key = (view[tt.ROOT], view["0"])
        return tab.get(key)

    return StrategyTable.from_functions(2, field, respond_fn, reveal_fn, name="oracle-argmax")


def brute_force_binding(
    kind: str, k: int, field: Field, reduced: bool = True, budget: int = DEFAULT_BUDGET
) -> BindingReport:
    """Dispatch to the exact search for one protocol kind."""
    if kind == KIND_SINGLE:
        return brute_force_single(field, budget)
    if kind == KIND_FQ:
        return brute_force_chain(field, k, budget)
    if kind == KIND_TREE:
        report, _ = brute_force_tree(field, k, reduced, budget)
        return report
    raise ValueError(f"unknown protocol kind {kind!r}")


# ---------------------------------------------------------------------------
# Named heuristic attacks (depth-2 tree unless stated otherwise)


def honest_strategy_table(field: Field, k: int = 2, d_commit: int = 0, seed: int = 0) -> StrategyTable:
    """The honest committer as a strategy table: fixed shares, committed
    bit baked into the root answer, honest claims for either open attempt."""
    a = ShareTable.prepare_tree(k, field, derived_rng(seed, "heuristic-shares"))

    def respond_fn(v, b, view):
        if v == tt.ROOT:
            return field.add(a[tt.ROOT], field.mul(d_commit, b))
        return field.add(a[v], field.mul(b, a[tt.parent(v)]))

    def reveal_fn(leaf, view, d):
        return a[tt.parent(leaf)]

    return StrategyTable.from_functions(k, field, respond_fn, reveal_fn, name="honest")


def heuristic_attack(kind: str, field: Field, seed: int = 0) -> StrategyTable:
    """Build one of the named depth-2 cheating heuristics.

    * ``guess_share``: play honestly for bit 0; to open either bit, claim
      the value the chain would have if every unseen challenge were zero.
    * ``selective_silence``: the left depth-1 node answers only when its
      challenge is zero, which decouples the chain from the root answer on
      that branch and makes both opens succeed there.
    * ``late_decision``: answer with no bit folded in at the root and
      shift the choice of bit entirely to the reveal claims.
    """
    a = ShareTable.prepare_tree(2, field, derived_rng(seed, "heuristic-shares"))
    zero = 0

    if kind == "guess_share":

        def respond_fn(v, b, view):
            if v == tt.ROOT:
                return a[tt.ROOT]  # honest for d=0
            return field.add(a[v], field.mul(b, a[tt.ROOT]))

        def reveal_fn(leaf, view, d):
            # chain value for target d with unknown challenges guessed as 0:
            # alpha_child = a_child + b_child*b_root*d, b_child unseen -> a_child
            return a[leaf[0]]

        return StrategyTable.from_functions(2, field, respond_fn, reveal_fn, name=kind)

    if kind == "selective_silence":

        def respond_fn(v, b, view):
            if v == tt.ROOT:
                return a[tt.ROOT]
            if v == "0" and b != zero:
                return None  # refuse: hand the branch to the brother
            return field.add(a[v], field.mul(b, a[tt.ROOT]))

        def reveal_fn(leaf, view, d):
            if leaf.startswith("0"):
                # left path only survives with b=0 there: claim is exact
                return a["0"] if leaf == "00" else None
            if leaf == "10":
                # alpha_right = a_right + b_right*b_root*d; claim exact when
                # b_root = 0, otherwise hope b_right lands on zero
                return a["1"]
            return None

        return StrategyTable.from_functions(2, field, respond_fn, reveal_fn, name=kind)

    if kind == "late_decision":

        def respond_fn(v, b, view):
            if v == tt.ROOT:
                return a[tt.ROOT]
            return field.add(a[v], field.mul(b, a[tt.ROOT]))

        def reveal_fn(leaf, view, d):
            # alpha at the path node is a_node + b_node*b_root*d; the leaf
            # knows b_root, and when it is zero either bit opens exactly.
            b_root = view.get(tt.ROOT, 0)
            node = leaf[0]
            if d == 0 or b_root == zero:
                return a[node]
            return a[node]  # the path node's own challenge is unseen: guess zero

        return StrategyTable.from_functions(2, field, respond_fn, reveal_fn, name=kind)

    raise ValueError(f"unknown heuristic {kind!r}")


@dataclass(frozen=True)
class ChainStrategy:
    """Deterministic depth-2 chained-protocol cheat: per-round answer
    tables over the round's own challenge, and per-bit claim tables over
    the revealing agent's known challenge b_1."""

    y1: tuple
    y2: tuple
    claims: dict  # d -> {b1: claim}
    name: str = ""


def late_decision_chain(field: Field, seed: int = 0) -> ChainStrategy:
    """Answer both rounds with no bit folded in; at reveal, open either
    bit exactly whenever b_1 = 0 and guess otherwise."""
    rng = derived_rng(seed, "chain-shares")
    a1, a2 = field.sample(rng), field.sample(rng)
    y1 = tuple(field.add(a1, 0) for _ in range(field.q))
    y2 = tuple(field.add(a2, field.mul(b2, a1)) for b2 in range(field.q))
    claims = {d: {b1: a2 for b1 in range(field.q)} for d in (0, 1)}
    return ChainStrategy(y1, y2, claims, name="late_decision")


def eval_chain_strategy(strat: ChainStrategy, field: Field) -> tuple[float, float]:
    """Exact per-bit success of a fixed depth-2 chain strategy over
    uniform challenges."""
    q = field.q
    wins = [0, 0]
    for d in (0, 1):
        for b1 in range(q):
            a1 = field.sub(strat.y1[b1], field.mul(b1, d))
            for b2 in range(q):
                alpha2 = field.sub(strat.y2[b2], field.mul(b2, a1))
                if alpha2 == strat.claims[d][b1]:
                    wins[d] += 1
    return wins[0] / q**2, wins[1] / q**2
