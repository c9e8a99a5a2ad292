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
from fractions import Fraction
from itertools import chain, product, repeat
from typing import Callable, Iterator, Optional

from .base import ResourceGuardError, capped_product
from .field import Field, derived_rng
from . import games, tree as tt
from .formulas import binding_ceiling, x_sequence
from .protocol import (
    ACCEPT,
    KIND_FQ,
    KIND_SINGLE,
    KIND_TREE,
    Record,
    Reveal,
    Transcript,
    honest_response,
    resolve,
    verify_tree,
)

DEFAULT_BUDGET = 20_000_000


class StrategyTable:
    """Deterministic cheating strategy for the tree protocol.

    ``responses[v]`` maps ``(b_v, *history values)`` to an answer or None
    (stay silent); ``reveals[(leaf, d)]`` maps the leaf's history values to
    the share claimed when trying to open ``d``, or None (leaf silent).
    The history values are those of ``acc(v)``, in its order.
    """

    def __init__(
        self,
        k: int,
        field: Field,
        coloring: tt.Coloring,
        responses: dict[str, dict[tuple, Optional[int]]],
        reveals: dict[tuple[str, int], dict[tuple, Optional[int]]],
    ):
        self.k = k
        self.field = field
        self.coloring = coloring
        self.responses = responses
        self.reveals = reveals
        self._acc: dict[str, list[str]] = {}

    def acc(self, v: str) -> list[str]:
        """The nodes accessible to the agent at v, sorted; computed once
        per node and kept."""
        nodes = self._acc.get(v)
        if nodes is None:
            nodes = self._acc[v] = sorted(tt.accessible_set(v, self.coloring))
        return nodes

    def tables(self) -> Iterator[tuple[dict, object, str, int]]:
        """Every table, in one order, as ``(owner, key, node, width)``:
        ``owner[key]`` is the table and its keys are ``width`` long.  The
        internal nodes come level by level, keyed by ``(b_v, *acc(v))``,
        then each leaf's reveals for d = 0 and d = 1, keyed by
        ``acc(leaf)``."""
        arity = self.coloring.arity
        for j in range(self.k):
            for v in tt.nodes_at_depth(j, arity):
                yield self.responses, v, v, 1 + len(self.acc(v))
        for leaf in tt.nodes_at_depth(self.k, arity):
            width = len(self.acc(leaf))
            for d in (0, 1):
                yield self.reveals, (leaf, d), leaf, width

    @classmethod
    def from_functions(
        cls,
        k: int,
        field: Field,
        respond_fn: Callable[[str, int, dict[str, int]], Optional[int]],
        reveal_fn: Callable[[str, dict[str, int], int], Optional[int]],
        n_stations: int = 3,
    ) -> "StrategyTable":
        """Tabulate arbitrary functions over every accessible-history tuple.

        The q**width entries of every table are summed first, and a sum
        over ``DEFAULT_BUDGET`` raises ResourceGuardError before either
        function is called.
        """
        coloring = tt.make_coloring(k, n_stations)
        q = field.q
        strat = cls(k, field, coloring, {}, {})
        cost = 0
        for *_, width in strat.tables():
            cost += q**width
            if cost > DEFAULT_BUDGET:
                raise ResourceGuardError(
                    f"strategy tabulation needs more than {DEFAULT_BUDGET} entries"
                )
        for owner, key, v, width in strat.tables():
            acc, combos = strat.acc(v), product(range(q), repeat=width)
            owner[key] = (
                {c: respond_fn(v, c[0], dict(zip(acc, c[1:]))) for c in combos}
                if owner is strat.responses
                else {c: reveal_fn(v, dict(zip(acc, c)), key[1]) for c in combos}
            )
        return strat


def audit_information_constraint(strat: StrategyTable) -> None:
    """Check the tables are total functions of exactly the allowed inputs.

    Raises on a missing or extraneous key; by construction a table lookup
    can then never depend on anything outside the accessible set.
    """
    q = strat.field.q
    for owner, key, v, width in strat.tables():
        table = owner[key]
        if set(table) != set(product(range(q), repeat=width)):
            where = f"response table at {v!r}" if key == v else f"reveal table at {v!r} (d={key[1]})"
            raise AssertionError(f"{where} keyed incorrectly")
        if v == tt.ROOT and any(y is None for y in table.values()):
            raise AssertionError("a silent root is an immediate abort; not allowed")


def strategy_eval(
    strat: StrategyTable, budget: int = DEFAULT_BUDGET
) -> tuple[float, float]:
    """Exact per-bit success probabilities of a fixed tree strategy.

    Enumerates every receiver challenge assignment (uniform product
    measure over the internal nodes, no pruning) and runs the real
    verifier on the induced transcript, once per target bit.  The
    q**internals histories x 2q verifier calls are multiplied out factor by
    factor and refused over ``budget`` before any history is built.  Each
    table is looked up once, before the histories: a history is a tuple
    of challenges in the internal nodes' order, and a table's key is read
    off it at fixed positions.
    """
    field, k, coloring = strat.field, strat.k, strat.coloring
    q = field.q
    n_internal = sum(coloring.arity**j for j in range(k))
    if capped_product(chain((2 * q,), repeat(q, n_internal)), budget) > budget:
        raise ResourceGuardError(
            f"{q}**{n_internal} histories x {2 * q} at q={q}, k={k} exceed "
            f"the evaluation budget of {budget}"
        )
    index: dict[str, int] = {}  # internal node -> its place in a history
    answers = []  # (node, table, key positions, round, color)
    opens = ([], [])  # per bit: (leaf, table, key positions)
    for owner, key, v, _ in strat.tables():
        positions = [index[w] for w in strat.acc(v)]
        if owner is strat.responses:
            index[v] = len(index)
            answers.append((v, owner[key], [index[v]] + positions, len(v) + 1, coloring.color(v)))
        else:
            opens[key[1]].append((v, owner[key], positions))
    wins = [0, 0]
    for bs in product(range(q), repeat=n_internal):
        records = {
            v: Record(b=bs[pos[0]], y=table[tuple(bs[i] for i in pos)], round=r, color=c)
            for v, table, pos, r, c in answers
        }
        for d, leaves in enumerate(opens):
            tr = Transcript(
                kind=KIND_TREE, k=k, q=q, n_stations=coloring.n_stations, records=records
            )
            for leaf, table, pos in leaves:
                claim = table[tuple(bs[i] for i in pos)]
                if claim is not None:
                    tr.reveals[leaf] = Reveal(d=d, claim=claim)
            verdict = verify_tree(tr, tr.liveness(), coloring, field)
            if verdict.outcome == ACCEPT and verdict.revealed == d:
                wins[d] += 1
    n_hist = q**n_internal
    return wins[0] / n_hist, wins[1] / n_hist


@dataclass
class BindingReport:
    kind: str
    k: int
    q: int
    sum: float
    search_size: int
    seconds: float
    strategy_id: str

    @property
    def epsilon(self) -> float:
        return self.sum - 1

    @property
    def bound(self) -> float:
        """1 + ``binding_ceiling``, the chain at n = 2, the tree at n = 3; vacuous above 2."""
        return 1 + binding_ceiling(self.k, self.q, x_sequence(3 if self.kind == KIND_TREE else 2))

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


def brute_force_single(field: Field, budget: int = DEFAULT_BUDGET) -> BindingReport:
    """Exact optimum for the single-round scheme, as a CHSH_q game value.

    The committing agent's answer is any function y(b); the revealing
    agent is spacelike separated from the challenge, so opening bit d is
    a constant claim alpha_d, which wins when y(b) + (-alpha_d) = b*d.
    That is CHSH_q with x = b uniform on F_q and the second input d
    uniform on {0, 1}: the sum of both opens is twice the game's value,
    and the first player's optimal table is the cheater's answer table.

    At q > 2 the second input has fewer values than the first, so the
    game solver enumerates the claim pairs (alpha_0, alpha_1) with
    alpha_0 = 0, q of them, and takes y(b) per b as the best reply; the
    reported table is the first best answer table in product order, as
    an enumeration of every y would give (see
    ``games._second_player_search``).  The budget counts the game's work
    on the side it searches (q**2 claim pairs x q x 2 at q > 2) and is
    checked before a spec is built; ``search_size`` is all q**q answer
    tables.
    """
    q = field.q
    games.check_budget(q, q, 2, budget)
    t0 = time.perf_counter()
    half = Fraction(1, 2)
    spec = games.GameSpec(field, tuple(range(q)), (half, half) + (Fraction(0),) * (q - 2))
    game = games.chsh_value(spec, budget)
    best_sum = float(2 * game.value)
    return BindingReport(
        kind=KIND_SINGLE,
        k=1,
        q=q,
        sum=best_sum,
        search_size=q**q,
        seconds=time.perf_counter() - t0,
        strategy_id=f"y={tuple(game.f[b] for b in range(q))}",
    )


def brute_force_chain(field: Field, k: int, budget: int = DEFAULT_BUDGET) -> BindingReport:
    """Exact optimum for the chained protocol at k=2; k=1 is the single
    round, and any other k is bad input (ValueError naming k).

    Round-2 answers cannot depend on the round-1 challenge (the signal
    arrives exactly at the deadline, too late), so both answers are
    functions of the round's own challenge only.  The revealing agent sits
    at the round-1 station and legitimately knows b_1, hence the claim per
    bit is a function of b_1.

    Two shifts leave the score unchanged: (y1 + c, y2 + c*b) keeps every
    chain value, and (y1, y2 + c) only relabels the claim counts.  So
    the first strictly best pair in product order (y1 outer, y2 inner)
    has y1[0] = y2[0] = 0, and only tables with a zero first entry are
    searched.

    Only y2 is enumerated: with h(a) = max(``_chain_counts(q, y2, a)``) a
    pair scores sum over b_1 of h(y1[b_1]) + h(y1[b_1] - b_1), so y1 is the
    best reply to y2 per b_1.  The last entry of y2 varies innermost:
    each a's chain counts over the entries before it are taken once, and
    the last entry raises h(a) by one exactly when it lands on a top
    count.  The best y1 for one y2 are a product of per-b_1 argmax
    sets, whose least member takes the lowest best answer at each b_1;
    the first best pair is the least such y1 over the best
    y2, with the first y2 that gives it.  The guard counts the q**q
    y2-tables x q**2 searched; ``search_size`` counts all q**(2q) pairs.
    """
    if k == 1:
        return brute_force_single(field, budget)
    if k != 2:
        raise ValueError(f"k: the chained-protocol search supports k <= 2 only, got {k}")
    q = field.q
    if capped_product(repeat(q, q + 2), budget) > budget:
        raise ResourceGuardError(
            f"chained search of {q}**{q} y2 tables x {q}**2 exceeds the budget of {budget}"
        )
    t0 = time.perf_counter()
    best_wins, best = -1, None
    for head in product((0,), *repeat(range(q), q - 2)):
        per_a = [(counts, max(counts)) for counts in (_chain_counts(q, head, a) for a in range(q))]
        for last in range(q):
            # the last answer, at b = q - 1, lands on chain value last + a
            h = [top + (counts[(last + a) % q] == top) for a, (counts, top) in enumerate(per_a)]
            wins, y1 = 2 * h[0], [0]
            for b1 in range(1, q):
                scores = [h[a] + h[(a - b1) % q] for a in range(q)]
                top = max(scores)
                wins += top
                y1.append(scores.index(top))
            y1 = tuple(y1)
            if wins > best_wins or (wins == best_wins and y1 < best[0]):
                best_wins, best = wins, (y1, head + (last,))
    best_sum = best_wins / (q * q)
    y1, y2 = best
    return BindingReport(
        kind=KIND_FQ,
        k=2,
        q=q,
        sum=best_sum,
        search_size=q ** (2 * q),
        seconds=time.perf_counter() - t0,
        strategy_id=f"y1={y1}, y2={y2}",
    )


def _zero_first_tables(q: int) -> Iterator[tuple]:
    """One answer table per shift class y + c: those with y[0] = 0, in
    product order."""
    return ((0,) + y for y in product(range(q), repeat=q - 1))


def _chain_counts(q: int, y_node: tuple, a: int) -> list[int]:
    """How many challenges b give each chain value y_node[b] - b*a; a None
    answer is silence and counts nowhere."""
    counts = [0] * q
    for b, y in enumerate(y_node):
        if y is not None:
            counts[(y - b * a) % q] += 1
    return counts


def _chain_agreement(q: int, y_root: tuple, y_node: tuple, d: int) -> int:
    """A_d: over b_root, the sum of the top ``_chain_counts`` of the
    depth-1 node's answers against a_root = y_root[b_root] - b_root*d, the
    histories its best claims win for bit d, per value of the challenge
    the chain does not read."""
    return sum(max(_chain_counts(q, y_node, (y_root[b0] - b0 * d) % q)) for b0 in range(q))


def _tree2_open(
    field: Field, y_root: tuple, y_left: tuple, y_right: tuple, d: int
) -> tuple[int, dict]:
    """Wins, out of the q**3 histories, of the best open of bit d for a
    fixed depth-2 commit triple, and the claim tables that reach them.

    The path runs through the left node where it answers, else through
    the right one (Z: the left's silent challenges).  Each path reveals at
    ``path + "0"``, keyed by b_root alone, claiming the lowest top chain
    value: q histories back each left answer, |Z| each right one.  Its
    brother also reads a challenge the chain does not, so scores the same
    and stays silent.  A path no history takes has an empty table.
    """
    q = field.q
    wins, chosen = 0, {}
    for path, y_node, weight in (("0", y_left, q), ("1", y_right, y_left.count(None))):
        tab = {}
        if weight and any(y is not None for y in y_node):
            for b0 in range(q):
                counts = _chain_counts(q, y_node, (y_root[b0] - b0 * d) % q)
                top = max(counts)
                wins += weight * top
                tab[(b0,)] = counts.index(top)
        chosen[path] = (path + "0", tab)
    return wins, chosen


def brute_force_tree(
    field: Field, k: int = 2, reduced: bool = True, budget: int = DEFAULT_BUDGET
) -> BindingReport:
    """Exact optimum for the depth-2 tree protocol; any other k is bad
    input (ValueError naming k).

    Commit strategies: the root always answers (silence there is an
    immediate abort); depth-1 nodes answer or refuse per challenge value.
    With ``reduced`` the right depth-1 node always answers, following the
    optimal-structure argument that refusing on the fallback branch can
    only lose; the unreduced search keeps the refusal option to verify the
    reduction is lossless.

    The best open of bit d (``_tree2_open``) wins on
        T_d = q * A_d(root, left) + |Z| * A_d(root, right)
    of the q**3 histories, with A = ``_chain_agreement`` and Z the
    challenges the left node is silent on.  A_d sums, over b_root, the
    top ``_chain_counts`` of the depth-1 table against a = y_root[b_root]
    - b_root*d; that top is tabulated once for every table and a, so a
    root scores each depth-1 table as H = A_0 + A_1 with 2q lookups.
    The right counts only where the left is silent, so the first right
    with the top H is best for every left with Z non-empty (with Z empty
    all rights tie and the first is kept); then the first left with the
    top q*H + |Z|*H_top is kept, and a later root only with a strictly
    larger total.  ``sum`` is
    w_0/q**3 + w_1/q**3; at q = 2 and 3 it, the strategy and its detail
    are those of the exhaustive float search in tests/test_adversary.py.

    (root + c, left + c*b, right + c*b) scores like (root, left, right),
    a None staying None, so the first best triple has root[0] = 0 and
    only those q**(q-1) roots are searched.  The guard counts them x the
    (q+1)**q depth-1 tables (each right is one) x the 2*q lookups that
    score a table, 48,600,000 at q = 5; ``search_size`` counts every
    triple.
    """
    if k != 2:
        raise ValueError(f"k: the tree-protocol search supports k = 2 only, got {k}")
    q = field.q
    if capped_product(chain(repeat(q, q - 1), repeat(q + 1, q), (2, q)), budget) > budget:
        raise ResourceGuardError(
            f"tree search of {q}**{q - 1} roots x {q + 1}**{q} depth-1 tables "
            f"x 2*{q} lookups exceeds the budget of {budget}"
        )
    t0 = time.perf_counter()
    tables = list(product(list(range(q)) + [None], repeat=q))
    # tops[i][a]: the top chain count of tables[i] against a_root = a
    tops = [[max(_chain_counts(q, t, a)) for a in range(q)] for t in tables]
    silent = [t.count(None) for t in tables]
    rights = [i for i, n in enumerate(silent) if not n] if reduced else range(len(tables))
    best_total, best = -1, None
    for y_root in _zero_first_tables(q):
        a_roots = [(y - b0 * d) % q for d in (0, 1) for b0, y in enumerate(y_root)]
        h = [sum(map(top_t.__getitem__, a_roots)) for top_t in tops]
        top = max(h[i] for i in rights)
        scores = [q * h_t + n * top for h_t, n in zip(h, silent)]
        total = max(scores)
        if total > best_total:
            left = scores.index(total)
            right = next(i for i in rights if h[i] == top) if silent[left] else rights[0]
            best_total, best = total, (y_root, tables[left], tables[right])
    y_root, y_left, y_right = best
    (w0, open0), (w1, open1) = (_tree2_open(field, *best, d) for d in (0, 1))
    best_sum = w0 / q**3 + w1 / q**3
    return BindingReport(
        kind=KIND_TREE,
        k=2,
        q=q,
        sum=best_sum,
        search_size=q**q * len(tables) * len(rights),
        seconds=time.perf_counter() - t0,
        strategy_id=f"root={y_root}, left={y_left}, right={y_right}",
    ), (y_root, y_left, y_right, [open0, open1])


def argmax_strategy_table(field: Field, detail) -> StrategyTable:
    """Materialize the oracle's winning depth-2 strategy as an explicit
    lookup-table strategy, for replay through the real verifier.  Per bit
    d, ``detail`` names each depth-1 path's revealing leaf and its claims
    keyed by b_root (``_tree2_open``); every other leaf stays silent."""
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
        # the view holds exactly the leaf's accessible challenges
        return tab.get(tuple(view[w] for w in sorted(view)))

    return StrategyTable.from_functions(2, field, respond_fn, reveal_fn)


def brute_force_binding(
    kind: str, k: int, field: Field, budget: int = DEFAULT_BUDGET
) -> BindingReport:
    """Dispatch to the exact search for the protocol ``protocol.resolve``
    gives; a depth k the search does not support raises ValueError."""
    if k < 1:
        raise ValueError(f"k: depth must be >= 1, got {k}")
    kind, k, _ = resolve(kind, k)
    if kind == KIND_TREE:
        report, _ = brute_force_tree(field, k, budget=budget)
        return report
    return brute_force_chain(field, k, budget)


def honest_strategy_table(field: Field, k: int = 2, d_commit: int = 0) -> StrategyTable:
    """The honest committer as a strategy table: fixed shares, committed
    bit baked into the root answer, honest claims for either open attempt."""
    rng = derived_rng(0, "heuristic-shares")
    a = {v: rng.randrange(field.q) for j in range(k) for v in tt.nodes_at_depth(j)}

    def respond_fn(v, b, view):
        return honest_response(v, b, a, d_commit, field)

    def reveal_fn(leaf, view, d):
        return a[tt.parent(leaf)]

    return StrategyTable.from_functions(k, field, respond_fn, reveal_fn)


@dataclass(frozen=True)
class ChainStrategy:
    """Deterministic depth-2 chained-protocol cheat: per-round answer
    tables over the round's own challenge, and per-bit claim tables over
    the revealing agent's known challenge b_1."""

    y1: tuple
    y2: tuple
    claims: dict  # d -> {b1: claim}


def late_decision_chain(field: Field, seed: int = 0) -> ChainStrategy:
    """Answer both rounds with no bit folded in; at reveal, open either
    bit exactly whenever b_1 = 0 and guess otherwise."""
    rng = derived_rng(seed, "chain-shares")
    q = field.q
    a1, a2 = rng.randrange(q), rng.randrange(q)
    y1 = (a1,) * q
    y2 = tuple((a2 + b2 * a1) % q for b2 in range(q))
    claims = {d: {b1: a2 for b1 in range(q)} for d in (0, 1)}
    return ChainStrategy(y1, y2, claims)


def eval_chain_strategy(strat: ChainStrategy, field: Field) -> tuple[float, float]:
    """Exact per-bit success of a fixed depth-2 chain strategy over
    uniform challenges."""
    q = field.q
    wins = [0, 0]
    for d in (0, 1):
        for b1 in range(q):
            a1 = (strat.y1[b1] - b1 * d) % q
            for b2 in range(q):
                alpha2 = (strat.y2[b2] - b2 * a1) % q
                if alpha2 == strat.claims[d][b1]:
                    wins[d] += 1
    return wins[0] / q**2, wins[1] / q**2
