"""``StrategyTable`` tabulation, audit and replay against reference copies
of an earlier body.

The references below are ``StrategyTable.from_functions``,
``audit_information_constraint`` and ``strategy_eval`` as they read when
each walked the tree's levels on its own and ``strategy_eval`` looked up
every table through per-node dicts of the history.  Random strategies
with silent nodes and silent leaves must tabulate to the same tables,
insertion order included, replay to the same success pair and, once a
table is damaged, fail the audit with the same message.
"""

import zlib
from itertools import chain, product, repeat

from hypothesis import given, settings, strategies as st

from relbc import adversary as adv, tree as tt
from relbc.field import Field
from relbc.protocol import ACCEPT, KIND_TREE, Record, Reveal, Transcript, verify_tree
from relbc.sim import ResourceGuardError, capped_product


def _acc(v, coloring):
    return sorted(tt.accessible_set(v, coloring))


def _reference_from_functions(k, field, respond_fn, reveal_fn, n_stations=3, budget=adv.DEFAULT_BUDGET):
    coloring = tt.make_coloring(k, n_stations)
    q = field.q
    responses, reveals = {}, {}
    cost = 0
    for j in range(k):
        for v in tt.nodes_at_depth(j, coloring.arity):
            acc = _acc(v, coloring)
            cost += q ** (1 + len(acc))
            if cost > budget:
                raise ResourceGuardError(f"strategy tabulation needs more than {budget} entries")
            tab = {}
            for combo in product(range(q), repeat=1 + len(acc)):
                tab[combo] = respond_fn(v, combo[0], dict(zip(acc, combo[1:])))
            responses[v] = tab
    for leaf in tt.nodes_at_depth(k, coloring.arity):
        acc = _acc(leaf, coloring)
        for d in (0, 1):
            cost += q ** len(acc)
            if cost > budget:
                raise ResourceGuardError(f"strategy tabulation needs more than {budget} entries")
            tab = {}
            for combo in product(range(q), repeat=len(acc)):
                tab[combo] = reveal_fn(leaf, dict(zip(acc, combo)), d)
            reveals[(leaf, d)] = tab
    return adv.StrategyTable(k, field, coloring, responses, reveals)


def _reference_audit(strat):
    q = strat.field.q
    for j in range(strat.k):
        for v in tt.nodes_at_depth(j, strat.coloring.arity):
            acc = _acc(v, strat.coloring)
            expected = set(product(range(q), repeat=1 + len(acc)))
            if set(strat.responses[v]) != expected:
                raise AssertionError(f"response table at {v!r} keyed incorrectly")
            if v == tt.ROOT and any(y is None for y in strat.responses[v].values()):
                raise AssertionError("a silent root is an immediate abort; not allowed")
    for leaf in tt.nodes_at_depth(strat.k, strat.coloring.arity):
        acc = _acc(leaf, strat.coloring)
        expected = set(product(range(q), repeat=len(acc)))
        for d in (0, 1):
            if set(strat.reveals[(leaf, d)]) != expected:
                raise AssertionError(f"reveal table at {leaf!r} (d={d}) keyed incorrectly")


def _reference_strategy_eval(strat, budget=adv.DEFAULT_BUDGET):
    field, k, coloring = strat.field, strat.k, strat.coloring
    q = field.q
    internals = [v for j in range(k) for v in tt.nodes_at_depth(j, coloring.arity)]
    if capped_product(chain((2 * q,), repeat(q, len(internals))), budget) > budget:
        raise ResourceGuardError(
            f"{q}**{len(internals)} histories x {2 * q} at q={q}, k={k} exceed "
            f"the evaluation budget of {budget}"
        )
    n_hist = q ** len(internals)
    leaves = list(tt.nodes_at_depth(k, coloring.arity))
    wins = [0, 0]
    for combo in product(range(q), repeat=len(internals)):
        bs = dict(zip(internals, combo))
        base = Transcript(kind=KIND_TREE, k=k, q=q, n_stations=coloring.n_stations)
        for v in internals:
            key = tuple(bs[w] for w in _acc(v, coloring))
            y = strat.responses[v][(bs[v],) + key]
            base.records[v] = Record(b=bs[v], y=y, round=len(v) + 1, color=coloring.color(v))
        for d in (0, 1):
            tr = Transcript(
                kind=KIND_TREE, k=k, q=q, n_stations=coloring.n_stations, records=base.records
            )
            for leaf in leaves:
                claim = strat.reveals[(leaf, d)][tuple(bs[w] for w in _acc(leaf, coloring))]
                if claim is not None:
                    tr.reveals[leaf] = Reveal(d=d, claim=claim)
            verdict = verify_tree(tr, tr.liveness(), coloring, field)
            if verdict.outcome == ACCEPT and verdict.revealed == d:
                wins[d] += 1
    return wins[0] / n_hist, wins[1] / n_hist


def _random_functions(seed, q, p_node, p_leaf):
    """A respond and a reveal function whose value is a fixed hash of all
    their arguments: silent (None) with the given chances, except at the
    root, which always answers."""

    def draw(*args):
        h = zlib.crc32(repr((seed,) + args).encode())
        return h % 1000 / 1000, h // 1000 % q

    def respond_fn(v, b, view):
        u, y = draw("respond", v, b, sorted(view.items()))
        return None if v and u < p_node else y

    def reveal_fn(leaf, view, d):
        u, claim = draw("reveal", leaf, d, sorted(view.items()))
        return None if u < p_leaf else claim

    return respond_fn, reveal_fn


def _ordered(tables):
    """The tables as nested item lists, so that == compares order too."""
    return [(key, list(tab.items())) for key, tab in tables.items()]


def _outcome(fn, *args):
    """What fn returns, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (AssertionError, ResourceGuardError) as exc:
        return type(exc).__name__, str(exc)


# Replays of at most 2187 histories run; a larger strategy is refused by
# both evaluators from this budget before any history is built.
EVAL_BUDGET = 20_000


@settings(max_examples=60, deadline=None)
@given(
    n_stations=st.sampled_from([3, 4]),
    q=st.sampled_from([2, 3]),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    p_node=st.sampled_from([0.0, 0.3, 0.8]),
    p_leaf=st.sampled_from([0.0, 0.5, 1.0]),
    damage=st.sampled_from([None, "missing key", "extra reveal key", "silent root"]),
    pick=st.integers(0, 2**16),
)
def test_strategy_tables_match_the_reference(n_stations, q, k, seed, p_node, p_leaf, damage, pick):
    field = Field(q)
    fns = _random_functions(seed, q, p_node, p_leaf)
    strat = adv.StrategyTable.from_functions(k, field, *fns, n_stations=n_stations)
    ref = _reference_from_functions(k, field, *fns, n_stations=n_stations)
    assert _ordered(strat.responses) == _ordered(ref.responses)
    assert _ordered(strat.reveals) == _ordered(ref.reveals)

    assert _outcome(adv.strategy_eval, strat, EVAL_BUDGET) == _outcome(
        _reference_strategy_eval, strat, EVAL_BUDGET
    )

    if damage == "missing key":
        owner = (strat.responses, strat.reveals)[pick % 2]
        tab = list(owner.values())[pick % len(owner)]
        del tab[sorted(tab)[pick % len(tab)]]
    elif damage == "extra reveal key":
        tab = list(strat.reveals.values())[pick % len(strat.reveals)]
        # a challenge out of range, or a key one entry too long
        width = len(next(iter(tab)))
        tab[((q,) * max(width, 1), (0,) * (width + 1))[pick % 2]] = 0
    elif damage == "silent root":
        root = strat.responses[tt.ROOT]
        root[sorted(root)[pick % len(root)]] = None
    audited = _outcome(adv.audit_information_constraint, strat)
    assert audited == _outcome(_reference_audit, strat)
    assert (audited is None) == (damage is None), audited
