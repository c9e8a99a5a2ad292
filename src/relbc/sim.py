"""Deterministic discrete-event simulator for protocol runs.

Time is discretized in units of the light travel time between stations:
round j happens at time j-1 at every active location simultaneously,
computations are instantaneous and signals move at light speed.  A station
that is dead at a round answers nothing for every node it hosts that
round.  Every protocol kind runs in ``run_protocol``: a chain is the tree on
two stations, whose one node a round is lost with probability p that
round only (``ChainTracker``), while a tree's stations die and stay dead
for m rounds (``StationTracker``).  Both trackers read the run's trial of
``relbc.field``'s loss stream, the draws the station walk of
``relbc.analysis`` reads, so the two engines abort in the same round on
every trial.

A node's challenge and share come from its own 32-byte key, the SHA-256
of its parent's key and its digit (``Field.node_draws``, ``rng_stream``
4), so a node draws the same values whatever else a run schedules, and
no label is hashed.

The receiver prunes: with an information lag of N rounds, his agents only
challenge descendants of the node they currently know to be on the
leftmost alive branch.

Both parties are honest here; the binding of cheating committers is
computed exactly by ``relbc.adversary``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import chain, repeat

# KIND_FQ runs nowhere here; it is re-exported with the other shared names
from .base import KIND_FQ, KIND_TREE, ResourceGuardError, _real, capped_product, resolve  # noqa: F401
# derived_rng draws no loss; perfbench's events workload traces the name
# sim.derived_rng, so it stays importable here
from .field import Field, LossDraws, derived_rng, loss_cut, node_child, node_root
from . import tree as tt
from .protocol import Record, Reveal, Transcript, Verdict, verify_tree


# Rounds in one event-engine run, and nodes scheduled over all runs of a
# request.  A tree run holds every scheduled node's label, so its memory
# grows with about arity**N * k**2 / 2 characters: a three-station, lag-2
# run of k = 5000 (5.0e7 characters in about 20k nodes) takes 0.11 to
# 0.13 s on a 2-core host and peaks at about 84 MB of RSS, 16 MB of it the
# interpreter with relbc loaded.  At 18 <= k <= 200 the engine schedules
# 3.8e5 to 5.9e5 nodes/s, lossless or at p = 0.02, so a full EVENT_BUDGET
# is 3.4 to 5.3 s; shallow runs pay more per node (2.7e5 to 4.3e5 nodes/s
# at k = 5).
EVENT_MAX_K = 5000
EVENT_BUDGET = 2 * 10**6


def _label_chars(k: int, arity: int, lag: int) -> int:
    """Label characters of a tree run at lag <= k: arity**min(D, lag) of length D at depth D."""
    return sum(d * arity**d for d in range(lag)) + arity**lag * (k * (k + 1) - lag * (lag - 1)) // 2


# Station-walk budgets, checked before any work starts.  On a 2-core host
# the three-station tree walk steps about 1.2e8 trial-rounds/s on one block
# of trials and 2.3e8 on many, whose blocks run on both cores; the chain
# walk about 4e8 and 8e8.  A round also has a fixed cost in numpy calls,
# however few trials it holds: 12.5 us for the tree walk and 3.5 us for
# the chain, the work of 1,070 to 1,190 trials in a full block of either,
# so a round is charged at least WALK_ROUND_TRIALS trials.  A full walk
# budget is then 4 to 11 s of tree walk at any trial count.
WALK_BUDGET = 10**9        # trial-rounds of one station walk
WALK_ROUND_TRIALS = 1200   # the trials a round is charged at least
WALK_STATE_BYTES = 2**30   # the abort rounds a station walk holds at once


def check_budget(
    kind: str,
    k: int,
    walk_trials: int = 0,
    event_runs: int = 0,
    n_stations: int = 3,
    prune_lag: int = 2,
) -> tuple[str, int, int]:
    """The (kind, k, n_stations) of the protocol ``resolve`` gives, once
    the request passes the one check that ``relbc simulate``,
    ``analysis.monte_carlo_reliability`` and every run (``_check_one_run``)
    make before any work.  It lives here, not with the walk in
    ``relbc.analysis``, so ``relbc simulate`` refuses before it loads
    numpy.

    First the layout, each a ValueError: k, n_stations and prune_lag are
    ints (a bool is none), the depth k >= 1, a tree on the stations
    ``tree.check_tree_stations`` allows, and a pruning lag >= 1.
    Then the work budgets, each a ResourceGuardError naming the budget and
    the size asked for.

    A station walk over ``walk_trials`` trials is charged
    max(trials, WALK_ROUND_TRIALS) x rounds trial-rounds against
    WALK_BUDGET, since a round of a few trials costs about as much as one
    of WALK_ROUND_TRIALS; a walk of no trials is free.  It holds an int32
    abort round per trial, so the guard charges 4 bytes per trial against
    WALK_STATE_BYTES, up to 2**28 trials; each worker's buffers for one
    block of at most ``field.WALK_BLOCK`` trials come on top.

    ``event_runs`` event-engine runs fit EVENT_MAX_K rounds a run,
    EVENT_BUDGET nodes in all (multiplied out by factors, so a deep lag is
    refused without its power), 2**14 nodes a round and the label
    characters of a three-station, lag-2 run of EVENT_MAX_K rounds.  Every
    run is counted as if it never aborts, a chain as the tree on two
    stations: k+1 nodes, one a round.
    """
    for name, value in (("k", k), ("n_stations", n_stations), ("prune_lag", prune_lag)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name}: must be an int, got {value!r:.40}")
    kind, k, n_stations = resolve(kind, k, n_stations)
    if k < 1:
        raise ValueError("depth k must be >= 1")
    if kind == KIND_TREE:
        tt.check_tree_stations(n_stations)
    if prune_lag < 1:
        raise ValueError("pruning lag must be >= 1")
    rounds = k + 1 if kind == KIND_TREE else k
    charged = max(walk_trials, WALK_ROUND_TRIALS) if walk_trials else 0
    # The walk sizes are named by their factors, never multiplied out: the
    # product may have more digits than Python converts to a string.
    if capped_product((charged, rounds), WALK_BUDGET) > WALK_BUDGET:
        raise ResourceGuardError(
            f"station walk of max(trials, WALK_ROUND_TRIALS) x rounds = {charged} x {rounds} "
            f"trial-rounds exceeds the budget WALK_BUDGET = {WALK_BUDGET}"
        )
    if capped_product((walk_trials, 4), WALK_STATE_BYTES) > WALK_STATE_BYTES:
        raise ResourceGuardError(
            f"station walk of trials x bytes per trial = {walk_trials} x 4 bytes "
            f"of state exceeds WALK_STATE_BYTES = {WALK_STATE_BYTES}"
        )
    if not event_runs:
        return kind, k, n_stations
    if k > EVENT_MAX_K:
        raise ResourceGuardError(
            f"{kind} run of k={k} rounds exceeds the per-run cap of {EVENT_MAX_K} rounds, "
            f"EVENT_MAX_K = {EVENT_MAX_K}"
        )
    arity, lag = n_stations - 1, min(prune_lag, k)
    if capped_product(chain((event_runs, k + 1), repeat(arity, lag)), EVENT_BUDGET) > EVENT_BUDGET:
        raise ResourceGuardError(
            f"event-engine runs x nodes per run = {event_runs} x {k + 1} x {arity}**{lag} "
            f"scheduled nodes exceed the budget EVENT_BUDGET = {EVENT_BUDGET}"
        )
    if arity**lag > 2**14:  # within the node budget, the power is small
        raise ResourceGuardError(
            f"prune_lag={prune_lag} with k={k} schedules up to {arity}**{lag} nodes "
            "per round, over the cap of 2**14; reduce the lag, the depth or the station count"
        )
    chars, cap = _label_chars(k, arity, lag), _label_chars(EVENT_MAX_K, 2, 2)
    if chars > cap:
        raise ResourceGuardError(
            f"tree run of k={k} rounds on {n_stations} stations at prune_lag={prune_lag} holds "
            f"{chars} label characters, over the cap of {cap}, those of a three-station, "
            "lag-2 run of EVENT_MAX_K rounds"
        )
    return kind, k, n_stations


@dataclass(frozen=True)
class LossModel:
    """Independent per-station failure: an alive station dies with
    probability p, a real number, at each round and stays dead for m
    rounds, m an int that a float can hold (else ValueError naming p or m)."""

    p: float = 0.0
    m: int = 1

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, numbers.Real):
            raise ValueError(f"p: death probability must be a real number, got {self.p!r:.40}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"death probability must be in [0,1], got {self.p}")
        if isinstance(self.m, bool) or not isinstance(self.m, int):  # a bool is no count
            raise ValueError(f"m: dead duration must be an int, got {self.m!r:.40}")
        if self.m < 1:
            raise ValueError(f"m: dead duration must be >= 1 round, got {self.m}")
        _real(self.m, "m")  # the loss figures take m * p as a float

    def stationary_dead_fraction(self) -> float:
        """Exact long-run per-round non-responsiveness of one station."""
        return self.m * self.p / (1.0 - self.p + self.m * self.p)


@dataclass(frozen=True)
class Geometry:
    """Station layout: every pair of distinct stations sits at the honest
    separation D, the unit of distance (``tree.in_light_cone``)."""

    n_stations: int = 3


@dataclass
class Event:
    __slots__ = ("time", "loc", "kind", "node", "value", "deps")

    time: int
    loc: int
    kind: str       # challenge / response / reveal / death / revival / abort
    node: str
    value: object
    deps: tuple[int, ...]


def validate_causality(events: list[Event], geometry: Geometry) -> list[str]:
    """Post-hoc light-cone check: every dependency of an event must lie in
    its strict past cone, ``tree.in_light_cone``."""
    violations = []
    for idx, ev in enumerate(events):
        for dep in ev.deps:
            src = events[dep]
            if not tt.in_light_cone(src.time, src.loc, ev.time, ev.loc):
                violations.append(
                    f"event #{idx} ({ev.kind}@{ev.node!r}, t={ev.time}, L{ev.loc}) "
                    f"depends on #{dep} ({src.kind}@{src.node!r}, t={src.time}, L{src.loc})"
                )
    return violations


class StationTracker:
    """Death/revival chain for every station, read from the run's trial of
    the "tree" loss stream (``field.LossDraws``).

    Each round reads one draw per station, station s + 1 taking draw s,
    as ``analysis.tree_abort_rounds`` does; a station that starts the
    round alive (not still dead from an earlier death) dies when its
    draw is below p.  At p = 0 nothing is read.  No draw depends on the
    scheduling, so pruning or instrumentation never shifts the randomness.
    """

    def __init__(self, n_stations: int, loss: LossModel, seed: int, trial: int):
        self.loss = loss
        self.counters = [0] * (n_stations + 1)  # 1-based colors
        self.draws = LossDraws(seed, "tree", trial, n_stations) if loss.p > 0 else None
        self.cut = loss_cut(loss.p)

    def step(self) -> list[int]:
        """Advance one round; returns colors that changed state (for the
        event log)."""
        if not self.draws:  # p = 0: no station ever dies
            return []
        changed = []
        counters, cut, m = self.counters, self.cut, self.loss.m
        for c, x in enumerate(self.draws.next_round(), 1):
            left = counters[c]  # dead rounds left before this one
            if left > 1:  # still dead
                counters[c] = left - 1
            elif x < cut:  # alive now, and dies
                counters[c] = m
                if not left:
                    changed.append(c)
            elif left:  # alive now after a death
                counters[c] = 0
                changed.append(c)
        return changed


class ChainTracker:
    """The chain's loss rule behind ``StationTracker``'s interface.

    In each round j <= k the run's draw of the "chain" loss stream
    (``field.LossDraws`` at n = 1) kills, with probability p, the station
    of round j's node (1 when j is odd, 2 when even) for that round only;
    the reveal round draws nothing, and at p = 0 nothing is read.  A chain
    ends at its first silent node, so the dead duration m never matters,
    and the draws are those of ``analysis.chain_abort_rounds``.
    """

    def __init__(self, k: int, loss: LossModel, seed: int, trial: int):
        self.k = k
        self.round = 0
        self.counters = [0, 0, 0]  # 1-based colors
        self.draws = LossDraws(seed, "chain", trial, 1) if loss.p > 0 else None
        self.cut = loss_cut(loss.p)

    def step(self) -> list[int]:
        """Advance one round; returns the station it kills, if any (the
        run ends in that round, so no revival is ever logged)."""
        j = self.round = self.round + 1
        counters = self.counters
        counters[1] = counters[2] = 0
        if j <= self.k and self.draws and self.draws.next_round()[0] < self.cut:
            c = 2 - j % 2
            counters[c] = 1
            return [c]
        return []


# typed: a cached 2 must not answer for 2.0 or True, which check_budget refuses
@functools.lru_cache(maxsize=256, typed=True)
def _check_one_run(kind: str, k: int, n_stations: int, prune_lag: int) -> tuple[str, int, int]:
    """``check_budget`` of one run; a refusal raises and is not cached."""
    return check_budget(kind, k, event_runs=1, n_stations=n_stations, prune_lag=prune_lag)


@functools.lru_cache(maxsize=None)
def _child_rows(n_stations: int) -> tuple[tuple[tuple[str, bytes, int], ...], ...]:
    """For each color c of 1..n_stations, the (digit, key input suffix,
    child color) of each child of a color-c node."""
    arity = n_stations - 1
    digits = [str(t) for t in range(arity)]
    suffixes = [node_child(t) for t in range(arity)]
    child_colors = tt.Coloring(1, n_stations).child_colors
    return tuple(tuple(zip(digits, suffixes, child_colors(c))) for c in range(1, n_stations + 1))


@dataclass
class RunResult:
    transcript: Transcript
    verdict: Verdict
    events: list[Event]


def run_protocol(
    kind: str,
    k: int,
    field: Field,
    d: int,
    seed: int,
    trial: int = 0,
    loss: LossModel = LossModel(),
    n_stations: int = 3,
    prune_lag: int = 2,
    collect_events: bool = False,
) -> RunResult:
    """One run of the protocol ``protocol.resolve`` names, with an honest
    committer of bit ``d`` (0 or 1, an int) and an honest receiver, on
    the canonical coloring of its stations: the tree on ``n_stations``,
    or the chain on two, whose path "", "0", "00", ... schedules one node
    a round.

    Every round is one step: the receiver's agents query the nodes below
    the leftmost alive node they know of, learning node statuses with a
    lag of ``prune_lag`` rounds, and each station alive that round
    answers; a tree's stations die as ``StationTracker`` draws, a chain's
    as ``ChainTracker`` does, where ``loss`` kills each round's node with
    probability p and m never matters.  Rounds 1..k query depths 0..k-1,
    where the committer answers as ``honest_response`` does, with each
    node's challenge and share drawn from its key by ``Field.node_draws``,
    one digest of its parent's key and its digit; round k+1 is the
    reveal, where each alive scheduled leaf sends (d, share of its
    parent).  Each round's nodes are the children of a block of the last
    round's, so a parent's key and share travel with its children and no
    label is hashed.  After each round the leftmost alive path grows by
    the first live child of its end, and the run aborts if there is none.
    The answered nodes and the revealing leaves make up the live set
    handed to ``verify_tree``.  A run costs little more than its key
    digests, its loss draws and ``verify_tree``; the child rows, the draw
    rule and the check are made once per layout.  On a 2-core host a run
    takes 0.12 to 0.16 ms at k=18 (62 to 67 scheduled nodes, a digest
    each, lossless or at p = 0.02) and 1.35 to 1.45 ms at k=200 (795
    nodes).  A committed bit other than 0 or 1, or a layout that
    ``check_budget`` refuses, raises ValueError, and a run over its caps
    ResourceGuardError, each before round 1.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d not in (0, 1):
        raise ValueError("committed bit must be 0 or 1")
    kind, k, n_stations = _check_one_run(kind, k, n_stations, prune_lag)
    coloring = tt.make_coloring(k, n_stations)
    arity = coloring.arity

    transcript = Transcript(kind=kind, k=k, q=field.q, n_stations=n_stations)
    records, reveals = transcript.records, transcript.reveals
    events: list[Event] = []
    if arity > 1:
        stations = StationTracker(n_stations, loss, seed, trial)
    else:
        stations = ChainTracker(k, loss, seed, trial)
    dead_for = stations.counters  # nonzero = station dead this round
    draw = field.node_draws()
    q = field.q
    # rows[c]: (digit, key input suffix, child color) for each child of a
    # color-c node; row 0 is the one above the root, whose only child is the
    # root itself, of color 1, keyed by the run's root input alone
    rows = (((tt.ROOT, node_root(seed, trial), 1),), *_child_rows(n_stations))
    # (label, key, color, share) of every node queried last round, left to
    # right, all below one node of the leftmost alive path; before round 1
    # it is the node above the root, with an empty key, whose share the
    # committed bit stands in for
    level = [(tt.ROOT, b"", 0, d)]
    # The end of the leftmost alive path, grown one node per round, and the
    # child index of each of its nodes (the root's is 0).
    v_star, c_star = tt.ROOT, 0
    path_index: list[int] = []
    live: set[str] = set()  # answered nodes and revealing leaves

    # Round r queries depth r-1, the children of last round's nodes below
    # the deepest path node all receiver agents know; round k+1 is the same
    # step at the leaves, where an alive leaf reveals (d, share of its
    # parent) instead.
    for r in range(1, k + 2):
        t = r - 1
        changed = stations.step()
        if collect_events:
            for c in changed:
                change = "death" if dead_for[c] else "revival"
                events.append(Event(t, c, change, "", None, ()))
        j0 = t - prune_lag  # deepest depth known to all receiver agents
        if j0 > 0:
            # keep last round's nodes below the path node at depth j0; level
            # holds those below its parent, one equal block per child
            size = len(level) // arity
            start = path_index[j0] * size
            level = level[start:start + size]
        if r > k:
            for w, _, c, a_up in level:
                for digit, _, color in rows[c]:
                    if not dead_for[color]:
                        v = w + digit
                        live.add(v)
                        reveals[v] = Reveal(d=d, claim=a_up)
                        if collect_events:
                            events.append(Event(t, color, "reveal", v, (d, a_up), ()))
        else:
            below = []
            for w, key, c, a_up in level:
                for digit, suffix, color in rows[c]:
                    v = w + digit
                    v_key, b, a = draw(key + suffix)
                    below.append((v, v_key, color, a))
                    if dead_for[color]:
                        y = None
                    else:
                        y = (a + b * a_up) % q  # the honest answer
                        live.add(v)
                    records[v] = Record(b, y, r, color)
                    if collect_events:
                        events.append(Event(t, color, "challenge", v, b, ()))
                        if y is not None:
                            events.append(Event(t, color, "response", v, y, (len(events) - 1,)))
            level = below
        # Advance the leftmost alive path to the first live child of its end.
        for i, (digit, _, color) in enumerate(rows[c_star]):
            if v_star + digit in live:
                v_star, c_star = v_star + digit, color
                path_index.append(i)
                break
        else:
            transcript.abort_reason = (
                f"no alive child below {v_star!r}" if path_index else "root did not respond"
            )
            transcript.abort_round = r
            if collect_events:
                events.append(Event(t, 0, "abort", "", transcript.abort_reason, ()))
            break

    verdict = verify_tree(transcript, live, coloring, field)
    if collect_events:
        violations = validate_causality(events, Geometry(n_stations=n_stations))
        if violations:  # must never happen; a bug in the scheduler
            raise AssertionError("causality violated:\n" + "\n".join(violations))
    return RunResult(transcript, verdict, events)


def comm_cost(transcript: Transcript, field: Field) -> float:
    """Bits on the wire: (challenges sent + answered responses) * log2(q).

    Reveal messages (a bit plus one share claim) are not counted, because
    the closed-form cost formulas only count challenge/response traffic;
    ``message_counts`` reports how many there were.
    """
    n_chal, n_resp, _ = message_counts(transcript)
    return (n_chal + n_resp) * math.log2(field.q)


def message_counts(transcript: Transcript) -> tuple[int, int, int]:
    """(challenges, responses, reveals) in one transcript."""
    n_chal = len(transcript.records)
    n_resp = sum(1 for rec in transcript.records.values() if rec.y is not None)
    return n_chal, n_resp, len(transcript.reveals)
