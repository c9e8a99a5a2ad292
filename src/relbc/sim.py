"""Deterministic discrete-event simulator for protocol runs.

Time is discretized in units of the light travel time between stations:
round j happens at time j-1 at every active location simultaneously,
computations are instantaneous and signals move at light speed.  A station
that is dead at a round answers nothing for every node it hosts that
round.

The receiver prunes: with an information lag of N rounds, his agents only
challenge descendants of the node they currently know to be on the
leftmost alive branch.

Both parties are honest here; the binding of cheating committers is
computed exactly by ``relbc.adversary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable

from .field import Field, derived_rng
from . import tree as tt
from .protocol import (
    KIND_FQ,
    KIND_TREE,
    Record,
    Reveal,
    Transcript,
    Verdict,
    resolve,
    verify_tree,
)


class ResourceGuardError(RuntimeError):
    """A requested computation exceeds the configured enumeration budget."""


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


# Rounds in one event-engine run, and nodes scheduled over all runs of a
# request.  A tree run holds every scheduled node's label, so its memory
# grows with about arity**N * k**2 / 2 characters: a three-station, lag-2
# run of k = 5000 (5.0e7 characters in about 20k nodes) takes about 0.2 s
# on a 2-core host and peaks at about 84 MB of RSS, 16 MB of it the
# interpreter with relbc loaded.  At k <= 200 the engine schedules 2.6e5 to
# 3.4e5 nodes/s, so a full EVENT_BUDGET is 6 to 8 s.
EVENT_MAX_K = 5000
EVENT_BUDGET = 2 * 10**6


def _label_chars(k: int, arity: int, lag: int) -> int:
    """Label characters of a tree run at lag <= k: arity**min(D, lag) of length D at depth D."""
    return sum(d * arity**d for d in range(lag)) + arity**lag * (k * (k + 1) - lag * (lag - 1)) // 2


def check_event_runs(kind: str, k: int, runs: int = 1, n_stations: int = 3, prune_lag: int = 2) -> None:
    """Raise ResourceGuardError, naming the cap and the size asked for,
    unless ``runs`` runs of the protocol ``protocol.resolve`` gives fit:
    EVENT_MAX_K rounds a run, EVENT_BUDGET nodes in all (multiplied out by
    factors, so a deep lag is refused without its power), and for a tree
    2**14 nodes a round and the label characters of a three-station, lag-2
    run of EVENT_MAX_K rounds.  Every run is counted as if it never aborts.
    """
    kind, k, n_stations = resolve(kind, k, n_stations)
    if k > EVENT_MAX_K:
        raise ResourceGuardError(
            f"{kind} run of k={k} rounds exceeds the per-run cap of {EVENT_MAX_K} rounds, "
            f"EVENT_MAX_K = {EVENT_MAX_K}"
        )
    tree, arity, lag = kind == KIND_TREE, n_stations - 1, min(prune_lag, k)
    factors = chain((runs, k + 1), repeat(arity, lag)) if tree else (runs, k)
    if capped_product(factors, EVENT_BUDGET) > EVENT_BUDGET:
        per_run = f"{k + 1} x {arity}**{lag}" if tree else k
        raise ResourceGuardError(
            f"event-engine runs x nodes per run = {runs} x {per_run} scheduled nodes "
            f"exceed the budget EVENT_BUDGET = {EVENT_BUDGET}"
        )
    if not tree:
        return
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


@dataclass(frozen=True)
class LossModel:
    """Independent per-station failure: an alive station dies with
    probability p at each round and stays dead for m rounds."""

    p: float = 0.0
    m: int = 1

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"death probability must be in [0,1], got {self.p}")
        if self.m < 1:
            raise ValueError(f"dead duration must be >= 1 round, got {self.m}")

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
    """Death/revival chain for every station, one PRNG stream each.

    A station draws once in each round it starts alive (not still dead
    from an earlier death), and only when p > 0; no draw depends on the
    scheduling, so pruning or instrumentation never shifts the randomness.
    """

    def __init__(self, n_stations: int, loss: LossModel, seed: int, trial: int):
        self.loss = loss
        self.counters = [0] * (n_stations + 1)  # 1-based colors
        self.rngs = [None] + [
            derived_rng(seed, trial, "loss", c) for c in range(1, n_stations + 1)
        ]

    def step(self) -> list[int]:
        """Advance one round; returns colors that changed state (for the
        event log)."""
        changed = []
        counters, rngs = self.counters, self.rngs
        p, m = self.loss.p, self.loss.m
        for c in range(1, len(counters)):
            left = counters[c]  # dead rounds left before this one
            if left > 1:  # still dead
                counters[c] = left - 1
            elif p > 0 and rngs[c].random() < p:  # alive now, and dies
                counters[c] = m
                if not left:
                    changed.append(c)
            else:  # alive now, and stays so
                counters[c] = 0
                if left:
                    changed.append(c)
        return changed


@dataclass
class RunResult:
    transcript: Transcript
    verdict: Verdict
    events: list[Event]


def run_tree(
    k: int,
    field: Field,
    n_stations: int,
    d: int,
    loss: LossModel,
    seed: int,
    trial: int = 0,
    prune_lag: int = 2,
    collect_events: bool = False,
) -> RunResult:
    """One full tree-protocol run with an honest committer and an honest
    receiver on the canonical coloring of ``n_stations`` stations.

    Every round is one step: the receiver's agents query the nodes below
    the leftmost alive node they know of, learning node statuses with a
    lag of ``prune_lag`` rounds, and each station alive that round
    answers.  Rounds 1..k query depths 0..k-1, where the committer answers
    as ``honest_response`` does, with each node's challenge and share
    drawn from one encoding of its label by the run's ``"b"`` and
    ``"share"`` hash streams; round k+1 is the reveal, where each alive
    scheduled leaf sends (d, share of its parent).  Each round's nodes are
    the children of a block of the last round's, so a parent's share
    travels with its children and no label is expanded twice.  After each
    round the leftmost alive path grows by the first live child of its
    end, and the run aborts if there is none.  The answered nodes and the
    revealing leaves make up the live set handed to ``verify_tree``.  A
    run costs little more than its hash draws and ``verify_tree``: on a
    2-core host 0.22 to 0.30 ms at k=18 (63 scheduled nodes, 125 draws)
    and 2.2 to 3.8 ms at k=200 (795 nodes).  A station count that
    ``tree.check_tree_stations`` refuses raises ValueError, and a run that
    ``check_event_runs`` refuses raises ResourceGuardError, both before
    round 1: the one rule ``analysis.check_budget`` applies up front.
    """
    tt.check_tree_stations(n_stations)
    coloring = tt.make_coloring(k, n_stations)
    arity = coloring.arity
    if prune_lag < 1:
        raise ValueError("pruning lag must be >= 1")
    check_event_runs(KIND_TREE, k, 1, n_stations, prune_lag)

    transcript = Transcript(kind=KIND_TREE, k=k, q=field.q, n_stations=n_stations)
    records, reveals = transcript.records, transcript.reveals
    events: list[Event] = []
    stations = StationTracker(n_stations, loss, seed, trial)
    dead_for = stations.counters  # nonzero = station dead this round
    draw = field.hash_pair_stream(seed, trial, "b", "share")
    q = field.q
    # rows[c]: (digit, child color) for each child of a color-c node; row 0
    # is the one above the root, whose only child is the root itself
    digits = [str(t) for t in range(arity)]
    rows = [[(tt.ROOT, coloring.color(tt.ROOT))]] + [
        list(zip(digits, coloring.child_colors(c)))
        for c in range(1, n_stations + 1)
    ]
    # (label, color, share) of every node queried last round, left to right,
    # all below one node of the leftmost alive path; before round 1 it is
    # the node above the root, whose share the committed bit stands in for
    level = [(tt.ROOT, 0, d)]
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
                kind = "death" if dead_for[c] else "revival"
                events.append(Event(t, c, kind, "", None, ()))
        j0 = t - prune_lag  # deepest depth known to all receiver agents
        if j0 > 0:
            # keep last round's nodes below the path node at depth j0; level
            # holds those below its parent, one equal block per child
            size = len(level) // arity
            start = path_index[j0] * size
            level = level[start:start + size]
        if r > k:
            for w, c, a_up in level:
                for digit, color in rows[c]:
                    if not dead_for[color]:
                        v = w + digit
                        live.add(v)
                        reveals[v] = Reveal(d=d, claim=a_up)
                        if collect_events:
                            events.append(Event(t, color, "reveal", v, (d, a_up), ()))
        else:
            below = []
            for w, c, a_up in level:
                for digit, color in rows[c]:
                    v = w + digit
                    b, a = draw(v)
                    below.append((v, color, a))
                    alive = not dead_for[color]
                    if alive:
                        live.add(v)
                    y = (a + b * a_up) % q if alive else None  # the honest answer
                    records[v] = Record(b, y, r, color)
                    if collect_events:
                        events.append(Event(t, color, "challenge", v, b, ()))
                        if alive:
                            events.append(Event(t, color, "response", v, y, (len(events) - 1,)))
            level = below
        # Advance the leftmost alive path to the first live child of its end.
        for i, (digit, color) in enumerate(rows[c_star]):
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


def run_chain(
    k: int,
    field: Field,
    d: int,
    loss: LossModel,
    seed: int,
    trial: int = 0,
    collect_events: bool = False,
) -> RunResult:
    """One run of the chained protocol (k=1 gives the single-round scheme)
    with an honest committer, who answers round j with a_j + b_j*a_{j-1}
    (a_0 = d) and reveals (d, a_k): the tree on two stations, round j at
    node "0"·(j-1) and the reveal at leaf "0"·k, judged by ``verify_tree``.

    Loss model: the protocol dies at the first failure of the active
    agent, so only one Bernoulli(p) draw per round matters and the dead
    duration m never comes into play.  A depth k < 1 raises ValueError,
    as the tree run does, and a run that ``check_event_runs`` refuses
    (one over ``EVENT_MAX_K`` rounds) raises ResourceGuardError, both
    before round 1.
    """
    kind, _, n_stations = resolve(KIND_FQ, k)
    coloring = tt.make_coloring(k, n_stations)
    check_event_runs(kind, k)
    transcript = Transcript(kind=kind, k=k, q=field.q, n_stations=n_stations)
    events: list[Event] = []
    rng_loss = derived_rng(seed, trial, "loss", "active")
    draw = field.hash_pair_stream(seed, trial, "b", "share")
    v, share = tt.ROOT, d  # round j's node and a_{j-1}, with a_0 = d
    for j in range(1, k + 1):
        t = j - 1
        color = 1 if j % 2 == 1 else 2
        if loss.p > 0 and rng_loss.random() < loss.p:
            transcript.abort_reason = f"active station dead at round {j}"
            transcript.abort_round = j
            if collect_events:
                events.append(Event(t, color, "abort", v, None, ()))
            break
        prev = share
        b, share = draw(j)  # keyed by the round, not by the node's label
        y = (share + b * prev) % field.q
        transcript.records[v] = Record(b=b, y=y, round=j, color=color)
        if collect_events:
            ci = len(events)
            events.append(Event(t, color, "challenge", v, b, ()))
            events.append(Event(t, color, "response", v, y, (ci,)))
        v += "0"
    else:
        transcript.reveals[v] = Reveal(d=d, claim=share)
    verdict = verify_tree(transcript, transcript.liveness(), coloring, field)
    return RunResult(transcript, verdict, events)


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
    """Drive one run of the protocol ``protocol.resolve`` names, with an
    honest receiver and an honest committer of bit ``d``; preparation
    randomness comes from the per-trial streams."""
    if d not in (0, 1):
        raise ValueError("committed bit must be 0 or 1")
    kind, k, n_stations = resolve(kind, k, n_stations)
    if kind == KIND_TREE:
        return run_tree(k, field, n_stations, d, loss, seed, trial, prune_lag, collect_events)
    return run_chain(k, field, d, loss, seed, trial, collect_events)


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
