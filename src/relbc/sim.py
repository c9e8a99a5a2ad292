"""Deterministic discrete-event simulator for protocol runs.

Time is discretized in units of the light travel time between stations:
round j happens at time j-1 at every active location simultaneously,
computations are instantaneous and signals move at light speed.  A station
that is dead at a round answers nothing for every node it hosts that
round.

The receiver prunes: with an information lag of N rounds, his agents only
challenge descendants of the node they currently know to be on the
leftmost alive branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol as TypingProtocol

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
    Verdict,
    honest_response,
    verify_fq,
    verify_tree,
)


class ResourceGuardError(RuntimeError):
    """A requested computation exceeds the configured enumeration budget."""


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
    """Station layout; distances in units of the honest separation D."""

    n_stations: int = 3
    distances: Optional[tuple[tuple[float, ...], ...]] = None

    def dist(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if self.distances is None:
            return 1.0
        return self.distances[i - 1][j - 1]

    def validate(self) -> None:
        if self.n_stations < 2:
            raise ValueError("need at least 2 stations")
        if self.distances is not None:
            n = self.n_stations
            for i in range(1, n + 1):
                if self.dist(i, i) != 0.0:
                    raise ValueError("distance diagonal must be zero")
                for j in range(1, n + 1):
                    if i != j:
                        if self.dist(i, j) != self.dist(j, i):
                            raise ValueError("distances must be symmetric")
                        if self.dist(i, j) < 1.0:
                            raise ValueError("stations closer than D")


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
    its strict past cone (same location: not later; other location: early
    enough that the signal arrived strictly before)."""
    violations = []
    for idx, ev in enumerate(events):
        for dep in ev.deps:
            src = events[dep]
            if src.loc == ev.loc:
                ok = src.time <= ev.time
            else:
                ok = src.time + geometry.dist(src.loc, ev.loc) < ev.time
            if not ok:
                violations.append(
                    f"event #{idx} ({ev.kind}@{ev.node!r}, t={ev.time}, L{ev.loc}) "
                    f"depends on #{dep} ({src.kind}@{src.node!r}, t={src.time}, L{src.loc})"
                )
    return violations


class StationTracker:
    """Death/revival chain for every station, one PRNG stream each.

    Draws happen every round for every station regardless of scheduling,
    so pruning or instrumentation never shifts the randomness.
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
        for c in range(1, len(self.counters)):
            was_dead = self.counters[c] > 0
            if was_dead:
                self.counters[c] -= 1
            if self.counters[c] == 0:
                if self.loss.p > 0 and self.rngs[c].random() < self.loss.p:
                    self.counters[c] = self.loss.m
            if (self.counters[c] > 0) != was_dead:
                changed.append(c)
        return changed

    def is_dead(self, color: int) -> bool:
        return self.counters[color] > 0


class AliceAgent(TypingProtocol):
    needs_history: bool

    def respond(self, v: str, b_v: int, acc_view: dict[str, int]) -> Optional[int]: ...

    def reveal(self, leaf: str, acc_view: dict[str, int]) -> Optional[tuple[int, int]]: ...


class HonestTreeAlice:
    """Follows the protocol: answers from the share table, reveals the
    committed bit and the parent share at every leaf."""

    needs_history = False

    def __init__(self, shares: ShareTable, d: int, field: Field):
        if d not in (0, 1):
            raise ValueError("committed bit must be 0 or 1")
        self.shares = shares
        self.d = d
        self.field = field

    def respond(self, v, b_v, acc_view):
        return honest_response(v, b_v, self.shares, self.d, self.field)

    def reveal(self, leaf, acc_view):
        return (self.d, self.shares[tt.parent(leaf)])


@dataclass
class RunResult:
    transcript: Transcript
    verdict: Verdict
    events: list[Event]


def _descendants(
    v: str, color: int, target_depth: int, rows: list
) -> list[tuple[str, int]]:
    """(node, color) for every depth-``target_depth`` descendant of v, left
    to right; ``rows[c]`` lists (digit, child color) for a color-c node."""
    nodes = [(v, color)]
    for _ in range(target_depth - len(v)):
        nodes = [(w + t, ct) for w, c in nodes for t, ct in rows[c]]
    return nodes


def run_tree(
    k: int,
    field: Field,
    coloring: tt.Coloring,
    alice: AliceAgent,
    loss: LossModel,
    seed: int,
    trial: int = 0,
    prune_lag: int = 2,
    collect_events: bool = False,
) -> RunResult:
    """One full tree-protocol run with an honest receiver.

    The receiver's agents learn node statuses with a lag of ``prune_lag``
    rounds and only challenge descendants of the leftmost alive node at
    the deepest known depth; everything else stays unqueried.
    """
    arity = coloring.arity
    if coloring.k != k:
        raise ValueError("coloring does not match the run parameters")
    if prune_lag < 1:
        raise ValueError("pruning lag must be >= 1")
    # Without effective pruning a round schedules a whole tree level,
    # arity**lag nodes.  arity >= 2, so a lag over 14 is refused before any
    # power is taken.
    lag = min(prune_lag, k)
    if lag > 14 or arity**lag > 2**14:
        raise ResourceGuardError(
            f"prune_lag={prune_lag} with k={k} schedules up to {arity}**{lag} nodes "
            "per round, over the cap of 2**14; reduce the lag, the depth or the station count"
        )

    transcript = Transcript(kind=KIND_TREE, k=k, q=field.q, n_stations=coloring.n_stations)
    records = transcript.records
    events: list[Event] = []
    ev_index: dict[str, int] = {}  # node -> challenge event index
    stations = StationTracker(coloring.n_stations, loss, seed, trial)
    dead_for = stations.counters  # nonzero = station dead this round
    draw_b = field.hash_stream(seed, trial, "b")
    respond, needs_history = alice.respond, alice.needs_history
    lm_path: list[str] = []  # leftmost alive path, grown one node per round
    digits = [str(t) for t in range(arity)]
    rows = [None] + [
        list(zip(digits, coloring.child_colors(c)))
        for c in range(1, coloring.n_stations + 1)
    ]

    def base_of(j0: int) -> tuple[str, int]:
        if j0 < 0:
            return tt.ROOT, coloring.color(tt.ROOT)
        base = lm_path[j0]
        return base, records[base].color

    def record_station_events(t: int, changed: list[int]) -> None:
        if collect_events:
            for c in changed:
                kind = "death" if dead_for[c] else "revival"
                events.append(Event(t, c, kind, "", None, ()))

    def acc_view_for(v: str) -> dict[str, int]:
        """Challenges the agent at v can know, for an agent that needs its
        history; only scheduled nodes have one, so this filters the
        records, never the whole tree."""
        return {
            w: rec.b
            for w, rec in records.items()
            if tt.is_accessible(w, v, coloring)
        }

    aborted = False
    for r in range(1, k + 1):
        t = r - 1
        record_station_events(t, stations.step())
        j = r - 1  # depth handled this round
        j0 = r - 1 - prune_lag  # deepest depth known to all receiver agents
        for v, color in _descendants(*base_of(j0), j, rows):
            b = draw_b(v)
            if collect_events:
                ci = len(events)
                events.append(Event(t, color, "challenge", v, b, ()))
                ev_index[v] = ci
            if dead_for[color]:
                y = None
            else:
                view = acc_view_for(v) if needs_history else {}
                y = respond(v, b, view)
                if collect_events and y is not None:
                    deps = [ev_index[v]]
                    deps += [ev_index[w] for w in sorted(view) if w in ev_index]
                    events.append(Event(t, color, "response", v, y, tuple(deps)))
            records[v] = Record(b, y, r, color)
        # Advance the leftmost alive path.
        if r == 1:
            if records[tt.ROOT].y is None:
                transcript.abort_reason = "root did not respond"
                transcript.abort_round = 1
                aborted = True
            else:
                lm_path.append(tt.ROOT)
        else:
            vstar = lm_path[-1]
            for w in tt.children(vstar, arity):
                rec = records.get(w)
                if rec is not None and rec.y is not None:
                    lm_path.append(w)
                    break
            else:
                transcript.abort_reason = f"no alive child below {vstar!r}"
                transcript.abort_round = r
                aborted = True
        if aborted:
            if collect_events:
                events.append(Event(t, 0, "abort", "", transcript.abort_reason, ()))
            break

    if not aborted:
        # Reveal round: scheduled leaves send (d, claimed share).
        r = k + 1
        t = r - 1
        record_station_events(t, stations.step())
        revealed_any_child = False
        vstar = lm_path[-1]
        for leaf, color in _descendants(*base_of(k - prune_lag), k, rows):
            if dead_for[color]:
                continue
            view = acc_view_for(leaf) if needs_history else {}
            out = alice.reveal(leaf, view)
            if out is None:
                continue
            d_claim, share_claim = out
            transcript.reveals[leaf] = Reveal(d=d_claim, claim=share_claim)
            if collect_events:
                deps = tuple(ev_index[w] for w in sorted(view) if w in ev_index)
                events.append(Event(t, color, "reveal", leaf, (d_claim, share_claim), deps))
            if tt.parent(leaf) == vstar:
                revealed_any_child = True
        if not revealed_any_child:
            transcript.abort_reason = f"no alive child below {vstar!r}"
            transcript.abort_round = r
            if collect_events:
                events.append(Event(t, 0, "abort", "", transcript.abort_reason, ()))

    verdict = verify_tree(transcript, transcript.liveness(), coloring, field)
    if collect_events:
        violations = validate_causality(events, Geometry(n_stations=coloring.n_stations))
        if violations:  # must never happen; a bug in the scheduler
            raise AssertionError("causality violated:\n" + "\n".join(violations))
    return RunResult(transcript, verdict, events)


class HonestChainAlice:
    """Honest agent pair for the chained (two-station) protocol."""

    needs_history = False

    def __init__(self, shares: ShareTable, d: int, field: Field):
        self.shares = shares
        self.d = d
        self.field = field

    def respond_round(self, j: int, b_j: int) -> int:
        prev = self.d if j == 1 else self.shares[str(j - 1)]
        return self.field.add(self.shares[str(j)], self.field.mul(b_j, prev))

    def reveal_chain(self, k: int) -> tuple[int, int]:
        return (self.d, self.shares[str(k)])


def run_chain(
    k: int,
    field: Field,
    alice: HonestChainAlice,
    loss: LossModel,
    seed: int,
    trial: int = 0,
    collect_events: bool = False,
) -> RunResult:
    """One run of the chained protocol (k=1 gives the single-round scheme).

    Loss model: the protocol dies at the first failure of the active
    agent, so only one Bernoulli(p) draw per round matters and the dead
    duration m never comes into play.
    """
    kind = KIND_SINGLE if k == 1 else KIND_FQ
    transcript = Transcript(kind=kind, k=k, q=field.q, n_stations=2)
    events: list[Event] = []
    rng_loss = derived_rng(seed, trial, "loss", "active")
    draw_b = field.hash_stream(seed, trial, "b")
    for j in range(1, k + 1):
        t = j - 1
        color = 1 if j % 2 == 1 else 2
        if loss.p > 0 and rng_loss.random() < loss.p:
            transcript.abort_reason = f"active station dead at round {j}"
            transcript.abort_round = j
            if collect_events:
                events.append(Event(t, color, "abort", str(j), None, ()))
            return RunResult(transcript, Verdict.abort(transcript.abort_reason), events)
        b = draw_b(j)
        y = alice.respond_round(j, b)
        transcript.records[str(j)] = Record(b=b, y=y, round=j, color=color)
        if collect_events:
            ci = len(events)
            events.append(Event(t, color, "challenge", str(j), b, ()))
            events.append(Event(t, color, "response", str(j), y, (ci,)))
    d, share = alice.reveal_chain(k)
    transcript.reveals[str(k)] = Reveal(d=d, claim=share)
    verdict = verify_fq(transcript, d, share, field)
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
    alice: Optional[AliceAgent] = None,
    collect_events: bool = False,
) -> RunResult:
    """Drive one protocol run with honest receiver and (by default) honest
    committer; preparation randomness comes from the per-trial streams."""
    if kind == KIND_SINGLE:
        k = 1
    if kind in (KIND_SINGLE, KIND_FQ):
        agent = HonestChainAlice(ShareTable.hashed(field, seed, trial), d, field)
        return run_chain(k, field, agent, loss, seed, trial, collect_events)
    if kind == KIND_TREE:
        if alice is None:
            alice = HonestTreeAlice(ShareTable.hashed(field, seed, trial), d, field)
        return run_tree(
            k,
            field,
            tt.make_coloring(k, n_stations),
            alice,
            loss,
            seed,
            trial,
            prune_lag=prune_lag,
            collect_events=collect_events,
        )
    raise ValueError(f"unknown protocol kind {kind!r}")


def comm_cost(transcript: Transcript, field: Field, include_reveal: bool = False) -> float:
    """Bits on the wire: (challenges sent + answered responses) * log2(q).

    Reveal messages (a bit plus one share claim) are reported separately
    because the closed-form cost formulas only count challenge/response
    traffic.
    """
    log2q = math.log2(field.q)
    n_chal, n_resp, n_reveal = message_counts(transcript)
    bits = (n_chal + n_resp) * log2q
    if include_reveal:
        bits += n_reveal * (1 + log2q)
    return bits


def message_counts(transcript: Transcript) -> tuple[int, int, int]:
    """(challenges, responses, reveals) in one transcript."""
    n_chal = len(transcript.records)
    n_resp = sum(1 for rec in transcript.records.values() if rec.y is not None)
    return n_chal, n_resp, len(transcript.reveals)
