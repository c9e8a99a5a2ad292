"""Honest-agent state machines and verification for the commitment protocols.

Three protocol kinds share one transcript format:

* ``single`` — one challenge/response round, reveal at the far station.
* ``fq``     — the k-round chained protocol on two stations.
* ``tree``   — the loss-tolerant protocol on the colored binary (or n-ary)
               tree, one challenge/response round per node.

Responses are integers in [0, q); ``None`` encodes a missing response
(a node whose answer did not arrive in time).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .field import Field
from . import tree as tt

KIND_SINGLE = "single"
KIND_FQ = "fq"
KIND_TREE = "tree"
KINDS = (KIND_SINGLE, KIND_FQ, KIND_TREE)

ACCEPT = "accept"
REJECT = "reject"
ABORT = "abort"


@dataclass(frozen=True)
class Verdict:
    outcome: str                      # accept / reject / abort
    revealed: Optional[int] = None    # the accepted bit
    reason: Optional[str] = None

    @classmethod
    def accept(cls, d: int) -> "Verdict":
        return cls(ACCEPT, revealed=d)

    @classmethod
    def reject(cls, reason: str) -> "Verdict":
        return cls(REJECT, reason=reason)

    @classmethod
    def abort(cls, reason: str) -> "Verdict":
        return cls(ABORT, reason=reason)


@dataclass
class Record:
    """One challenge/response round at one node."""

    b: int
    y: Optional[int]          # None = no answer in time
    round: int
    color: int


@dataclass
class Reveal:
    d: int
    claim: int


@dataclass
class Transcript:
    kind: str
    k: int
    q: int
    n_stations: int = 3
    records: dict[str, Record] = dc_field(default_factory=dict)
    reveals: dict[str, Reveal] = dc_field(default_factory=dict)
    abort_reason: Optional[str] = None
    abort_round: Optional[int] = None

    def liveness(self) -> tt.Liveness:
        live = tt.Liveness()
        for v, rec in self.records.items():
            live.set(v, tt.ALIVE if rec.y is not None else tt.DEAD)
        for v in self.reveals:
            live.set(v, tt.ALIVE)
        return live

    # Serialization uses a stable field order so that identical runs give
    # byte-identical files.
    def to_json(self) -> str:
        doc = {
            "protocol": self.kind,
            "k": self.k,
            "q": self.q,
            "n_stations": self.n_stations,
            "records": [
                {
                    "node": v,
                    "b": rec.b,
                    "y": "bot" if rec.y is None else rec.y,
                    "round": rec.round,
                    "color": rec.color,
                }
                for v, rec in sorted(self.records.items(), key=lambda kv: (kv[1].round, kv[0]))
            ],
            "reveals": [
                {"leaf": v, "d": r.d, "claim": r.claim}
                for v, r in sorted(self.reveals.items())
            ],
            "abort": (
                None
                if self.abort_reason is None
                else {"round": self.abort_round, "reason": self.abort_reason}
            ),
        }
        return json.dumps(doc, indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        """Parse a transcript document, checking its schema first.

        Raises ValueError naming the first field that is missing, has the
        wrong type or is out of range: an unknown kind, k < 1, integers
        outside their range (challenges, responses and claims in [0, q)),
        or node labels that are not nodes of the protocol.
        """
        doc = _object(json.loads(text), "transcript")
        kind = doc.get("protocol")
        if kind not in KINDS:
            raise ValueError(f"protocol: must be one of {KINDS}, got {kind!r}")
        k = _int_in(doc.get("k"), "k", 1, None)
        q = _int_in(doc.get("q"), "q", 2, 2**63 - 1)
        n_stations = doc.get("n_stations", 3)
        if kind == KIND_TREE:
            # arity <= 10, so that every level is one digit of a label
            n_stations = _int_in(n_stations, "n_stations", 3, 11)
            digits = "".join(str(t) for t in range(n_stations - 1))

            def node(v, leaf: bool) -> bool:
                return (
                    isinstance(v, str)
                    and (len(v) == k if leaf else len(v) < k)
                    and all(ch in digits for ch in v)
                )
        else:
            n_stations = _int_in(n_stations, "n_stations", 2, None)

            def node(v, leaf: bool) -> bool:
                return (
                    isinstance(v, str) and len(v) <= len(str(k))
                    and v.isascii() and v.isdigit()
                    and v == str(int(v)) and 1 <= int(v) <= k
                )

        tr = cls(kind=kind, k=k, q=q, n_stations=n_stations)
        for i, rec in enumerate(_list(doc, "records")):
            where = f"records[{i}]"
            rec = _object(rec, where)
            v = rec.get("node")
            if not node(v, leaf=False):
                raise ValueError(f"{where}.node: {v!r:.40} is not an internal node of the protocol")
            y = rec.get("y")
            tr.records[v] = Record(
                b=_int_in(rec.get("b"), f"{where}.b", 0, q - 1),
                y=None if y == "bot" else _int_in(y, f"{where}.y", 0, q - 1),
                round=_int_in(rec.get("round"), f"{where}.round", 1, k),
                color=_int_in(rec.get("color"), f"{where}.color", 1, n_stations),
            )
        for i, rv in enumerate(_list(doc, "reveals")):
            where = f"reveals[{i}]"
            rv = _object(rv, where)
            leaf = rv.get("leaf")
            if not node(leaf, leaf=True):
                raise ValueError(f"{where}.leaf: {leaf!r:.40} is not a leaf of the protocol")
            tr.reveals[leaf] = Reveal(
                d=_int_in(rv.get("d"), f"{where}.d", 0, 1),
                claim=_int_in(rv.get("claim"), f"{where}.claim", 0, q - 1),
            )
        if doc.get("abort") is not None:
            abort = _object(doc["abort"], "abort")
            tr.abort_round = _int_in(abort.get("round"), "abort.round", 1, k + 1)
            tr.abort_reason = abort.get("reason")
            if not isinstance(tr.abort_reason, str):
                raise ValueError(f"abort.reason: expected a string, got {tr.abort_reason!r:.40}")
        return tr


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected a JSON object, got {value!r:.40}")
    return value


def _list(doc: dict, key: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list):
        raise ValueError(f"{key}: expected a JSON list, got {value!r:.40}")
    return value


def _int_in(value, name: str, lo: int, hi: Optional[int]) -> int:
    """value as an integer in [lo, hi] (no upper end when hi is None)."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        span = f"[{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ValueError(f"{name}: expected an integer {span}, got {value!r:.40}")
    return value


class ShareTable(dict):
    """Alice's pre-shared random numbers, one per internal node (tree) or
    per round (chained protocol), keyed by node label.

    ``prepare_tree``/``prepare_chain`` fill the table up front from one
    PRNG.  ``hashed`` starts it empty and draws each node's share from its
    own named hash stream on first lookup, so a run only materializes the
    shares of the nodes it touches.
    """

    _draw = None

    @classmethod
    def hashed(cls, field: Field, seed: int, trial: int) -> "ShareTable":
        table = cls()
        table._draw = field.hash_stream(seed, trial, "share")
        return table

    def __missing__(self, v: str) -> int:
        if self._draw is None:
            raise KeyError(f"no share prepared for node {v!r}")
        share = self[v] = self._draw(v)
        return share

    @classmethod
    def prepare_tree(cls, k: int, field: Field, rng, arity: int = 2) -> "ShareTable":
        shares = {}
        for j in range(k):
            for v in tt.nodes_at_depth(j, arity):
                shares[v] = field.sample(rng)
        return cls(shares)

    @classmethod
    def prepare_chain(cls, k: int, field: Field, rng) -> "ShareTable":
        return cls({str(j): field.sample(rng) for j in range(1, k + 1)})


def honest_response(
    v: str, b_v: int, shares: ShareTable, d: int, field: Field
) -> int:
    """The honest answer at internal node v.

    Root: y = a_root + d*b.  Non-root vt: y = a_vt + b_vt * a_v where v is
    the parent.
    """
    if v == tt.ROOT:
        return field.add(shares[tt.ROOT], field.mul(d, b_v))
    return field.add(shares[v], field.mul(b_v, shares[tt.parent(v)]))


def alpha_chain(
    path: list[str], transcript: Transcript, d: int, field: Field
) -> int:
    """The receiver's verification chain along a root-to-depth path.

    alpha_root = y_root - b_root*d, then alpha_v = y_v - b_v*alpha_parent;
    returns alpha at the last node of the path.  On an honest transcript
    this telescopes to the share of the last node.
    """
    if not path or path[0] != tt.ROOT:
        raise ValueError("path must start at the root")
    alpha = d
    for v in path:
        rec = transcript.records[v]
        if rec.y is None:
            raise ValueError(f"missing response on path at node {v!r}")
        alpha = field.sub(rec.y, field.mul(rec.b, alpha))
    return alpha


def verify_fq(
    transcript: Transcript, revealed_d: int, revealed_share: int, field: Field
) -> Verdict:
    """Check the chained protocol: the recursion from d must land on the
    revealed final share."""
    k = transcript.k
    alpha = revealed_d
    for j in range(1, k + 1):
        rec = transcript.records.get(str(j))
        if rec is None or rec.y is None:
            return Verdict.abort(f"no response at round {j}")
        alpha = field.sub(rec.y, field.mul(rec.b, alpha))
    if alpha == revealed_share % field.q:
        return Verdict.accept(revealed_d)
    return Verdict.reject("final share mismatch")


def verify_tree(
    transcript: Transcript,
    live: tt.Liveness,
    coloring: tt.Coloring,
    field: Field,
) -> Verdict:
    """Receiver-side check of a tree-protocol transcript.

    Walks the leftmost alive path from the root: at every depth the current
    node must have an alive child (else reject), and at the bottom the
    revealing leaf's claimed share must equal the verification chain value
    at the deepest internal node.  Nothing outside the path and its
    children's liveness is read.
    """
    if transcript.abort_reason is not None:
        return Verdict.abort(transcript.abort_reason)
    k, arity = transcript.k, coloring.arity
    if not live.is_alive(tt.ROOT):
        return Verdict.abort("root did not respond")
    # Descend through alive children; prefix stability makes this walk the
    # leftmost alive node at every depth.
    path = [tt.ROOT]
    v = tt.ROOT
    for j in range(k - 1):
        for w in tt.children(v, arity):
            if live.is_alive(w):
                v = w
                path.append(w)
                break
        else:
            return Verdict.reject(f"no alive child below {v!r} (depth {j})")
    # Leaf level: leaf(v) is the leftmost revealing child; a revealing
    # sibling that contradicts it rejects.
    leaf = None
    for w in tt.children(v, arity):
        if w in transcript.reveals:
            if leaf is None:
                leaf = w
            else:
                a, b = transcript.reveals[leaf], transcript.reveals[w]
                if (a.d, a.claim) != (b.d, b.claim):
                    return Verdict.reject("sibling leaves disagree at reveal")
    if leaf is None:
        return Verdict.reject(f"no alive child below {v!r} (depth {k - 1})")
    reveal = transcript.reveals[leaf]
    alpha = alpha_chain(path, transcript, reveal.d, field)
    if alpha == reveal.claim % field.q:
        return Verdict.accept(reveal.d)
    return Verdict.reject("claimed share mismatch")
