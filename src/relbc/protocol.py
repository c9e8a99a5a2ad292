"""Honest-agent state machines and verification for the commitment protocols.

Three protocol kinds share one transcript format and one verifier,
``verify_tree``:

* ``fq``     — the k-round chained protocol: the tree on two stations,
               whose round j is node "0"·(j-1) and whose leaf is "0"·k.
* ``single`` — the chained protocol at k = 1: one challenge/response
               round, reveal at the far station.
* ``tree``   — the loss-tolerant protocol on the colored binary (or n-ary)
               tree, one challenge/response round per node.

``resolve`` (from ``relbc.base``, re-exported here) is the one place
that says which of these a request runs.

Responses are integers in [0, q); ``None`` encodes a missing response
(a node whose answer did not arrive in time).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii
from typing import Mapping, Optional

# the kinds and resolve live in relbc.base and stay importable from here
from .base import KIND_FQ, KIND_SINGLE, KIND_TREE, KINDS, resolve  # noqa: F401
from .field import Field
from . import tree as tt

# The deepest transcript ``Transcript.from_json`` reads: its label
# patterns repeat a digit k times, and ``re`` refuses counts from 2**32 - 1.
MAX_TRANSCRIPT_K = 2**32 - 2


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


@dataclass(slots=True)
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
    n_stations: Optional[int] = None  # left out: 3 for a tree, 2 for a chain
    records: dict[str, Record] = dc_field(default_factory=dict)
    reveals: dict[str, Reveal] = dc_field(default_factory=dict)
    abort_reason: Optional[str] = None
    abort_round: Optional[int] = None

    def __post_init__(self):
        if self.n_stations is None:
            self.n_stations = 3 if self.kind == KIND_TREE else 2

    def liveness(self) -> set[str]:
        """The alive nodes: every record that was answered, plus every
        revealing leaf.  A silent or never-queried node is absent."""
        live = {v for v, rec in self.records.items() if rec.y is not None}
        live.update(self.reveals)
        return live

    def to_json(self) -> str:
        """The transcript as a JSON document with a stable layout, so that
        identical runs give byte-identical files: the header fields, the
        records in (round, node) order, the reveals in leaf order and the
        abort, indented by 2.  The text equals ``json.dumps(doc, indent=2)``
        of that document; strings are written as ``json.dumps`` writes a
        str (``encode_basestring_ascii``), and the int fields directly."""
        text = encode_basestring_ascii
        records = [
            "    {\n"
            f'      "node": {text(v)},\n'
            f'      "b": {rec.b},\n'
            f'      "y": {_BOT if rec.y is None else rec.y},\n'
            f'      "round": {rec.round},\n'
            f'      "color": {rec.color}\n'
            "    }"
            for v, rec in sorted(self.records.items(), key=lambda kv: (kv[1].round, kv[0]))
        ]
        reveals = [
            "    {\n"
            f'      "leaf": {text(v)},\n'
            f'      "d": {r.d},\n'
            f'      "claim": {r.claim}\n'
            "    }"
            for v, r in sorted(self.reveals.items())
        ]
        abort = "null" if self.abort_reason is None else (
            "{\n"
            f'    "round": {json.dumps(self.abort_round)},\n'
            f'    "reason": {text(self.abort_reason)}\n'
            "  }"
        )
        return (
            "{\n"
            f'  "protocol": {text(self.kind)},\n'
            f'  "k": {self.k},\n'
            f'  "q": {self.q},\n'
            f'  "n_stations": {self.n_stations},\n'
            f'  "records": {_json_list(records)},\n'
            f'  "reveals": {_json_list(reveals)},\n'
            f'  "abort": {abort}\n'
            "}"
        )

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        """Parse a transcript document, checking its schema first.

        Raises ValueError naming the first field that is missing, has the
        wrong type or is out of range: an unknown kind, k < 1 or k >
        ``MAX_TRANSCRIPT_K`` (k != 1 for ``single``), integers outside
        their range (challenges, responses and claims in [0, q)), node
        labels that are not nodes of the protocol, a record whose round
        or color is not its node's, or a second record of a node or
        reveal of a leaf.  A node at depth j
        runs in round j + 1 at its canonical color.  A tree takes the
        station counts ``tree.check_tree_stations`` allows (3 when
        ``n_stations`` is missing), and a chain exactly 2.
        """
        doc = _object(json.loads(text), "transcript")
        kind = doc.get("protocol")
        if kind not in KINDS:
            raise ValueError(f"protocol: must be one of {KINDS}, got {kind!r}")
        k = _int_in(doc.get("k"), "k", 1, None)
        if k > MAX_TRANSCRIPT_K:
            raise ValueError(f"k: a transcript is at most {MAX_TRANSCRIPT_K} rounds deep, got {k!r:.40}")
        if kind == KIND_SINGLE and k != 1:
            raise ValueError(f"k: a single transcript is the chain at k = 1, got {k}")
        q = _int_in(doc.get("q"), "q", 2, 2**63 - 1)
        n_stations = doc.get("n_stations", 3 if kind == KIND_TREE else None)
        if kind == KIND_TREE:
            if type(n_stations) is not int:
                raise ValueError(f"n_stations: expected an integer, got {n_stations!r:.40}")
            tt.check_tree_stations(n_stations)
        elif type(n_stations) is not int or n_stations != 2:
            raise ValueError(
                f"n_stations: a chain transcript runs on 2 stations, got {n_stations!r:.40}"
            )
        coloring = tt.make_coloring(k, n_stations)
        # a label is a string of ASCII digits below the arity: of length
        # below k for a node, k for a leaf
        digit = f"[0-{coloring.arity - 1}]"
        is_node = re.compile(f"{digit}{{0,{k - 1}}}").fullmatch
        is_leaf = re.compile(f"{digit}{{{k}}}").fullmatch
        child_colors = [None] + [coloring.child_colors(c) for c in range(1, n_stations + 1)]
        colors: dict[str, int] = {}
        tr = cls(kind=kind, k=k, q=q, n_stations=n_stations)
        records, reveals = tr.records, tr.reveals
        for i, rec in enumerate(_list(doc, "records")):
            if not isinstance(rec, dict):
                raise _not_object(rec, f"records[{i}]")
            v = rec.get("node")
            if not (isinstance(v, str) and is_node(v)):
                raise ValueError(f"records[{i}].node: {v!r:.40} is not an internal node of the protocol")
            if v in records:
                raise ValueError(f"records[{i}].node: {v!r:.40} has a second record")
            b, y = rec.get("b"), rec.get("y")
            if not (type(b) is int and 0 <= b < q):
                raise _not_int(b, f"records[{i}].b", 0, q - 1)
            if y == "bot":
                y = None
            elif not (type(y) is int and 0 <= y < q):
                raise _not_int(y, f"records[{i}].y", 0, q - 1)
            # records come in depth order, so a node's color is mostly
            # read off its parent's; otherwise it is folded over the digits
            up = colors.get(v[:-1]) if v else None
            color = colors[v] = coloring.color(v) if up is None else child_colors[up][int(v[-1])]
            r, got_round, got_color = len(v) + 1, rec.get("round"), rec.get("color")
            if type(got_round) is not int or got_round != r:
                raise ValueError(f"records[{i}].round: node {v!r} has round {r}, got {got_round!r:.40}")
            if type(got_color) is not int or got_color != color:
                raise ValueError(f"records[{i}].color: node {v!r} has color {color}, got {got_color!r:.40}")
            records[v] = Record(b, y, r, color)
        for i, rv in enumerate(_list(doc, "reveals")):
            if not isinstance(rv, dict):
                raise _not_object(rv, f"reveals[{i}]")
            leaf, d, claim = rv.get("leaf"), rv.get("d"), rv.get("claim")
            if not (isinstance(leaf, str) and is_leaf(leaf)):
                raise ValueError(f"reveals[{i}].leaf: {leaf!r:.40} is not a leaf of the protocol")
            if leaf in reveals:
                raise ValueError(f"reveals[{i}].leaf: {leaf!r:.40} has a second reveal")
            if not (type(d) is int and 0 <= d <= 1):
                raise _not_int(d, f"reveals[{i}].d", 0, 1)
            if not (type(claim) is int and 0 <= claim < q):
                raise _not_int(claim, f"reveals[{i}].claim", 0, q - 1)
            reveals[leaf] = Reveal(d, claim)
        if doc.get("abort") is not None:
            abort = _object(doc["abort"], "abort")
            tr.abort_round = _int_in(abort.get("round"), "abort.round", 1, k + 1)
            tr.abort_reason = abort.get("reason")
            if not isinstance(tr.abort_reason, str):
                raise ValueError(f"abort.reason: expected a string, got {tr.abort_reason!r:.40}")
        return tr


# A missing response, as the transcript document writes it.
_BOT = '"bot"'


def _json_list(items: list[str]) -> str:
    """Already-written list items as an indented JSON list, at the
    transcript document's second level."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _not_object(value, where: str) -> ValueError:
    return ValueError(f"{where}: expected a JSON object, got {value!r:.40}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise _not_object(value, where)
    return value


def _list(doc: dict, key: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list):
        raise ValueError(f"{key}: expected a JSON list, got {value!r:.40}")
    return value


def _int_in(value, name: str, lo: int, hi: Optional[int]) -> int:
    """value as an integer in [lo, hi] (no upper end when hi is None)."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        raise _not_int(value, name, lo, hi)
    return value


def _not_int(value, name: str, lo: int, hi: Optional[int]) -> ValueError:
    """The refusal of ``value`` as an integer in [lo, hi]."""
    span = f"[{lo}, {hi}]" if hi is not None else f">= {lo}"
    return ValueError(f"{name}: expected an integer {span}, got {value!r:.40}")


def honest_response(
    v: str, b_v: int, shares: Mapping[str, int], d: int, field: Field
) -> int:
    """The honest answer at internal node v, given each node's share.

    y = a_v + b_v * a_parent, where a_parent is d at the root: the rule
    ``sim.run_protocol`` answers by.
    """
    a_parent = d if v == tt.ROOT else shares[tt.parent(v)]
    return (shares[v] + b_v * a_parent) % field.q


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
    records, q = transcript.records, field.q
    alpha = d
    for v in path:
        rec = records[v]
        if rec.y is None:
            raise ValueError(f"missing response on path at node {v!r}")
        alpha = (rec.y - rec.b * alpha) % q
    return alpha


def verify_tree(
    transcript: Transcript,
    live: set[str],
    coloring: tt.Coloring,
    field: Field,
) -> Verdict:
    """Receiver-side check of a transcript of any kind, a chain being the
    tree on two stations.

    Walks the leftmost alive path from the root: at every depth the current
    node must have an alive child (else reject), and at the bottom the
    revealing leaf's claimed share must equal the verification chain value
    at the deepest internal node.  ``live`` is the set of alive nodes
    (``Transcript.liveness``); nothing outside the path and its children's
    membership in it is read.  A ``coloring`` of another depth or arity, or
    a ``field`` of another q, than the transcript's raises ValueError
    naming it.
    """
    k = transcript.k
    if (coloring.k, coloring.arity) != (k, transcript.n_stations - 1):
        raise ValueError(
            f"coloring: depth {coloring.k} and arity {coloring.arity} do not fit a "
            f"depth-{k} transcript on {transcript.n_stations} stations"
        )
    if field.q != transcript.q:
        raise ValueError(f"field: q = {field.q} does not fit a transcript at q = {transcript.q}")
    if transcript.abort_reason is not None:
        return Verdict.abort(transcript.abort_reason)
    if tt.ROOT not in live:
        return Verdict.abort("root did not respond")
    digits = [str(t) for t in range(coloring.arity)]
    # Descend through alive children; prefix stability makes this walk the
    # leftmost alive node at every depth.
    path = [tt.ROOT]
    v = tt.ROOT
    for j in range(k - 1):
        for t in digits:
            w = v + t
            if w in live:
                v = w
                path.append(w)
                break
        else:
            return Verdict.reject(f"no alive child below {v!r} (depth {j})")
    # Leaf level: leaf(v) is the leftmost revealing child; a revealing
    # sibling that contradicts it rejects.
    reveals = transcript.reveals
    leaf = None
    for t in digits:
        w = v + t
        if w in reveals:
            if leaf is None:
                leaf = w
            else:
                a, b = reveals[leaf], reveals[w]
                if (a.d, a.claim) != (b.d, b.claim):
                    return Verdict.reject("sibling leaves disagree at reveal")
    if leaf is None:
        return Verdict.reject(f"no alive child below {v!r} (depth {k - 1})")
    reveal = transcript.reveals[leaf]
    alpha = alpha_chain(path, transcript, reveal.d, field)
    if alpha == reveal.claim % field.q:
        return Verdict.accept(reveal.d)
    return Verdict.reject("claimed share mismatch")
