"""``protocol.verify_tree`` against a reference copy of an earlier body.

The reference below is the receiver's check as it read when it walked
down through ``tree.children`` lists and chained alpha through
``Field.sub`` and ``Field.mul``.  Transcripts of honest runs are mutated
the ways a faulty run or a cheating committer can differ from an honest
one, and both checks must return the same ``Verdict``, reason strings
included, or raise the same error.
"""

from hypothesis import given, settings, strategies as st

from relbc import tree as tt
from relbc.field import Field
from relbc.protocol import Reveal, Transcript, Verdict, verify_tree
from relbc.sim import LossModel, run_protocol


def _reference_alpha_chain(path, transcript, d, field):
    if not path or path[0] != tt.ROOT:
        raise ValueError("path must start at the root")
    alpha = d
    for v in path:
        rec = transcript.records[v]
        if rec.y is None:
            raise ValueError(f"missing response on path at node {v!r}")
        alpha = (rec.y - rec.b * alpha) % field.q
    return alpha


def _reference_verify_tree(transcript, live, coloring, field):
    def children(v, arity):
        return [v + str(t) for t in range(arity)]

    if transcript.abort_reason is not None:
        return Verdict.abort(transcript.abort_reason)
    k, arity = transcript.k, coloring.arity
    if tt.ROOT not in live:
        return Verdict.abort("root did not respond")
    path = [tt.ROOT]
    v = tt.ROOT
    for j in range(k - 1):
        for w in children(v, arity):
            if w in live:
                v = w
                path.append(w)
                break
        else:
            return Verdict.reject(f"no alive child below {v!r} (depth {j})")
    leaf = None
    for w in children(v, arity):
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
    alpha = _reference_alpha_chain(path, transcript, reveal.d, field)
    if alpha == reveal.claim % field.q:
        return Verdict.accept(reveal.d)
    return Verdict.reject("claimed share mismatch")


def _outcome(check, *args):
    """The check's Verdict, or the type and message of what it raised."""
    try:
        return check(*args)
    except (KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _mutated_runs(draw):
    n_stations = draw(st.integers(3, 5))  # arities 2 to 4
    k = draw(st.integers(1, 5))
    q = draw(st.sampled_from([2, 3, 31]))
    d = draw(st.integers(0, 1))
    res = run_protocol(
        "tree", k, Field(q), d=d, seed=draw(st.integers(0, 2**16)), trial=draw(st.integers(0, 50)),
        loss=LossModel(p=draw(st.sampled_from([0.0, 0.1, 0.3])), m=draw(st.integers(1, 3))),
        n_stations=n_stations, prune_lag=draw(st.integers(1, 3)),
    )
    tr = Transcript.from_json(res.transcript.to_json())
    stale_live = tr.liveness()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "silence", "answer", "claim", "d", "sibling", "abort"]))
        nodes = sorted(tr.records)
        leaves = sorted(tr.reveals)
        if op in ("drop", "silence", "answer") and nodes:
            v = draw(st.sampled_from(nodes))
            if op == "drop":
                del tr.records[v]
            elif op == "silence":
                tr.records[v].y = None
            else:
                tr.records[v].y = draw(st.integers(0, q - 1))
        elif op in ("claim", "d") and leaves:
            rv = tr.reveals[draw(st.sampled_from(leaves))]
            if op == "claim":
                rv.claim = (rv.claim + draw(st.integers(1, q - 1))) % q
            else:
                rv.d = 1 - rv.d
        elif op == "sibling" and leaves:
            # a revealing sibling of a revealing leaf, with its own claim
            leaf = draw(st.sampled_from(leaves))
            sibling = leaf[:-1] + str(draw(st.integers(0, n_stations - 2)))
            tr.reveals[sibling] = Reveal(d=draw(st.integers(0, 1)), claim=draw(st.integers(0, q - 1)))
        elif op == "abort":
            tr.abort_round = draw(st.integers(1, k + 1))
            tr.abort_reason = draw(st.sampled_from(["root did not respond", "no alive child below '0'"]))
    # the live set of the mutated transcript, or the one from before it,
    # which can name nodes whose record was dropped or silenced
    live = stale_live if draw(st.booleans()) else tr.liveness()
    return tr, live, tt.make_coloring(k, n_stations), Field(q)


@settings(max_examples=400, deadline=None)
@given(_mutated_runs())
def test_verify_tree_matches_the_reference_on_mutated_runs(case):
    tr, live, coloring, field = case
    assert _outcome(verify_tree, tr, live, coloring, field) == _outcome(
        _reference_verify_tree, tr, live, coloring, field
    )
