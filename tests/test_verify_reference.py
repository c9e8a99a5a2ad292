"""``protocol.verify_tree`` against reference copies of earlier verifiers.

The first reference is the receiver's check as it read when it walked
down through ``tree.children`` lists and chained alpha through
``Field.sub`` and ``Field.mul``.  Transcripts of honest runs are mutated
the ways a faulty run or a cheating committer can differ from an honest
one, and both checks must return the same ``Verdict``, reason strings
included, or raise the same error.

The second is ``verify_fq``, the chain's own verifier from when chain
round j was node "j".  A chain is now the tree on two stations, round j
node "0"·(j-1), and ``verify_tree`` must judge every chain transcript as
``verify_fq`` judged its relabelled copy, but for the declared cases
where the two differ.
"""

from hypothesis import given, settings, strategies as st

from relbc import tree as tt
from relbc.field import Field
from relbc.protocol import KIND_FQ, KIND_SINGLE, Record, Reveal, Transcript, Verdict, verify_tree
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


def verify_fq(
    transcript: Transcript, revealed_d: int, revealed_share: int, field: Field
) -> Verdict:
    """Check the chained protocol: the recursion from d must land on the
    revealed final share.  A recorded abort is an abort, as in ``verify_tree``."""
    if transcript.abort_reason is not None:
        return Verdict.abort(transcript.abort_reason)
    k, q = transcript.k, field.q
    alpha = revealed_d
    for j in range(1, k + 1):
        rec = transcript.records.get(str(j))
        if rec is None or rec.y is None:
            return Verdict.abort(f"no response at round {j}")
        alpha = (rec.y - rec.b * alpha) % q
    if alpha == revealed_share % q:
        return Verdict.accept(revealed_d)
    return Verdict.reject("final share mismatch")


def _old_labels(tr: Transcript) -> Transcript:
    """The chain transcript as it was labelled before: round j at node
    str(j), the reveal at leaf str(k)."""
    old = Transcript(kind=tr.kind, k=tr.k, q=tr.q, n_stations=tr.n_stations,
                     abort_reason=tr.abort_reason, abort_round=tr.abort_round)
    for v, rec in tr.records.items():
        old.records[str(len(v) + 1)] = Record(rec.b, rec.y, rec.round, rec.color)
    for leaf, rv in tr.reveals.items():
        old.reveals[str(len(leaf))] = Reveal(rv.d, rv.claim)
    return old


@st.composite
def _mutated_chain_runs(draw):
    k = draw(st.integers(1, 8))
    q = draw(st.sampled_from([2, 3, 31]))
    res = run_protocol(
        KIND_FQ if k > 1 else draw(st.sampled_from([KIND_FQ, KIND_SINGLE])), k, Field(q),
        d=draw(st.integers(0, 1)), seed=draw(st.integers(0, 2**16)), trial=draw(st.integers(0, 50)),
        loss=LossModel(p=draw(st.sampled_from([0.0, 0.05, 0.3]))),
    )
    tr = Transcript.from_json(res.transcript.to_json())
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["y", "b", "silence", "drop", "claim", "d", "unreveal", "abort"]))
        nodes = sorted(tr.records, key=len)
        if op in ("y", "b", "silence", "drop") and nodes:
            v = draw(st.sampled_from(nodes))
            rec = tr.records[v]
            if op == "y" and rec.y is not None:
                rec.y = (rec.y + draw(st.integers(1, q - 1))) % q
            elif op == "b":
                rec.b = (rec.b + draw(st.integers(1, q - 1))) % q
            elif op == "silence":
                rec.y = None
            elif op == "drop":
                del tr.records[v]
        elif op in ("claim", "d", "unreveal") and tr.reveals:
            rv = tr.reveals["0" * k]
            if op == "claim":
                rv.claim = (rv.claim + draw(st.integers(1, q - 1))) % q
            elif op == "d":
                rv.d = 1 - rv.d
            else:
                tr.reveals.clear()
        elif op == "abort":
            tr.abort_round = draw(st.integers(1, k + 1))
            tr.abort_reason = draw(st.sampled_from(["active station dead at round 1", "cut"]))
    return tr


@settings(max_examples=400, deadline=None)
@given(_mutated_chain_runs())
def test_verify_tree_judges_chains_as_verify_fq_did(tr):
    field = Field(tr.q)
    got = verify_tree(tr, tr.liveness(), tt.make_coloring(tr.k, 2), field)
    old = _old_labels(tr)
    missing = next(
        (j for j in range(1, tr.k + 1) if old.records.get(str(j), Record(0, None, 0, 0)).y is None),
        None,
    )
    if tr.abort_reason is None and missing is not None:
        # declared: a missing response is a dead branch, a reject, unless
        # it is the root's; verify_fq called every one an abort
        assert verify_fq(old, 0, 0, field) == Verdict.abort(f"no response at round {missing}")
        if missing == 1:
            assert got == Verdict.abort("root did not respond")
        else:
            below = "0" * (missing - 2)
            assert got == Verdict.reject(f"no alive child below {below!r} (depth {missing - 2})")
    elif tr.abort_reason is None and not tr.reveals:
        # declared: no reveal is a leaf that never answered, a reject;
        # verify_fq had no reveal to check, and verify-transcript refused it
        assert got == Verdict.reject(f"no alive child below {'0' * (tr.k - 1)!r} (depth {tr.k - 1})")
    else:
        reveal = old.reveals.get(str(tr.k), Reveal(0, 0))
        want = verify_fq(old, reveal.d, reveal.claim, field)
        assert (got.outcome, got.revealed) == (want.outcome, want.revealed)
        # the reasons differ only in the name of a wrong claim
        reasons = {"final share mismatch": "claimed share mismatch"}
        assert got.reason == reasons.get(want.reason, want.reason)
