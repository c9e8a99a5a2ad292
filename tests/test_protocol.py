import json
import re

import pytest

from relbc import tree as tt
from relbc.field import Field, derived_rng
from relbc.protocol import (
    KIND_FQ,
    KIND_TREE,
    Record,
    Reveal,
    ShareTable,
    Transcript,
    alpha_chain,
    honest_response,
    verify_fq,
    verify_tree,
)


def _honest_tree_transcript(k, field, d, seed, reveal_leaf=None):
    col = tt.make_coloring(k, 3)
    shares = ShareTable.prepare_tree(k, field, derived_rng(seed, "shares"))
    tr = Transcript(kind=KIND_TREE, k=k, q=field.q)
    for j in range(k):
        for v in tt.nodes_at_depth(j):
            b = field.sample(derived_rng(seed, "b", v))
            tr.records[v] = Record(
                b=b, y=honest_response(v, b, shares, d, field),
                round=j + 1, color=col.color(v),
            )
    leaves = [reveal_leaf] if reveal_leaf else list(tt.nodes_at_depth(k))
    for leaf in leaves:
        tr.reveals[leaf] = Reveal(d=d, claim=shares[tt.parent(leaf)])
    return tr, col, shares


def test_alpha_chain_telescopes_to_last_share():
    field = Field(97)
    for d in (0, 1):
        tr, col, shares = _honest_tree_transcript(4, field, d, seed=5)
        path = ["", "0", "01", "010"]
        assert alpha_chain(path, tr, d, field) == shares["010"]


def test_alpha_chain_requires_root_start():
    field = Field(5)
    tr, _, _ = _honest_tree_transcript(2, field, 0, seed=1)
    with pytest.raises(ValueError):
        alpha_chain(["0", "00"], tr, 0, field)


def test_verify_tree_accepts_honest_both_bits():
    field = Field(101)
    for d in (0, 1):
        tr, col, _ = _honest_tree_transcript(3, field, d, seed=2)
        verdict = verify_tree(tr, tr.liveness(), col, field)
        assert verdict.outcome == "accept"
        assert verdict.revealed == d


def test_verify_tree_rejects_wrong_claim():
    field = Field(101)
    tr, col, shares = _honest_tree_transcript(3, field, 0, seed=3)
    for leaf in list(tr.reveals):
        tr.reveals[leaf] = Reveal(d=0, claim=(tr.reveals[leaf].claim + 1) % field.q)
    assert verify_tree(tr, tr.liveness(), col, field).outcome == "reject"


def test_verify_tree_rejects_disagreeing_siblings():
    field = Field(101)
    tr, col, shares = _honest_tree_transcript(2, field, 0, seed=4)
    # flip only the right sibling of the leftmost pair
    tr.reveals["01"] = Reveal(d=1, claim=tr.reveals["01"].claim)
    assert verify_tree(tr, tr.liveness(), col, field).outcome == "reject"


def test_verify_tree_abort_on_dead_root():
    field = Field(5)
    tr, col, _ = _honest_tree_transcript(2, field, 0, seed=5)
    rec = tr.records[tt.ROOT]
    tr.records[tt.ROOT] = Record(b=rec.b, y=None, round=1, color=1)
    assert verify_tree(tr, tr.liveness(), col, field).outcome == "abort"


def test_verify_tree_reject_when_level_dead():
    field = Field(5)
    tr, col, _ = _honest_tree_transcript(2, field, 0, seed=6)
    for v in ("0", "1"):
        rec = tr.records[v]
        tr.records[v] = Record(b=rec.b, y=None, round=2, color=rec.color)
    assert verify_tree(tr, tr.liveness(), col, field).outcome == "reject"


def test_verify_tree_follows_leftmost_alive_branch():
    field = Field(97)
    # kill the whole left branch's response; the honest right branch with
    # reveals from its leaves must still be accepted
    tr, col, shares = _honest_tree_transcript(2, field, 1, seed=7)
    rec = tr.records["0"]
    tr.records["0"] = Record(b=rec.b, y=None, round=2, color=rec.color)
    del tr.reveals["00"], tr.reveals["01"]
    verdict = verify_tree(tr, tr.liveness(), col, field)
    assert verdict.outcome == "accept" and verdict.revealed == 1


def _honest_chain_transcript(k, field, d, seed):
    shares = ShareTable.prepare_chain(k, field, derived_rng(seed, "cs"))
    tr = Transcript(kind=KIND_FQ, k=k, q=field.q, n_stations=2)
    prev = d
    for j in range(1, k + 1):
        b = field.sample(derived_rng(seed, "cb", j))
        y = field.add(shares[str(j)], field.mul(b, prev))
        tr.records[str(j)] = Record(b=b, y=y, round=j, color=1 if j % 2 else 2)
        prev = shares[str(j)]
    return tr, shares


def test_verify_fq_honest_and_flipped():
    field = Field(97)
    for d in (0, 1):
        tr, shares = _honest_chain_transcript(6, field, d, seed=8)
        assert verify_fq(tr, d, shares["6"], field).outcome == "accept"
        # opening the other bit with the honest share must fail whenever
        # any challenge was nonzero (true for this seed)
        assert verify_fq(tr, 1 - d, shares["6"], field).outcome == "reject"


def test_verify_fq_flip_fails_with_high_probability():
    field = Field(101)
    fails = 0
    trials = 200
    for s in range(trials):
        tr, shares = _honest_chain_transcript(3, field, 0, seed=1000 + s)
        if verify_fq(tr, 1, shares["3"], field).outcome == "reject":
            fails += 1
    # opening the wrong bit succeeds only if the challenge product is 0:
    # probability 1 - (1 - 1/q)^k, tiny at q=101
    assert fails >= trials - 15


def test_verify_fq_aborts_on_missing_round():
    field = Field(5)
    tr, shares = _honest_chain_transcript(3, field, 0, seed=9)
    del tr.records["2"]
    assert verify_fq(tr, 0, shares["3"], field).outcome == "abort"


def test_transcript_json_roundtrip_and_stability():
    field = Field(97)
    tr, col, _ = _honest_tree_transcript(3, field, 1, seed=10)
    text = tr.to_json()
    back = Transcript.from_json(text)
    assert back.to_json() == text
    assert verify_tree(back, back.liveness(), col, field).outcome == "accept"


def test_transcript_serializes_missing_response_as_bot():
    tr = Transcript(kind=KIND_TREE, k=1, q=2)
    tr.records[""] = Record(b=0, y=None, round=1, color=1)
    assert '"bot"' in tr.to_json()
    assert Transcript.from_json(tr.to_json()).records[""].y is None


@pytest.mark.parametrize("edit, name", [
    (lambda doc: doc.update(protocol="ring"), "protocol"),
    (lambda doc: doc.update(k=0), "k"),
    (lambda doc: doc.update(q=True), "q"),
    (lambda doc: doc.update(reveals={}), "reveals"),
    (lambda doc: doc["records"].append(7), "records[7]"),
    (lambda doc: doc["records"][1].update(node="2"), "records[1].node"),
    (lambda doc: doc["records"][2].update(b=97), "records[2].b"),
    (lambda doc: doc["records"][0].update(y=1.5), "records[0].y"),
    (lambda doc: doc["records"][0].update(color=4), "records[0].color"),
    (lambda doc: doc["reveals"][0].update(leaf="0"), "reveals[0].leaf"),
    (lambda doc: doc["reveals"][0].update(d=2), "reveals[0].d"),
    (lambda doc: doc.update(abort={"round": 1}), "abort.reason"),
])
def test_transcript_from_json_checks_schema(edit, name):
    field = Field(97)
    tr, _, _ = _honest_tree_transcript(3, field, 0, seed=4)
    doc = json.loads(tr.to_json())
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(name)):
        Transcript.from_json(json.dumps(doc))


def test_hashed_share_table_draws_each_node_once():
    field = Field(101)
    shares = ShareTable.hashed(field, 7, 3)
    nodes = [v for j in range(4) for v in tt.nodes_at_depth(j)]
    for v in nodes:
        assert shares[v] == field.sample_hashed(7, 3, "share", v)
    assert dict(shares) == {v: shares[v] for v in nodes}  # cached, not redrawn
    prepared = ShareTable.prepare_chain(3, field, derived_rng(7, "cs"))
    with pytest.raises(KeyError, match="no share prepared for node '4'"):
        prepared["4"]


def test_exhaustive_hiding_small():
    # pre-reveal response distribution over uniform shares is d-independent
    # for every fixed challenge assignment (spot check at q=3, k=1)
    field = Field(3)
    q = field.q
    for b in range(q):
        dists = []
        for d in (0, 1):
            counts = {}
            for a in range(q):
                shares = ShareTable({"": a})
                y = honest_response("", b, shares, d, field)
                counts[y] = counts.get(y, 0) + 1
            dists.append(counts)
        assert dists[0] == dists[1]
