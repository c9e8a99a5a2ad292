import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from relbc import tree as tt
from relbc.field import Field, derived_rng
from relbc.protocol import (
    KIND_FQ,
    KIND_SINGLE,
    KIND_TREE,
    Record,
    Reveal,
    Transcript,
    Verdict,
    alpha_chain,
    honest_response,
    resolve,
    verify_tree,
)
from relbc.sim import LossModel, run_protocol


def _honest_tree_transcript(k, field, d, seed, reveal_leaf=None):
    col = tt.make_coloring(k, 3)
    rng = derived_rng(seed, "shares")
    shares = {v: rng.randrange(field.q) for j in range(k) for v in tt.nodes_at_depth(j)}
    tr = Transcript(kind=KIND_TREE, k=k, q=field.q)
    for j in range(k):
        for v in tt.nodes_at_depth(j):
            b = derived_rng(seed, "b", v).randrange(field.q)
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


def test_verify_tree_names_a_coloring_or_field_that_does_not_fit():
    # an honest accepted 4-station run; a 3-station coloring read it as a
    # binary tree and rejected, a field of another q gave a share mismatch
    field = Field(101)
    res = run_protocol(
        "tree", 6, field, d=1, seed=1, trial=4, n_stations=4, loss=LossModel(p=0.2, m=2)
    )
    tr = res.transcript
    assert res.verdict == Verdict.accept(1)
    assert verify_tree(tr, tr.liveness(), tt.make_coloring(6, 4), field) == res.verdict
    for coloring in (tt.make_coloring(6, 3), tt.make_coloring(5, 4), tt.make_coloring(7, 4)):
        with pytest.raises(ValueError, match="^coloring: "):
            verify_tree(tr, tr.liveness(), coloring, field)
    with pytest.raises(ValueError, match="^field: q = 97 does not fit a transcript at q = 101$"):
        verify_tree(tr, tr.liveness(), tt.make_coloring(6, 4), Field(97))


def test_liveness_is_the_answered_nodes_plus_the_revealing_leaves():
    field = Field(97)
    tr, col, _ = _honest_tree_transcript(2, field, 0, seed=8)
    rec = tr.records["1"]
    tr.records["1"] = Record(b=rec.b, y=None, round=2, color=rec.color)
    del tr.reveals["10"], tr.reveals["11"]
    live = tr.liveness()
    assert live == {tt.ROOT, "0", "00", "01"}
    assert verify_tree(tr, live, col, field).outcome == "accept"


def _honest_chain_transcript(k, field, d, seed):
    # round j is node "0"*(j-1) of the two-station tree
    rng = derived_rng(seed, "cs")
    shares = {str(j): rng.randrange(field.q) for j in range(1, k + 1)}
    tr = Transcript(kind=KIND_FQ, k=k, q=field.q, n_stations=2)
    prev = d
    for j in range(1, k + 1):
        b = derived_rng(seed, "cb", j).randrange(field.q)
        y = (shares[str(j)] + b * prev) % field.q
        tr.records["0" * (j - 1)] = Record(b=b, y=y, round=j, color=1 if j % 2 else 2)
        prev = shares[str(j)]
    return tr, shares


def _verify_chain(tr, d, claim, field):
    """``verify_tree`` on the chain transcript revealing (d, claim) at its leaf."""
    tr.reveals = {"0" * tr.k: Reveal(d=d, claim=claim)}
    return verify_tree(tr, tr.liveness(), tt.make_coloring(tr.k, 2), field)


def test_verify_fq_honest_and_flipped():
    field = Field(97)
    for d in (0, 1):
        tr, shares = _honest_chain_transcript(6, field, d, seed=8)
        assert _verify_chain(tr, d, shares["6"], field) == Verdict.accept(d)
        # opening the other bit with the honest share must fail whenever
        # any challenge was nonzero (true for this seed)
        assert _verify_chain(tr, 1 - d, shares["6"], field).outcome == "reject"


def test_verify_fq_flip_fails_with_high_probability():
    field = Field(101)
    fails = 0
    trials = 200
    for s in range(trials):
        tr, shares = _honest_chain_transcript(3, field, 0, seed=1000 + s)
        if _verify_chain(tr, 1, shares["3"], field).outcome == "reject":
            fails += 1
    # opening the wrong bit succeeds only if the challenge product is 0:
    # probability 1 - (1 - 1/q)^k, tiny at q=101
    assert fails >= trials - 15


def test_verify_fq_rejects_a_missing_round():
    # a missing response is a dead branch, as in any tree; only a silent
    # root is an abort
    field = Field(5)
    tr, shares = _honest_chain_transcript(3, field, 0, seed=9)
    del tr.records["0"]
    assert _verify_chain(tr, 0, shares["3"], field) == Verdict.reject(
        "no alive child below '' (depth 0)"
    )
    del tr.records[""]
    assert _verify_chain(tr, 0, shares["3"], field) == Verdict.abort("root did not respond")


def test_verify_fq_honours_a_recorded_abort():
    field = Field(5)
    tr, shares = _honest_chain_transcript(3, field, 0, seed=9)
    tr.abort_reason = "active station dead at round 3"
    assert _verify_chain(tr, 0, shares["3"], field) == Verdict.abort(tr.abort_reason)


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


def _reference_json(tr: Transcript) -> str:
    """The transcript document as a dict written by ``json.dumps``: the
    writer ``Transcript.to_json`` must match byte for byte."""
    doc = {
        "protocol": tr.kind,
        "k": tr.k,
        "q": tr.q,
        "n_stations": tr.n_stations,
        "records": [
            {
                "node": v,
                "b": rec.b,
                "y": "bot" if rec.y is None else rec.y,
                "round": rec.round,
                "color": rec.color,
            }
            for v, rec in sorted(tr.records.items(), key=lambda kv: (kv[1].round, kv[0]))
        ],
        "reveals": [
            {"leaf": v, "d": r.d, "claim": r.claim} for v, r in sorted(tr.reveals.items())
        ],
        "abort": (
            None
            if tr.abort_reason is None
            else {"round": tr.abort_round, "reason": tr.abort_reason}
        ),
    }
    return json.dumps(doc, indent=2, sort_keys=False)


@st.composite
def _transcripts(draw):
    kind = draw(st.sampled_from([KIND_TREE, KIND_FQ, KIND_SINGLE]))
    k = draw(st.integers(1, 7))
    q = draw(st.sampled_from([2, 101, 2**61 - 1]))
    loss = LossModel(p=draw(st.sampled_from([0.0, 0.2, 1.0])), m=draw(st.integers(1, 3)))
    tr = run_protocol(
        kind, k, Field(q), d=draw(st.integers(0, 1)), seed=draw(st.integers(0, 2**32)),
        loss=loss, n_stations=draw(st.integers(3, 5)), prune_lag=draw(st.integers(1, 3)),
    ).transcript
    if draw(st.booleans()):  # no records or reveals, as a transcript starts
        tr = Transcript(kind=tr.kind, k=tr.k, q=tr.q, n_stations=tr.n_stations)
    reason = draw(st.none() | st.text())
    if reason is not None:  # any text, read back by the schema-checked parser
        doc = json.loads(_reference_json(tr))
        doc["abort"] = {"round": draw(st.integers(1, tr.k + 1)), "reason": reason}
        tr = Transcript.from_json(json.dumps(doc, ensure_ascii=draw(st.booleans())))
    return tr


@settings(max_examples=150, deadline=None)
@given(_transcripts())
@example(Transcript(kind=KIND_FQ, k=2, q=5, abort_reason='q"uo\\te\n\x01\u00e9\U0001f600',
                    abort_round=2))
def test_transcript_to_json_equals_json_dumps_of_the_document(tr):
    assert tr.to_json() == _reference_json(tr)
    assert Transcript.from_json(tr.to_json()).to_json() == tr.to_json()


def _other_y(rec):
    return dict(rec, y=(rec["y"] + 1) % 97)


def _other_claim(rv):
    return dict(rv, claim=(rv["claim"] + 1) % 97)


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
    # in range, but not the node's: "0" runs in round 2 at color 2
    (lambda doc: doc["records"][1].update(round=1), "records[1].round"),
    (lambda doc: doc["records"][1].update(color=1), "records[1].color"),
    (lambda doc: doc["records"][0].update(round=True), "records[0].round"),
    (lambda doc: doc["reveals"][0].update(leaf="0"), "reveals[0].leaf"),
    (lambda doc: doc["reveals"][0].update(d=2), "reveals[0].d"),
    (lambda doc: doc.update(abort={"round": 1}), "abort.reason"),
    # a second record of a node, or reveal of a leaf, used to replace the first
    (lambda doc: doc["records"].append(_other_y(doc["records"][3])), "records[7].node"),
    (lambda doc: doc["reveals"].append(_other_claim(doc["reveals"][2])), "reveals[8].leaf"),
])
def test_transcript_from_json_checks_schema(edit, name):
    field = Field(97)
    tr, _, _ = _honest_tree_transcript(3, field, 0, seed=4)
    doc = json.loads(tr.to_json())
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(name)):
        Transcript.from_json(json.dumps(doc))


def _chain_doc(protocol, n_stations):
    doc = json.loads(run_protocol(KIND_FQ, 3, Field(97), d=1, seed=3).transcript.to_json())
    doc.update(protocol=protocol, n_stations=n_stations)
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [], "transcript: expected a JSON object, got []"),
    (lambda doc: doc.update(protocol="ring"), "protocol: must be one of ('single', 'fq', 'tree'), got 'ring'"),
    (lambda doc: doc.update(k=0), "k: expected an integer >= 1, got 0"),
    (lambda doc: _chain_doc(KIND_SINGLE, 2), "k: a single transcript is the chain at k = 1, got 3"),
    (lambda doc: doc.update(q=True), "q: expected an integer [2, 9223372036854775807], got True"),
    (lambda doc: doc.update(n_stations="3"), "n_stations: expected an integer, got '3'"),
    (lambda doc: doc.update(n_stations=12), "n_stations: a tree takes 3 to 11 stations, got 12"),
    (lambda doc: _chain_doc(KIND_FQ, 3), "n_stations: a chain transcript runs on 2 stations, got 3"),
    (lambda doc: doc.update(records=None), "records: expected a JSON list, got None"),
    (lambda doc: doc.update(reveals={}), "reveals: expected a JSON list, got {}"),
    (lambda doc: doc["records"].append(7), "records[7]: expected a JSON object, got 7"),
    (lambda doc: doc["records"][1].update(node="2"),
     "records[1].node: '2' is not an internal node of the protocol"),
    # int() reads the Arabic-Indic zero as 0, and a label may not end in a newline
    (lambda doc: doc["records"][1].update(node="٠"),
     "records[1].node: '٠' is not an internal node of the protocol"),
    (lambda doc: doc["records"][1].update(node="0\n"),
     "records[1].node: '0\\n' is not an internal node of the protocol"),
    (lambda doc: doc["records"][1].update(node="000"),
     "records[1].node: '000' is not an internal node of the protocol"),
    (lambda doc: doc["records"][1].update(node=0), "records[1].node: 0 is not an internal node of the protocol"),
    (lambda doc: doc["records"][1].update(node="0" * 50),
     "records[1].node: '000000000000000000000000000000000000000 is not an internal node of the protocol"),
    (lambda doc: doc["records"][2].update(b=97), "records[2].b: expected an integer [0, 96], got 97"),
    (lambda doc: doc["records"][0].update(y=1.5), "records[0].y: expected an integer [0, 96], got 1.5"),
    (lambda doc: doc["records"][0].update(y="BOT"), "records[0].y: expected an integer [0, 96], got 'BOT'"),
    (lambda doc: doc["records"][0].update(color=4), "records[0].color: node '' has color 1, got 4"),
    (lambda doc: doc["records"][1].update(round=1), "records[1].round: node '0' has round 2, got 1"),
    (lambda doc: doc["records"][1].update(color=1), "records[1].color: node '0' has color 2, got 1"),
    (lambda doc: doc["records"][0].update(round=True), "records[0].round: node '' has round 1, got True"),
    (lambda doc: doc["reveals"][0].update(leaf="0"), "reveals[0].leaf: '0' is not a leaf of the protocol"),
    (lambda doc: doc["reveals"][0].update(leaf="٠٠٠"), "reveals[0].leaf: '٠٠٠' is not a leaf of the protocol"),
    (lambda doc: doc["reveals"][0].update(leaf="00\n"),
     "reveals[0].leaf: '00\\n' is not a leaf of the protocol"),
    (lambda doc: doc["reveals"].append("x"), "reveals[8]: expected a JSON object, got 'x'"),
    (lambda doc: doc["reveals"][0].update(d=2), "reveals[0].d: expected an integer [0, 1], got 2"),
    (lambda doc: doc["reveals"][0].update(claim=-1), "reveals[0].claim: expected an integer [0, 96], got -1"),
    (lambda doc: doc.update(abort=[1]), "abort: expected a JSON object, got [1]"),
    (lambda doc: doc.update(abort={"round": 5, "reason": "x"}), "abort.round: expected an integer [1, 4], got 5"),
    (lambda doc: doc.update(abort={"round": 1}), "abort.reason: expected a string, got None"),
    (lambda doc: doc["records"].append(_other_y(doc["records"][3])),
     "records[7].node: '00' has a second record"),
    (lambda doc: doc["reveals"].append(_other_claim(doc["reveals"][2])),
     "reveals[8].leaf: '010' has a second reveal"),
])
def test_transcript_from_json_refusals_read_in_full(edit, message):
    tr, _, _ = _honest_tree_transcript(3, Field(97), 0, seed=4)
    doc = json.loads(tr.to_json())
    edited = edit(doc)  # a new document, or None when edited in place
    with pytest.raises(ValueError) as refused:
        Transcript.from_json(json.dumps(doc if edited is None else edited))
    assert str(refused.value) == message


@pytest.mark.parametrize("j, key, value", [(1, "round", 2), (2, "color", 1), (3, "color", 2)])
def test_chain_transcript_from_json_checks_the_round_and_station(j, key, value):
    # chain round j runs on station 1 when j is odd and on station 2 when it is even
    tr, _ = _honest_chain_transcript(4, Field(97), 0, seed=2)
    assert Transcript.from_json(tr.to_json()).to_json() == tr.to_json()
    doc = json.loads(tr.to_json())
    doc["records"][j - 1][key] = value
    node = "0" * (j - 1)
    with pytest.raises(ValueError, match=re.escape(f"records[{j - 1}].{key}: node '{node}' has {key}")):
        Transcript.from_json(json.dumps(doc))


@pytest.mark.parametrize("kind, k", [(KIND_FQ, 3), (KIND_SINGLE, 1)])
@pytest.mark.parametrize("n_stations", [42, 3, 1, True, "2", None, "missing"])
def test_chain_transcript_from_json_runs_on_two_stations(kind, k, n_stations):
    # a chain always runs on 2 stations: 42 used to parse and keep 42, and
    # a missing key to parse as 3
    tr = run_protocol(kind, k, Field(97), d=1, seed=3).transcript
    assert tr.n_stations == 2
    assert Transcript.from_json(tr.to_json()).n_stations == 2
    doc = json.loads(tr.to_json())
    if n_stations == "missing":
        del doc["n_stations"]
    else:
        doc["n_stations"] = n_stations
    with pytest.raises(ValueError, match=r"^n_stations: a chain transcript runs on 2 stations"):
        Transcript.from_json(json.dumps(doc))


def test_transcript_from_json_colors_records_in_any_order():
    tr, _, _ = _honest_tree_transcript(3, Field(97), 1, seed=6)
    doc = json.loads(tr.to_json())
    doc["records"].reverse()  # children before their parents
    back = Transcript.from_json(json.dumps(doc))
    assert back.records == tr.records


@pytest.mark.parametrize("asked, runs", [
    ((KIND_TREE, 5, 4), (KIND_TREE, 5, 4)),
    ((KIND_FQ, 5, 4), (KIND_FQ, 5, 2)),
    ((KIND_FQ, 1, 3), (KIND_SINGLE, 1, 2)),
    ((KIND_SINGLE, 10, 42), (KIND_SINGLE, 1, 2)),
    ((KIND_SINGLE, 1, 3), (KIND_SINGLE, 1, 2)),
])
def test_resolve_names_the_protocol_a_request_runs(asked, runs):
    # a tree runs as asked; anything else is the two-station chain, named
    # single exactly at k = 1, and single always means k = 1
    assert resolve(*asked) == runs
    assert resolve(*runs) == runs


def test_resolve_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown protocol kind 'ring'"):
        resolve("ring", 3)


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
                shares = {"": a}
                y = honest_response("", b, shares, d, field)
                counts[y] = counts.get(y, 0) + 1
            dists.append(counts)
        assert dists[0] == dists[1]
