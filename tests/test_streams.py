"""Byte-identity of the node draws and of the Monte Carlo walks.

The run digests below were first computed before per-run hash streams
replaced the per-draw ``sample_hashed`` calls on the run paths; the
streams hashed the same bytes, so every transcript and event log stayed
identical.  The wide run digest was computed before the tree run loop carried
(label, color) pairs and answered from a per-run share dict.  The golden
run digest was re-pinned once when chain nodes were renamed from "1".."k"
to the two-station tree's "", "0", "00", ...: its tree parts kept their
bytes, and its chain parts equal the earlier ones with the labels mapped
back.  It was re-pinned again when the chain came to run through the
tree's engine, which keys the chain's draws by node label, records the
abort round's silent challenge and logs deaths: its k=18 tree part and
its 4-station part kept their bytes, and no chain abort round moved.

The walk digests were computed before the tree walk moved from per-round
dead counters to revive rounds.  They depend on numpy's PCG64
``Generator.random`` stream as well as on the walk, so a failure here
after a numpy upgrade points at the stream before the code.

Every digest here was re-pinned once when both engines came to read one
loss stream (``rng_stream`` 3, ``relbc.field``): the walks and the event
engine's lossy runs draw their losses from it, and the loss-free runs
(the single rounds above) kept their bytes.

The run digests and the report digest were re-pinned again when each
node came to draw its challenge and share from one SHA-256 key chained
from its parent's (``rng_stream`` 4, ``Field.node_draws``): the loss
stream did not change, so every walk digest kept its bytes, and the
transcripts and event logs changed only in their challenges, answers
and reveal claims (b, y and claim); the report changed only in its
``rng_stream``.  The draw tests below rebuild each node's key by
folding the root's key over the node's label, apart from the library.
"""

import hashlib
import json
from collections import Counter
from itertools import combinations

import pytest

from relbc import analysis as an
from relbc.field import Field
from relbc.sim import LossModel, run_protocol

GOLDEN_RUNS_SHA256 = "870e426ae1a2765b76565df9dd270600b454449b1603edbad0525699ea291d1c"


def _events_json(events) -> str:
    return json.dumps([[e.time, e.loc, e.kind, e.node, e.value, list(e.deps)] for e in events])


def _golden_runs() -> bytes:
    """Transcripts and event logs of fixed tree (k=18), fq, single and
    4-station runs, concatenated."""
    parts = []
    tree_loss = LossModel(p=0.02, m=5)
    for trial in range(12):
        res = run_protocol(
            "tree", 18, Field(101), d=trial % 2, seed=5, trial=trial,
            loss=tree_loss, collect_events=trial % 3 == 0,
        )
        parts += [res.transcript.to_json(), _events_json(res.events)]
    for trial in range(8):
        res = run_protocol(
            "fq", 12, Field(97), d=trial % 2, seed=5, trial=trial,
            loss=LossModel(p=0.03), collect_events=trial % 2 == 0,
        )
        parts += [res.transcript.to_json(), _events_json(res.events)]
        res = run_protocol("single", 1, Field(2**61 - 1), d=trial % 2, seed=5, trial=trial)
        parts.append(res.transcript.to_json())
    for trial in range(8):
        res = run_protocol(
            "tree", 8, Field(101), d=trial % 2, seed=5, trial=trial, n_stations=4,
            loss=LossModel(p=0.05, m=2), collect_events=trial % 2 == 0,
        )
        parts += [res.transcript.to_json(), _events_json(res.events)]
    return "".join(parts).encode()


def test_run_outputs_match_golden_digest():
    assert hashlib.sha256(_golden_runs()).hexdigest() == GOLDEN_RUNS_SHA256


GOLDEN_RUNS_WIDE_SHA256 = "575ae7b6688546b301d79594329aeefdef21f153c50dd52d25cdbfdef6f851ad"


def _golden_runs_wide() -> bytes:
    """Tree transcripts and event logs at the shapes the golden runs above
    leave out: prune lags 1 and 3, five stations, k=1, and a modulus just
    over 2**62, where about one draw in 16 needs a second digest."""
    parts = []
    cases = [
        # (k, q, n_stations, prune_lag, loss, trials)
        (16, 101, 3, 1, LossModel(p=0.03, m=3), 8),
        (14, 101, 3, 3, LossModel(p=0.06, m=4), 8),
        (9, 101, 5, 2, LossModel(p=0.15, m=3), 6),
        (1, 7, 3, 1, LossModel(p=0.4, m=1), 8),
        (1, 7, 4, 2, LossModel(p=0.4, m=1), 8),
        (10, 2**62 + 135, 3, 2, LossModel(p=0.05, m=3), 4),
    ]
    for k, q, n, lag, loss, trials in cases:
        for trial in range(trials):
            res = run_protocol(
                "tree", k, Field(q), d=trial % 2, seed=11, trial=trial, loss=loss,
                n_stations=n, prune_lag=lag, collect_events=trial % 2 == 0,
            )
            parts += [res.transcript.to_json(), _events_json(res.events)]
    return "".join(parts).encode()


def test_wide_run_outputs_match_golden_digest():
    assert hashlib.sha256(_golden_runs_wide()).hexdigest() == GOLDEN_RUNS_WIDE_SHA256


GOLDEN_REPORT_SHA256 = "cbf628cc28c2049cf633b52c92f8efa146f1b0855dbc9d8a74182c6b696a939f"


@pytest.mark.parametrize(
    "walk, digest",
    [
        # README shape: k=200, p=0.002, m=5, three stations, seed 7
        (lambda: an.tree_abort_rounds(200, 0.002, 5, 3, 20_000, 7),
         "a814f58d37d25a5914d5b734ef240ecfe1c5f7898fd507c72905200c5b6c6635"),
        (lambda: an.tree_abort_rounds(30, 0.01, 3, 4, 20_000, 5),
         "13b9436150458b086189f96279c2d20330b08864841765e51bc446c1311de35b"),
        (lambda: an.tree_abort_rounds(30, 0.02, 3, 5, 20_000, 5),
         "99eaea3fff593d04e13d1f27877fabb1efcc50675571401e453dac690cfba224"),
        # one full block and a one-trial ragged block
        (lambda: an.tree_abort_rounds(40, 0.01, 5, 3, an.WALK_BLOCK + 1, 3),
         "c93bc491c66f7b76b51bb84bc7fd52f5c801e8268854312e573809a57a794dd4"),
        (lambda: an.chain_abort_rounds(69, 0.01, 10_000, 11),
         "04f1e1bbc1fc66b9a56caa605c25b3d1ced05ef4cfdb9a8ec40c1958165ef6f4"),
    ],
    ids=["tree_readme", "tree_n4", "tree_n5", "tree_block_plus_one", "chain"],
)
def test_walk_abort_rounds_match_golden_digest(walk, digest):
    assert hashlib.sha256(walk().tobytes()).hexdigest() == digest


def test_fast_report_matches_golden_digest():
    rep = an.monte_carlo_reliability("tree", 60, 0.004, 5, 5_000, 9)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == GOLDEN_REPORT_SHA256


def _node_draws(q: int, seed: int, trial: int, label: str) -> tuple[int, int, str]:
    """(b, share, path) of node ``label`` under rng_stream 4, folded from
    the root's key over the label's digits.  The path says where the
    draws came from: the key's first two words ("first"), later words of
    the key ("later word"), or an extension digest ("extension")."""
    key = hashlib.sha256(f"{seed}:{trial}:node".encode()).digest()
    for digit in label:
        key = hashlib.sha256(key + b"c" + bytes([int(digit)])).digest()
    limit = 2**64 - 2**64 % q
    words = [int.from_bytes(key[i:i + 8], "big") for i in range(0, 32, 8)]
    ctr = 0
    while sum(w < limit for w in words) < 2:
        ext = hashlib.sha256(key + b"x" + ctr.to_bytes(4, "big")).digest()
        words += [int.from_bytes(ext[i:i + 8], "big") for i in range(0, 32, 8)]
        ctr += 1
    b, share = [w % q for w in words if w < limit][:2]
    path = "extension" if ctr else "first" if max(words[:2]) < limit else "later word"
    return b, share, path


Q_OVER_2_62 = 4611686018427388039  # the first prime above 2**62


@pytest.mark.parametrize("q", [2, 101, Q_OVER_2_62])
@pytest.mark.parametrize("n_stations, prune_lag, k", [
    (3, 1, 12), (3, 2, 10), (3, 3, 8),
    (5, 1, 8), (5, 2, 6), (5, 3, 5),
    (11, 1, 5), (11, 2, 4), (11, 3, 3),
])
def test_tree_draws_come_from_their_streams_record_by_record(q, n_stations, prune_lag, k):
    # each record's challenge is the b of its node's key; each share behind
    # an answer or a reveal claim is the share of its node's key, with the
    # committed bit above the root
    field = Field(q)
    seed = 29
    answered = silent = revealed = 0
    paths = Counter()
    for trial in range(4):
        d = trial % 2
        loss = LossModel(p=0.1, m=2) if trial < 3 else LossModel()
        for collect in (False, True):
            res = run_protocol(
                "tree", k, field, d=d, seed=seed, trial=trial, loss=loss,
                n_stations=n_stations, prune_lag=prune_lag, collect_events=collect,
            )
            tr = res.transcript

            def share(v):
                return d if v is None else _node_draws(q, seed, trial, v)[1]

            for v, rec in tr.records.items():
                b, _, path = _node_draws(q, seed, trial, v)
                assert rec.b == b, (trial, v)
                paths[path] += 1
                if rec.y is None:
                    silent += 1
                    continue
                a_up = share(v[:-1] if v else None)
                assert rec.y == (share(v) + rec.b * a_up) % q, (trial, v)
                answered += 1
            for leaf, rv in tr.reveals.items():
                assert (rv.d, rv.claim) == (d, share(leaf[:-1])), (trial, leaf)
                revealed += 1
    assert answered > 0 and silent > 0 and revealed > 0
    # a 64-bit word is rejected with probability (2**64 % q) / 2**64: never
    # seen at q = 2 and 101, and about 1/4 at the large modulus, whose node
    # keys run short of two accepted words in about one node of 20
    if q > 2**62:
        assert paths["extension"] > 0, paths
    else:
        assert set(paths) == {"first"}, paths


@pytest.mark.parametrize("q", [2, 101, Q_OVER_2_62])
@pytest.mark.parametrize("kind, k", [("single", 1), ("fq", 40)])
def test_chain_draws_come_from_their_streams_record_by_record(q, kind, k):
    field = Field(q)
    seed = 31
    for trial in range(6):
        d = trial % 2
        for collect in (False, True):
            res = run_protocol(kind, k, field, d=d, seed=seed, trial=trial,
                               loss=LossModel(p=0.02), collect_events=collect)
            a = d
            for j in range(1, len(res.transcript.records) + 1):
                # round j is node "0"*(j-1); its draws come from that node's key
                v = "0" * (j - 1)
                rec = res.transcript.records[v]
                b, share, _ = _node_draws(q, seed, trial, v)
                assert rec.b == b, (trial, j)
                prev, a = a, share
                if rec.y is None:  # the dead station of the abort round
                    assert j == res.transcript.abort_round, (trial, j)
                    continue
                assert rec.y == (a + rec.b * prev) % q, (trial, j)
            for rv in res.transcript.reveals.values():
                assert (rv.d, rv.claim) == (d, a)


@pytest.mark.parametrize("kind, n_stations, k", [("tree", 3, 10), ("tree", 5, 6), ("fq", 2, 24)])
def test_node_draws_do_not_depend_on_scheduling(kind, n_stations, k):
    # a node's key depends on its label alone, so runs of one (seed, trial)
    # that prune at different lags, or log events or not, give every node
    # they both schedule the same challenge, and the same answer where both
    # answer it
    field = Field(101)
    loss = LossModel(p=0.08, m=2)
    compared = answered = differ = 0
    for trial in range(6):
        runs = [
            run_protocol(
                kind, k, field, d=trial % 2, seed=37, trial=trial, loss=loss,
                n_stations=n_stations, prune_lag=lag, collect_events=collect,
            ).transcript.records
            for lag in (1, 2, 3) for collect in (False, True)
        ]
        for one, two in combinations(runs, 2):
            differ += one.keys() != two.keys()
            for v in one.keys() & two.keys():
                assert one[v].b == two[v].b, (trial, v)
                compared += 1
                if one[v].y is not None and two[v].y is not None:
                    assert one[v].y == two[v].y, (trial, v)
                    answered += 1
    assert compared > answered > 0
    if kind == "tree":  # the lags schedule different nodes
        assert differ > 0
