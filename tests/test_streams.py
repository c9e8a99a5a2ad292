"""Byte-identity of the hashed draws.

The digests below were computed before per-run hash streams replaced the
per-draw ``sample_hashed`` calls on the run paths; the streams hash the
same bytes, so every transcript and event log must stay identical.
"""

import hashlib
import json
import time

from relbc.field import Field
from relbc.protocol import ShareTable
from relbc.sim import HonestTreeAlice, LossModel, run_protocol

GOLDEN_RUNS_SHA256 = "9eb76dea02e373b8d95e5d3c47150d1af7b65dca291dbbae43df84944cfe87a4"
GOLDEN_HISTORY_SHA256 = "f477aa8f8fc4e73cb1187a237da182bafe4417a6c9ca3bbab6b15afc5ef80a98"


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


class ViewDependentAlice:
    """Honest shares, but every answer and reveal depends on the agent's
    accessible view, so the transcript pins exactly which challenges each
    view held: an agent stays silent when its view is not empty and the
    challenges in it sum to 0 mod 11."""

    needs_history = True

    def __init__(self, field: Field, seed: int, trial: int, d: int):
        self.honest = HonestTreeAlice(ShareTable.hashed(field, seed, trial), d, field)

    @staticmethod
    def _silent(acc_view) -> bool:
        return bool(acc_view) and sum(acc_view.values()) % 11 == 0

    def respond(self, v, b_v, acc_view):
        if self._silent(acc_view):
            return None
        return self.honest.respond(v, b_v, acc_view)

    def reveal(self, leaf, acc_view):
        if self._silent(acc_view):
            return None
        return self.honest.reveal(leaf, acc_view)


def _history_runs() -> bytes:
    """Transcripts and event logs of k=18 runs with a history agent."""
    parts = []
    field = Field(101)
    for trial in range(3):
        alice = ViewDependentAlice(field, 17, trial, trial % 2)
        res = run_protocol(
            "tree", 18, field, d=trial % 2, seed=17, trial=trial,
            loss=LossModel(p=0.02, m=5), alice=alice, collect_events=True,
        )
        parts += [res.transcript.to_json(), _events_json(res.events)]
    return "".join(parts).encode()


def test_run_outputs_match_golden_digest():
    assert hashlib.sha256(_golden_runs()).hexdigest() == GOLDEN_RUNS_SHA256


def test_history_agent_runs_match_golden_digest_quickly():
    t0 = time.process_time()
    payload = _history_runs()
    seconds = time.process_time() - t0
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_HISTORY_SHA256
    # Three k=18 runs.  Building each view from every node of the levels
    # above the answering one took about 6 s per run.
    assert seconds < 1.0
